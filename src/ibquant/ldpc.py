"""Regular LDPC code construction and GF(2) utilities.

Codes come from a socket-permutation construction: variable and check edge
sockets are matched by a seeded random permutation, duplicate edges are always
repaired, and length-4 cycles are removed best-effort by local edge swaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LdpcCode:
    """A (dv, dc)-regular parity-check matrix with its factor-graph adjacency."""

    parity_matrix: np.ndarray
    var_degree: int
    check_degree: int
    seed: int
    check_adj: np.ndarray = field(init=False)   # (m, dc) variable index per check slot
    var_adj: np.ndarray = field(init=False)     # (n, dv) check index per variable slot
    check_slot_of: np.ndarray = field(init=False)  # slot of check c within var_adj row
    var_slot_of: np.ndarray = field(init=False)    # slot of var v within check_adj row

    def __post_init__(self):
        h = np.asarray(self.parity_matrix, dtype=np.uint8)
        if h.ndim != 2:
            raise ValueError("parity matrix must be two-dimensional")
        if not np.all(h.sum(axis=0) == self.var_degree):
            raise ValueError("column weights are not uniform")
        if not np.all(h.sum(axis=1) == self.check_degree):
            raise ValueError("row weights are not uniform")
        h.setflags(write=False)
        object.__setattr__(self, "parity_matrix", h)
        m, n = h.shape
        check_adj = np.empty((m, self.check_degree), dtype=np.int64)
        var_adj = np.empty((n, self.var_degree), dtype=np.int64)
        for c in range(m):
            check_adj[c] = np.flatnonzero(h[c])
        for v in range(n):
            var_adj[v] = np.flatnonzero(h[:, v])
        # slot cross-references so messages can be gathered between node views
        check_slot_of = np.empty((m, self.check_degree), dtype=np.int64)
        var_slot_of = np.empty((n, self.var_degree), dtype=np.int64)
        for c in range(m):
            for i, v in enumerate(check_adj[c]):
                check_slot_of[c, i] = int(np.flatnonzero(var_adj[v] == c)[0])
        for v in range(n):
            for j, c in enumerate(var_adj[v]):
                var_slot_of[v, j] = int(np.flatnonzero(check_adj[c] == v)[0])
        for arr, name in ((check_adj, "check_adj"), (var_adj, "var_adj"),
                          (check_slot_of, "check_slot_of"), (var_slot_of, "var_slot_of")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_checks(self) -> int:
        return self.parity_matrix.shape[0]

    @property
    def block_length(self) -> int:
        return self.parity_matrix.shape[1]

    @property
    def design_rate(self) -> float:
        return 1.0 - self.var_degree / self.check_degree

    def syndrome(self, bits: np.ndarray) -> np.ndarray:
        """Parity of each check; bits may carry extra leading axes.

        An XOR of dc gathers of variable rows, the variable axis moved to the
        front: a transposed view of slot-major (n, frames) rows gathers whole
        contiguous rows.  Parity is bitwise, so bytes that pack several
        frames' bits give every frame's parity at its bit.
        """
        rows = np.moveaxis(np.asarray(bits), -1, 0)
        slots = self.check_adj.T
        parity = rows.take(slots[0], axis=0)
        for slot in slots[1:]:
            parity ^= rows.take(slot, axis=0)
        return np.moveaxis(parity, 0, -1)

    def parity_ok(self, bits: np.ndarray) -> np.ndarray:
        return ~np.any(self.syndrome(bits), axis=-1)


def count_four_cycles(h: np.ndarray) -> int:
    """Number of length-4 cycles: variable pairs sharing two or more checks."""
    h = np.asarray(h, dtype=np.int64)
    overlap = h.T @ h
    np.fill_diagonal(overlap, 0)
    return int((overlap * (overlap - 1) // 2).sum() // 2)


def _pair_counts(edges_v, edges_c, n):
    """Per-variable check sets, as sorted tuples keyed for cycle bookkeeping."""
    per_var = [[] for _ in range(n)]
    for v, c in zip(edges_v, edges_c):
        per_var[v].append(c)
    return per_var


def _local_pair_keys(checks):
    keys = []
    cs = sorted(checks)
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            keys.append((cs[i], cs[j]))
    return keys


def construct_regular_ldpc(n: int, dv: int, dc: int, seed: int = 0,
                           cycle_passes: int = 30) -> LdpcCode:
    """Seeded (dv, dc)-regular Gallager-style code of block length n.

    Duplicate edges are always removed; 4-cycle removal is best-effort within
    ``cycle_passes`` sweeps (count the leftovers with ``count_four_cycles``).
    Identical arguments produce bit-identical matrices.
    """
    if n * dv % dc != 0:
        raise ValueError("n * dv must be divisible by dc")
    if dv < 1 or dc < 2:
        raise ValueError("degrees out of range")
    m = n * dv // dc
    rng = np.random.default_rng(seed)
    edges_v = np.repeat(np.arange(n), dv)
    num_edges = edges_v.shape[0]

    for _ in range(60):
        perm = rng.permutation(num_edges)
        edges_c = perm // dc
        if _repair_duplicates(edges_v, edges_c, rng):
            break
    else:
        raise RuntimeError("could not remove duplicate edges; degrees too dense")

    _reduce_four_cycles(edges_v, edges_c, n, rng, cycle_passes)

    h = np.zeros((m, n), dtype=np.uint8)
    h[edges_c, edges_v] = 1
    return LdpcCode(h, dv, dc, seed)


def _repair_duplicates(edges_v, edges_c, rng, max_passes: int = 200) -> bool:
    num_edges = edges_v.shape[0]
    for _ in range(max_passes):
        seen = {}
        dupes = []
        for e in range(num_edges):
            key = (int(edges_v[e]), int(edges_c[e]))
            if key in seen:
                dupes.append(e)
            else:
                seen[key] = e
        if not dupes:
            return True
        pairs = set(seen)
        for e in dupes:
            for _ in range(50):
                f = int(rng.integers(num_edges))
                new_e = (int(edges_v[e]), int(edges_c[f]))
                new_f = (int(edges_v[f]), int(edges_c[e]))
                if new_e in pairs or new_f in pairs or new_e == new_f:
                    continue
                edges_c[e], edges_c[f] = edges_c[f], edges_c[e]
                break
    return False


def _reduce_four_cycles(edges_v, edges_c, n, rng, passes: int) -> None:
    num_edges = edges_v.shape[0]
    for _ in range(passes):
        per_var = _pair_counts(edges_v, edges_c, n)
        pair_mult: dict[tuple[int, int], int] = {}
        for checks in per_var:
            for key in _local_pair_keys(checks):
                pair_mult[key] = pair_mult.get(key, 0) + 1
        bad_edges = []
        for v, checks in enumerate(per_var):
            for key in _local_pair_keys(checks):
                if pair_mult[key] >= 2:
                    bad_edges.extend(np.flatnonzero(edges_v == v).tolist())
                    break
        if not bad_edges:
            return
        pairs = {(int(edges_v[e]), int(edges_c[e])) for e in range(num_edges)}

        def var_excess(v, checks):
            return sum(pair_mult.get(key, 0) - 1
                       for key in _local_pair_keys(checks) if pair_mult.get(key, 0) >= 2)

        improved = False
        for e in bad_edges:
            for _ in range(30):
                f = int(rng.integers(num_edges))
                ve, vf = int(edges_v[e]), int(edges_v[f])
                if ve == vf:
                    continue
                ce, cf = int(edges_c[e]), int(edges_c[f])
                new_e, new_f = (ve, cf), (vf, ce)
                if new_e in pairs or new_f in pairs:
                    continue
                before = (var_excess(ve, per_var[ve]) + var_excess(vf, per_var[vf]))
                pe = [c for c in per_var[ve] if c != ce] + [cf]
                pf = [c for c in per_var[vf] if c != cf] + [ce]
                # recompute multiplicities as if swapped (local delta only)
                for key in _local_pair_keys(per_var[ve]) + _local_pair_keys(per_var[vf]):
                    pair_mult[key] -= 1
                for key in _local_pair_keys(pe) + _local_pair_keys(pf):
                    pair_mult[key] = pair_mult.get(key, 0) + 1
                after = (var_excess(ve, pe) + var_excess(vf, pf))
                if after < before:
                    pairs.discard((ve, ce))
                    pairs.discard((vf, cf))
                    pairs.add(new_e)
                    pairs.add(new_f)
                    edges_c[e], edges_c[f] = cf, ce
                    per_var[ve], per_var[vf] = pe, pf
                    improved = True
                    break
                # roll back the tentative bookkeeping
                for key in _local_pair_keys(pe) + _local_pair_keys(pf):
                    pair_mult[key] -= 1
                for key in _local_pair_keys(per_var[ve]) + _local_pair_keys(per_var[vf]):
                    pair_mult[key] = pair_mult.get(key, 0) + 1
        if not improved:
            return


def gf2_row_reduce(h: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row-reduced copy over GF(2) and its pivot columns."""
    a = np.array(h, dtype=np.uint8) % 2
    m, n = a.shape
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        hot = np.flatnonzero(a[row:, col]) + row
        if hot.size == 0:
            continue
        if hot[0] != row:
            a[[row, hot[0]]] = a[[hot[0], row]]
        mask = a[:, col].astype(bool)
        mask[row] = False
        a[mask] ^= a[row]
        pivots.append(col)
        row += 1
    return a, pivots


def generator_matrix(code: LdpcCode) -> np.ndarray:
    """A (k, n) systematic-style generator with G H^T = 0 over GF(2).

    Rank-deficient parity matrices simply yield a larger codebook.
    """
    reduced, pivots = gf2_row_reduce(code.parity_matrix)
    n = code.block_length
    free = [c for c in range(n) if c not in set(pivots)]
    k = len(free)
    g = np.zeros((k, n), dtype=np.uint8)
    for i, col in enumerate(free):
        g[i, col] = 1
        for r, p in enumerate(pivots):
            g[i, p] = reduced[r, col]
    return g


def encode(generator: np.ndarray, info_bits: np.ndarray) -> np.ndarray:
    return (np.asarray(info_bits, dtype=np.uint8) @ generator) % 2
