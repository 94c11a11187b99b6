"""Regular LDPC code construction and GF(2) utilities.

Codes come from a socket-permutation construction: variable and check edge
sockets are matched by a seeded random permutation, duplicate edges are always
repaired, and length-4 cycles are removed best-effort by local edge swaps
(MacKay, IEEE Trans. IT 1999).  Edge e belongs to variable e // dv; the
construction keeps only the check of every edge.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations

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
        raw = np.asarray(self.parity_matrix)
        if raw.ndim != 2:
            raise ValueError("parity matrix must be two-dimensional")
        if not np.all((raw == 0) | (raw == 1)):
            raise ValueError("parity matrix entries must be 0 or 1")
        h = np.array(raw, dtype=np.uint8)  # a copy: the caller's array stays writable
        if not np.all(h.sum(axis=0) == self.var_degree):
            raise ValueError("column weights are not uniform")
        if not np.all(h.sum(axis=1) == self.check_degree):
            raise ValueError("row weights are not uniform")
        h.setflags(write=False)
        object.__setattr__(self, "parity_matrix", h)
        (m, n), dv, dc = h.shape, self.var_degree, self.check_degree
        # check-major edges, stably sorted by variable: each node's neighbours
        # ascend, and an edge's slot is its rank within its node
        checks, variables = np.nonzero(h)
        by_var = np.argsort(variables, kind="stable")
        rank = np.empty_like(by_var)
        rank[by_var] = np.arange(by_var.size)
        for name, arr in (("check_adj", variables.reshape(m, dc)),
                          ("var_adj", checks[by_var].reshape(n, dv)),
                          ("check_slot_of", (rank % dv).reshape(m, dc)),
                          ("var_slot_of", (by_var % dc).reshape(n, dv))):
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
    """Number of length-4 cycles: the check pairs shared by each pair of variables.

    The overlap counts are small integers, so the float64 product, which
    BLAS computes, holds them exactly, as does every sum below 2**53.
    """
    h = np.asarray(h, dtype=np.float64)
    overlap = h.T @ h
    np.fill_diagonal(overlap, 0)
    return int((overlap * (overlap - 1)).sum()) // 4


def construct_regular_ldpc(n: int, dv: int, dc: int, seed: int = 0,
                           cycle_passes: int = 30) -> LdpcCode:
    """Seeded (dv, dc)-regular Gallager-style code of block length n.

    Duplicate edges are always removed; 4-cycle removal is best-effort within
    ``cycle_passes`` sweeps (count the leftovers with ``count_four_cycles``).
    Identical arguments produce bit-identical matrices.  Sizes without a
    simple regular graph (n < 1, dc not dividing n * dv, fewer than dv
    checks) raise ``ValueError``.
    """
    if dv < 1 or dc < 2:
        raise ValueError("degrees out of range")
    if n < 1:
        raise ValueError(f"block length must be >= 1, got {n}")
    if n * dv % dc != 0:
        raise ValueError("n * dv must be divisible by dc")
    m = n * dv // dc
    if m < dv:
        raise ValueError(f"{m} checks are fewer than dv = {dv}")
    rng = np.random.default_rng(seed)
    num_edges = n * dv
    for _ in range(60):
        edges_c = rng.permutation(num_edges) // dc
        if _repair_duplicates(edges_c, dv, m, rng):
            break
    else:
        raise RuntimeError("could not remove duplicate edges; degrees too dense")

    _reduce_four_cycles(edges_c, dv, m, rng, cycle_passes)

    h = np.zeros((m, n), dtype=np.uint8)
    h[edges_c, np.repeat(np.arange(n), dv)] = 1
    return LdpcCode(h, dv, dc, seed)


def _repair_duplicates(edges_c, dv, m, rng, max_passes: int = 200) -> bool:
    """Swap each repeat of an edge key v * m + c with one of 50 random partners.

    Partners are screened against the keys at the start of the pass.
    """
    num_edges = edges_c.shape[0]
    owner_keys = np.arange(num_edges) // dv * m
    for _ in range(max_passes):
        keys = owner_keys + edges_c
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        later = order[1:][ranked[1:] == ranked[:-1]]
        if later.size == 0:
            return True
        pairs = set(keys.tolist())
        checks = edges_c.tolist()
        for e in np.sort(later).tolist():
            for _ in range(50):
                f = int(rng.integers(num_edges))
                new_e = e // dv * m + checks[f]
                new_f = f // dv * m + checks[e]
                if new_e in pairs or new_f in pairs or new_e == new_f:
                    continue
                checks[e], checks[f] = checks[f], checks[e]
                break
        edges_c[:] = checks
    return False


def _reduce_four_cycles(edges_c, dv, m, rng, passes: int) -> None:
    """Swap edges of variables on 4-cycles while a pass still improves.

    Each edge of a variable on a 4-cycle tries 30 random partners; a swap is
    kept if it makes no duplicate and lowers the two variables' excess, the
    sum of (count - 1) over their check-pair keys c1 * m + c2.
    """
    num_edges = edges_c.shape[0]
    first, second = np.triu_indices(dv, 1)
    for _ in range(passes):
        rows = edges_c.reshape(-1, dv)
        ordered = np.sort(rows, axis=1)
        keys = ordered[:, first] * m + ordered[:, second]
        uniq, inverse, counts = np.unique(keys.ravel(), return_inverse=True,
                                          return_counts=True)
        bad = (counts[inverse].reshape(keys.shape) >= 2).any(axis=1)
        if not bad.any():
            return
        bad_edges = (np.flatnonzero(bad)[:, None] * dv + np.arange(dv)).ravel()
        mult = defaultdict(int, zip(uniq.tolist(), counts.tolist()))
        var_keys = keys.tolist()
        checks = rows.tolist()
        improved = False
        for e in bad_edges.tolist():
            ve, je = divmod(e, dv)
            for _ in range(30):
                f = int(rng.integers(num_edges))
                vf, jf = divmod(f, dv)
                if ve == vf:
                    continue
                se, sf = checks[ve], checks[vf]
                ce, cf = se[je], sf[jf]
                if cf in se or ce in sf:
                    continue
                pe, pf = se.copy(), sf.copy()
                pe[je], pf[jf] = cf, ce
                old = var_keys[ve] + var_keys[vf]
                new = [a * m + b for s in (pe, pf) for a, b in combinations(sorted(s), 2)]
                # old and new hold equally many keys, each counted at least
                # once, so their count sums compare as the excesses do
                before = sum(map(mult.__getitem__, old))
                for k in old:
                    mult[k] -= 1
                for k in new:
                    mult[k] += 1
                if sum(map(mult.__getitem__, new)) < before:
                    checks[ve], checks[vf] = pe, pf
                    half = len(new) // 2
                    var_keys[ve], var_keys[vf] = new[:half], new[half:]
                    improved = True
                    break
                for k in new:
                    mult[k] -= 1
                for k in old:
                    mult[k] += 1
        rows[:] = checks
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
    free = np.setdiff1d(np.arange(code.block_length), pivots)
    g = np.zeros((free.size, code.block_length), dtype=np.uint8)
    g[np.arange(free.size), free] = 1
    g[:, pivots] = reduced[:len(pivots), free].T
    return g


def encode(generator: np.ndarray, info_bits: np.ndarray) -> np.ndarray:
    return (np.asarray(info_bits, dtype=np.uint8) @ generator) % 2
