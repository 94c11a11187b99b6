import hashlib
from itertools import combinations
from math import comb, gcd

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ibquant.decoders import _FramePacking
from ibquant.ldpc import (
    LdpcCode,
    construct_regular_ldpc,
    count_four_cycles,
    encode,
    generator_matrix,
    gf2_row_reduce,
)


def reference_adjacency(h):
    """check_adj, var_adj, check_slot_of, var_slot_of by per-node scans of h."""
    m, n = h.shape
    dc, dv = int(h[0].sum()), int(h[:, 0].sum())
    check_adj = np.empty((m, dc), dtype=np.int64)
    var_adj = np.empty((n, dv), dtype=np.int64)
    for c in range(m):
        check_adj[c] = np.flatnonzero(h[c])
    for v in range(n):
        var_adj[v] = np.flatnonzero(h[:, v])
    check_slot_of = np.empty((m, dc), dtype=np.int64)
    var_slot_of = np.empty((n, dv), dtype=np.int64)
    for c in range(m):
        for i, v in enumerate(check_adj[c]):
            check_slot_of[c, i] = int(np.flatnonzero(var_adj[v] == c)[0])
    for v in range(n):
        for j, c in enumerate(var_adj[v]):
            var_slot_of[v, j] = int(np.flatnonzero(check_adj[c] == v)[0])
    return check_adj, var_adj, check_slot_of, var_slot_of


def _reference_local_pair_keys(checks):
    cs = sorted(checks)
    return [(cs[i], cs[j]) for i in range(len(cs)) for j in range(i + 1, len(cs))]


def _reference_repair_duplicates(edges_v, edges_c, rng, max_passes=200):
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
        pairs = set(seen)  # not updated by the swaps of this pass
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


def _reference_reduce_four_cycles(edges_v, edges_c, n, rng, passes):
    num_edges = edges_v.shape[0]
    for _ in range(passes):
        per_var = [[] for _ in range(n)]
        for v, c in zip(edges_v, edges_c):
            per_var[v].append(c)
        pair_mult = {}
        for checks in per_var:
            for key in _reference_local_pair_keys(checks):
                pair_mult[key] = pair_mult.get(key, 0) + 1
        bad_edges = []
        for v, checks in enumerate(per_var):
            for key in _reference_local_pair_keys(checks):
                if pair_mult[key] >= 2:
                    bad_edges.extend(np.flatnonzero(edges_v == v).tolist())
                    break
        if not bad_edges:
            return
        pairs = {(int(edges_v[e]), int(edges_c[e])) for e in range(num_edges)}

        def var_excess(checks):
            return sum(pair_mult.get(key, 0) - 1 for key in _reference_local_pair_keys(checks)
                       if pair_mult.get(key, 0) >= 2)

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
                before = var_excess(per_var[ve]) + var_excess(per_var[vf])
                pe = [c for c in per_var[ve] if c != ce] + [cf]
                pf = [c for c in per_var[vf] if c != cf] + [ce]
                # tentative multiplicities as if swapped, rolled back on rejection
                for key in _reference_local_pair_keys(per_var[ve]) + \
                        _reference_local_pair_keys(per_var[vf]):
                    pair_mult[key] -= 1
                for key in _reference_local_pair_keys(pe) + _reference_local_pair_keys(pf):
                    pair_mult[key] = pair_mult.get(key, 0) + 1
                after = var_excess(pe) + var_excess(pf)
                if after < before:
                    pairs.discard((ve, ce))
                    pairs.discard((vf, cf))
                    pairs.add(new_e)
                    pairs.add(new_f)
                    edges_c[e], edges_c[f] = cf, ce
                    per_var[ve], per_var[vf] = pe, pf
                    improved = True
                    break
                for key in _reference_local_pair_keys(pe) + _reference_local_pair_keys(pf):
                    pair_mult[key] -= 1
                for key in _reference_local_pair_keys(per_var[ve]) + \
                        _reference_local_pair_keys(per_var[vf]):
                    pair_mult[key] = pair_mult.get(key, 0) + 1
        if not improved:
            return


def reference_construct_regular_ldpc(n, dv, dc, seed=0, cycle_passes=30):
    """Parity matrix of the construction with per-edge tuple bookkeeping.

    The same rng calls in the same order as construct_regular_ldpc: one
    permutation per attempt, then one scalar draw per swap try.
    """
    rng = np.random.default_rng(seed)
    edges_v = np.repeat(np.arange(n), dv)
    num_edges = edges_v.shape[0]
    for _ in range(60):
        edges_c = rng.permutation(num_edges) // dc
        if _reference_repair_duplicates(edges_v, edges_c, rng):
            break
    else:
        raise RuntimeError("could not remove duplicate edges")
    _reference_reduce_four_cycles(edges_v, edges_c, n, rng, cycle_passes)
    h = np.zeros((n * dv // dc, n), dtype=np.uint8)
    h[edges_c, edges_v] = 1
    return h


ADJACENCY = ("check_adj", "var_adj", "check_slot_of", "var_slot_of")


class TestConstruction:
    def test_small_code_degrees(self):
        code = construct_regular_ldpc(8, 3, 6, seed=0)
        h = code.parity_matrix
        assert h.shape == (4, 8)
        assert np.all(h.sum(axis=0) == 3)
        assert np.all(h.sum(axis=1) == 6)

    def test_rate_bound(self):
        code = construct_regular_ldpc(1000, 3, 6, seed=7)
        reduced, pivots = gf2_row_reduce(code.parity_matrix)
        assert len(pivots) <= 500
        assert 1.0 - len(pivots) / 1000 >= 0.5

    def test_deterministic(self):
        a = construct_regular_ldpc(120, 3, 6, seed=42)
        b = construct_regular_ldpc(120, 3, 6, seed=42)
        assert np.array_equal(a.parity_matrix, b.parity_matrix)

    def test_different_seeds_differ(self):
        a = construct_regular_ldpc(120, 3, 6, seed=1)
        b = construct_regular_ldpc(120, 3, 6, seed=2)
        assert not np.array_equal(a.parity_matrix, b.parity_matrix)

    def test_no_duplicate_edges(self):
        for seed in range(5):
            code = construct_regular_ldpc(60, 3, 6, seed=seed)
            assert code.parity_matrix.max() == 1

    def test_four_cycles_removed_at_scale(self):
        code = construct_regular_ldpc(1000, 3, 6, seed=7)
        assert count_four_cycles(code.parity_matrix) == 0

    def test_divisibility_check(self):
        with pytest.raises(ValueError):
            construct_regular_ldpc(10, 3, 4, seed=0)

    @pytest.mark.parametrize("n, dv, dc, match", [
        (0, 3, 6, "block length"), (-6, 3, 6, "block length"),
        (4, 3, 6, "fewer than dv"), (2, 2, 4, "fewer than dv"), (5, 4, 10, "fewer than dv")])
    def test_impossible_sizes_fail_fast(self, n, dv, dc, match):
        # no simple (dv, dc)-regular graph exists: raise before any draw
        with pytest.raises(ValueError, match=match):
            construct_regular_ldpc(n, dv, dc, seed=0)

    def test_as_many_checks_as_dv_connects_everything(self):
        code = construct_regular_ldpc(6, 3, 6, seed=0)
        assert np.all(code.parity_matrix == 1)

    def test_pinned_digest(self):
        # every BER digest of the benchmark builds this code
        h = construct_regular_ldpc(1000, 3, 6, seed=7).parity_matrix
        assert h.shape == (500, 1000) and h.dtype == np.uint8
        assert hashlib.sha256(h.tobytes()).hexdigest() == (
            "e675765dc64030249d588cce8f95a4e445aea217da0657ac9e298e778f541b5b")

    def test_adjacency_cross_references(self):
        code = construct_regular_ldpc(60, 3, 6, seed=3)
        for c in range(code.num_checks):
            for i, v in enumerate(code.check_adj[c]):
                assert code.var_adj[v, code.check_slot_of[c, i]] == c
        for v in range(code.block_length):
            for j, c in enumerate(code.var_adj[v]):
                assert code.check_adj[c, code.var_slot_of[v, j]] == v


@st.composite
def code_sizes(draw):
    """(n, dv, dc) with n * dv a multiple of dc and at least dv checks."""
    dv = draw(st.integers(1, 4))
    dc = draw(st.integers(2, 8))
    step = dc // gcd(dv, dc)
    n = step * draw(st.integers(1, max(1, 160 // (step * dv))))
    assume(n * dv // dc >= dv)
    return n, dv, dc


class TestConstructionMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(sizes=code_sizes(), seed=st.integers(0, 2**32 - 1),
           cycle_passes=st.integers(0, 30))
    @example(sizes=(3, 3, 3), seed=2, cycle_passes=30)  # a second permutation
    @example(sizes=(12, 3, 6), seed=0, cycle_passes=30)  # 4-cycles left over
    @example(sizes=(16, 4, 8), seed=5, cycle_passes=30)
    @example(sizes=(120, 4, 8), seed=1, cycle_passes=30)
    @example(sizes=(60, 3, 6), seed=3, cycle_passes=1)
    def test_same_matrix_and_adjacency(self, sizes, seed, cycle_passes):
        n, dv, dc = sizes
        want = reference_construct_regular_ldpc(n, dv, dc, seed, cycle_passes)
        code = construct_regular_ldpc(n, dv, dc, seed, cycle_passes)
        h = code.parity_matrix
        assert h.dtype == want.dtype and h.shape == want.shape
        assert h.tobytes() == want.tobytes()
        for name, ref in zip(ADJACENCY, reference_adjacency(want)):
            got = getattr(code, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), name

    def test_examples_reach_the_rare_paths(self):
        # (3, 3, 3) seed 2: the first permutation's duplicates cannot be repaired
        rng = np.random.default_rng(2)
        edges_c = rng.permutation(9) // 3
        assert not _reference_repair_duplicates(np.repeat(np.arange(3), 3), edges_c, rng)
        for n, dv, dc, seed in ((12, 3, 6, 0), (16, 4, 8, 5)):
            assert count_four_cycles(construct_regular_ldpc(n, dv, dc, seed).parity_matrix) > 0

    @pytest.mark.parametrize("h, dv, dc", [
        (np.eye(4, dtype=np.uint8), 1, 1),
        (np.ones((3, 5), dtype=np.uint8), 3, 5),
        (np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]), 2, 2)])
    def test_adjacency_of_hand_made_matrices(self, h, dv, dc):
        code = LdpcCode(h, dv, dc, seed=0)
        for name, ref in zip(ADJACENCY, reference_adjacency(np.asarray(h))):
            assert np.array_equal(getattr(code, name), ref), name


class TestSyndrome:
    def test_zero_word_satisfies(self):
        code = construct_regular_ldpc(60, 3, 6, seed=3)
        assert bool(code.parity_ok(np.zeros(60, dtype=np.uint8)))

    def test_all_ones_satisfies_even_checks(self):
        # every check has even degree, so the all-ones word is a codeword
        code = construct_regular_ldpc(60, 3, 6, seed=3)
        assert bool(code.parity_ok(np.ones(60, dtype=np.uint8)))

    def test_single_flip_fails(self):
        code = construct_regular_ldpc(60, 3, 6, seed=3)
        word = np.zeros(60, dtype=np.uint8)
        word[17] = 1
        assert not bool(code.parity_ok(word))
        assert code.syndrome(word).sum() == 3  # dv checks go odd

    def test_batched_syndrome(self):
        code = construct_regular_ldpc(60, 3, 6, seed=3)
        words = np.zeros((4, 60), dtype=np.uint8)
        words[2, 5] = 1
        ok = code.parity_ok(words)
        assert list(ok) == [True, True, False, True]


def reference_syndrome(code, bits):
    """Parity of each check from one (..., m, dc) gather of the bits."""
    return np.bitwise_xor.reduce(np.asarray(bits)[..., code.check_adj], axis=-1)


SYNDROME_CODES = {(dv, dc): construct_regular_ldpc(60, dv, dc, seed=3)
                  for dv, dc in ((3, 6), (2, 4), (4, 6))}


class TestSyndromeMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(degrees=st.sampled_from(sorted(SYNDROME_CODES)),
           lead=st.lists(st.integers(0, 4), max_size=2),
           dtype=st.sampled_from([np.uint8, np.bool_, np.int64]),
           seed=st.integers(0, 2**32 - 1))
    def test_arrays_with_leading_axes(self, degrees, lead, dtype, seed):
        code = SYNDROME_CODES[degrees]
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, (*lead, code.block_length)).astype(dtype)
        want = reference_syndrome(code, bits)
        got = code.syndrome(bits)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(code.parity_ok(bits), ~np.any(want, axis=-1))

    @settings(max_examples=100, deadline=None)
    @given(degrees=st.sampled_from(sorted(SYNDROME_CODES)), frames=st.integers(0, 9),
           seed=st.integers(0, 2**32 - 1))
    def test_transposed_slot_major_rows(self, degrees, frames, seed):
        code = SYNDROME_CODES[degrees]
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 2, (code.block_length, frames)) == 1  # (n, frames)
        want = reference_syndrome(code, np.ascontiguousarray(rows.T))
        assert np.array_equal(code.syndrome(rows.T), want)
        assert np.array_equal(code.parity_ok(rows.T), ~np.any(want, axis=-1))

    @settings(max_examples=100, deadline=None)
    @given(degrees=st.sampled_from(sorted(SYNDROME_CODES)),
           message_bits=st.sampled_from([8, 4, 1]), frames=st.integers(1, 30),
           seed=st.integers(0, 2**32 - 1))
    def test_packed_decision_bytes(self, degrees, message_bits, frames, seed):
        # 1, 2 and 8 frames per byte, each frame's bit at its position's lowest bit
        code = SYNDROME_CODES[degrees]
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, (code.block_length, frames), dtype=np.uint8)
        bits[:, rng.random(frames) < 0.3] = 0  # some frames pass every check
        packing = _FramePacking(message_bits)
        packed = packing.pack(bits)
        want = reference_syndrome(code, bits.T)
        syndrome = code.syndrome(packed.T)  # (groups, m) bytes
        assert np.array_equal(packing.unpack(syndrome.T, frames), want.T)
        failed = np.bitwise_or.reduce(syndrome, axis=-1)
        assert np.array_equal(packing.unpack(failed[None], frames)[0] == 0,
                              ~np.any(want, axis=-1))


class TestGenerator:
    def test_codewords_satisfy_parity(self):
        rng = np.random.default_rng(0)
        code = construct_regular_ldpc(120, 3, 6, seed=5)
        g = generator_matrix(code)
        assert g.shape[0] >= 60
        for _ in range(20):
            info = rng.integers(0, 2, size=g.shape[0]).astype(np.uint8)
            word = encode(g, info)
            assert bool(code.parity_ok(word))

    def test_generator_rank_matches(self):
        code = construct_regular_ldpc(120, 3, 6, seed=5)
        _, pivots = gf2_row_reduce(code.parity_matrix)
        g = generator_matrix(code)
        assert g.shape == (120 - len(pivots), 120)

    def test_gf2_row_reduce_identity(self):
        h = np.eye(4, dtype=np.uint8)
        reduced, pivots = gf2_row_reduce(h)
        assert pivots == [0, 1, 2, 3]
        assert np.array_equal(reduced, h)


class TestFourCycles:
    @settings(max_examples=80, deadline=None)
    @given(h=st.tuples(st.integers(1, 7), st.integers(1, 9)).flatmap(
        lambda shape: arrays(np.uint8, shape, elements=st.integers(0, 1))))
    @example(h=np.ones((4, 5), dtype=np.uint8))  # every pair shares all four checks
    def test_matches_brute_force(self, h):
        # each pair of variables closes one 4-cycle per pair of checks it shares
        want = sum(comb(int(np.sum(h[:, a] & h[:, b])), 2)
                   for a, b in combinations(range(h.shape[1]), 2))
        got = count_four_cycles(h)
        assert type(got) is int and got == want


class TestLdpcCodeValidation:
    def test_rejects_wrong_column_weight(self):
        h = np.zeros((2, 4), dtype=np.uint8)
        h[0, :3] = 1
        h[1, 1:] = 1
        with pytest.raises(ValueError):
            LdpcCode(h, 2, 3, seed=0)

    @pytest.mark.parametrize("h, degree", [([[2, 0], [0, 2]], 2), ([[1, 0], [0, 1.5]], 1),
                                           ([[-1, 0], [0, 1]], 1), ([[1, 0], [0, np.nan]], 1)])
    def test_rejects_non_binary_entries(self, h, degree):
        with pytest.raises(ValueError, match="0 or 1"):
            LdpcCode(h, degree, degree, seed=0)

    def test_leaves_the_callers_matrix_writable(self):
        h = np.eye(4, dtype=np.uint8)
        code = LdpcCode(h, 1, 1, 0)
        h[0, 0] = 0
        assert code.parity_matrix[0, 0] == 1
        assert not code.parity_matrix.flags.writeable

    def test_accepts_boolean_matrix(self):
        code = LdpcCode(np.eye(3, dtype=bool), 1, 1, seed=0)
        assert code.parity_matrix.dtype == np.uint8
        assert np.array_equal(code.check_adj, [[0], [1], [2]])

    def test_design_rate(self):
        code = construct_regular_ldpc(60, 3, 6, seed=3)
        assert code.design_rate == 0.5
