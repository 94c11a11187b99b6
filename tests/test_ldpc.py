import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibquant.decoders import _FramePacking
from ibquant.ldpc import (
    LdpcCode,
    construct_regular_ldpc,
    count_four_cycles,
    encode,
    generator_matrix,
    gf2_row_reduce,
)


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

    def test_adjacency_cross_references(self):
        code = construct_regular_ldpc(60, 3, 6, seed=3)
        for c in range(code.num_checks):
            for i, v in enumerate(code.check_adj[c]):
                assert code.var_adj[v, code.check_slot_of[c, i]] == c
        for v in range(code.block_length):
            for j, c in enumerate(code.var_adj[v]):
                assert code.check_adj[c, code.var_slot_of[v, j]] == v


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


class TestLdpcCodeValidation:
    def test_rejects_wrong_column_weight(self):
        h = np.zeros((2, 4), dtype=np.uint8)
        h[0, :3] = 1
        h[1, 1:] = 1
        with pytest.raises(ValueError):
            LdpcCode(h, 2, 3, seed=0)

    def test_design_rate(self):
        code = construct_regular_ldpc(60, 3, 6, seed=3)
        assert code.design_rate == 0.5
