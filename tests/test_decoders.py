import dataclasses
import gc
import itertools
import os
import subprocess
import sys
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ibquant import decoders
from ibquant.channels import LLR_LIMIT, binary_llrs, build_bpsk_awgn, ebn0_db_to_noise_std
from ibquant.dde import design_decoder, load_design, save_design
from ibquant.decoders import (
    CORRECTION_STEP,
    CORRECTION_TABLE_SIZE,
    _BLOCK,
    _CHECK_UPDATES,
    _CLOSED_FORM_BOUND,
    _CORRECTION_TABLE,
    _FramePacking,
    ber_sweep,
    decode_llr_batch,
    decode_lut_batch,
    write_ber_csv,
)
from ibquant.ldpc import LdpcCode, construct_regular_ldpc


def _frame_rng(seed, frame):
    """The stream of one frame, as ber_sweep draws it."""
    return np.random.default_rng(np.random.SeedSequence((seed, frame)))


def make_code(n=120, seed=3):
    return construct_regular_ldpc(n, 3, 6, seed=seed)


def noisy_frames(code, ebn0, num, seed, disc):
    sigma = ebn0_db_to_noise_std(ebn0, code.design_rate)
    n = code.block_length
    bins = np.empty((num, n), dtype=np.int64)
    for k in range(num):
        rng = _frame_rng(seed, k)
        bins[k] = disc.bin_of(1.0 + sigma * rng.standard_normal(n))
    return bins


@pytest.fixture(scope="module")
def setup_2db():
    code = construct_regular_ldpc(1000, 3, 6, seed=7)
    dmc = build_bpsk_awgn(2.0, 0.5, 128)
    design = design_decoder(dmc, 3, 6, 4, 50)
    return code, dmc, design


class TestLutDecoder:
    def test_noiseless_converges_immediately(self, setup_2db):
        code, dmc, design = setup_2db
        bins = dmc.discretization.bin_of(np.ones(code.block_length))
        bits, iters, conv = decode_lut_batch(code, design, bins[None], 50)
        assert conv[0] and iters[0] <= 1 and bits[0].sum() == 0

    def test_corrects_single_flipped_bin(self, setup_2db):
        code, dmc, design = setup_2db
        bins = dmc.discretization.bin_of(np.ones(code.block_length))
        bins = np.array(bins)
        bins[137] = 0  # opposite extreme bin
        bits, _, conv = decode_lut_batch(code, design, bins[None], 50)
        assert conv[0] and bits[0].sum() == 0

    def test_converged_means_parity_satisfied(self, setup_2db):
        code, dmc, design = setup_2db
        bins = noisy_frames(code, 2.0, 40, seed=11, disc=dmc.discretization)
        bits, _, conv = decode_lut_batch(code, design, bins, 50)
        for k in range(40):
            if conv[k]:
                assert bool(code.parity_ok(bits[k]))

    def test_integer_only_pipeline(self, setup_2db):
        code, dmc, design = setup_2db
        assert np.issubdtype(design.channel_lut.labels.dtype, np.integer)
        for chain in design.check_luts + design.var_luts:
            for stage in chain.stages:
                assert np.issubdtype(stage.table.dtype, np.integer)
        for rule in design.decision_luts:
            assert np.issubdtype(rule.bit_map.dtype, np.integer)
        bins = noisy_frames(code, 2.0, 2, seed=1, disc=dmc.discretization)
        bits, _, _ = decode_lut_batch(code, design, bins, 10)
        assert np.issubdtype(bits.dtype, np.integer)

    def test_rejects_bad_input(self, setup_2db):
        code, dmc, design = setup_2db
        with pytest.raises(ValueError):
            decode_lut_batch(code, design, np.zeros((1, 17), dtype=int), 10)
        with pytest.raises(ValueError):
            decode_lut_batch(code, design, np.full((1, code.block_length), 500), 10)
        with pytest.raises(ValueError):
            decode_lut_batch(code, design, np.zeros((1, code.block_length)), 10)  # float bins
        for max_iter in (0, -2):
            with pytest.raises(ValueError, match="max_iter"):
                decode_lut_batch(code, design, np.zeros((1, code.block_length), int),
                                 max_iter)

    def test_first_iteration_matches_density_evolution(self, setup_2db):
        # girth >= 6, so the first decoding iteration is exactly tree-like and
        # its bit error rate is an unbiased estimate of the designed trace
        code, dmc, design = setup_2db
        frames = 300
        bins = noisy_frames(code, 2.0, frames, seed=5, disc=dmc.discretization)
        bits, _, _ = decode_lut_batch(code, design, bins, 1)
        per_frame = (bits != 0).mean(axis=1)
        mean = per_frame.mean()
        stderr = per_frame.std(ddof=1) / np.sqrt(frames)
        assert abs(mean - design.error_prob_trace[0]) <= 3 * stderr + 1e-4

    @pytest.mark.parametrize("ebn0", [1.0, 2.0])
    def test_one_iteration_bit_error_rate_is_the_density_evolution_error(self, setup_2db,
                                                                         ebn0):
        # the code has no 4-cycles, so one iteration sees a tree; the decision
        # of iteration 0 is mirror-symmetric, so the error rate of the zero
        # codeword, P(1|0), is the decision error that density evolution tracks
        code = setup_2db[0]
        dmc = build_bpsk_awgn(ebn0, code.design_rate, 128)
        design = design_decoder(dmc, 3, 6, 4, 1)
        rule = design.decision_luts[0]
        final = rule.cascade.final.rows
        assert np.array_equal(final[1], final[0][::-1])
        assert np.array_equal(rule.bit_map[::-1], 1 - rule.bit_map)
        frames = 200
        bins = noisy_frames(code, ebn0, frames, seed=6, disc=dmc.discretization)
        bits, iters, _ = decode_lut_batch(code, design, bins, 1)
        assert np.all(iters == 1)
        per_frame = bits.sum(axis=1)
        stderr = per_frame.std(ddof=1) / np.sqrt(frames)
        expected = design.error_prob_trace[0] * code.block_length
        assert abs(per_frame.mean() - expected) <= 5 * stderr


def reference_decode_lut_batch(code, design, channel_bins, max_iter):
    """The cascade-by-cascade LUT decoder that decode_lut_batch compiles.

    Every exclusive node output is one LutCascade.evaluate call and every
    hard decision one DecisionRule.decide call; messages are (batch, nodes,
    slot) arrays moved between the node views by two-index fancy indexing.
    """
    bins = np.asarray(channel_bins)
    dv, dc = code.var_degree, code.check_degree
    batch = bins.shape[0]
    out_bits = np.zeros((batch, code.block_length), dtype=np.uint8)
    iters_used = np.full(batch, max_iter, dtype=np.int64)
    converged = np.zeros(batch, dtype=bool)

    active = np.arange(batch)
    chan = design.channel_lut.labels[bins]
    v2c = np.repeat(chan[:, :, None], dv, axis=2)
    c2v = None
    depth = design.max_iter
    for t in range(max_iter):
        tt = min(t, depth - 1)
        if t > 0:
            var_chain = design.var_luts[min(t - 1, depth - 1)]
            new_v2c = np.empty_like(v2c)
            for j in range(dv):
                others = [c2v[:, :, i] for i in range(dv) if i != j]
                new_v2c[:, :, j] = var_chain.evaluate([chan] + others)
            v2c = new_v2c
        mc = v2c[:, code.check_adj, code.check_slot_of]
        cc = np.empty_like(mc)
        check_chain = design.check_luts[tt]
        for i in range(dc):
            others = [mc[:, :, k] for k in range(dc) if k != i]
            cc[:, :, i] = check_chain.evaluate(others)
        c2v = cc[:, code.var_adj, code.var_slot_of]

        rule = design.decision_luts[tt]
        bits = rule.decide(chan, [c2v[:, :, j] for j in range(dv)]).astype(np.uint8)
        ok = code.parity_ok(bits)
        if np.any(ok):
            done = active[ok]
            out_bits[done] = bits[ok]
            iters_used[done] = t + 1
            converged[done] = True
            keep = ~ok
            active = active[keep]
            if active.size == 0:
                return out_bits, iters_used, converged
            chan = chan[keep]
            v2c = v2c[keep]
            c2v = c2v[keep]
        if t == max_iter - 1:
            out_bits[active] = bits[~ok] if np.any(ok) else bits
    return out_bits, iters_used, converged


def _reference_minsum(mc):
    sign = np.where(mc < 0, -1.0, 1.0)
    total_sign = sign.prod(axis=2, keepdims=True)
    mag = np.abs(mc)
    order = np.argsort(mag, axis=2)
    # +inf after the sorted magnitudes: the other input of a degree-1 check
    ranked = np.concatenate([np.take_along_axis(mag, order, axis=2),
                             np.full((*mag.shape[:2], 1), np.inf)], axis=2)
    min1 = ranked[:, :, :1]
    min2 = ranked[:, :, 1:2]
    out_mag = np.where(
        np.arange(mc.shape[2])[None, None, :] == order[:, :, :1], min2, min1)
    return total_sign * sign * out_mag


def _reference_correction(t):
    idx = np.minimum((t / CORRECTION_STEP).astype(np.int64),
                     CORRECTION_TABLE_SIZE - 1)
    return _CORRECTION_TABLE[idx]


def _reference_boxplus(a, b):
    sign = np.where(a < 0, -1.0, 1.0) * np.where(b < 0, -1.0, 1.0)
    mag = np.minimum(np.abs(a), np.abs(b))
    return (sign * mag + _reference_correction(np.abs(a + b))
            - _reference_correction(np.abs(a - b)))


def _reference_corrected(mc):
    batch, m, dc = mc.shape
    prefix = np.empty((batch, m, dc + 1))
    suffix = np.empty((batch, m, dc + 1))
    prefix[:, :, 0] = 1e9  # boxplus identity
    suffix[:, :, dc] = 1e9
    for i in range(dc):
        prefix[:, :, i + 1] = _reference_boxplus(prefix[:, :, i], mc[:, :, i])
        j = dc - 1 - i
        suffix[:, :, j] = _reference_boxplus(suffix[:, :, j + 1], mc[:, :, j])
    return _reference_boxplus(prefix[:, :, :dc], suffix[:, :, 1:])


def _reference_bp(mc):
    batch, m, dc = mc.shape
    t = np.tanh(0.5 * mc)
    prefix = np.ones((batch, m, dc + 1))
    suffix = np.ones((batch, m, dc + 1))
    for i in range(dc):
        prefix[:, :, i + 1] = prefix[:, :, i] * t[:, :, i]
        j = dc - 1 - i
        suffix[:, :, j] = suffix[:, :, j + 1] * t[:, :, j]
    excl = np.clip(prefix[:, :, :dc] * suffix[:, :, 1:], -1 + 1e-15, 1 - 1e-15)
    return 2.0 * np.arctanh(excl)


REFERENCE_CHECK_UPDATES = {"minsum": _reference_minsum,
                           "minsum-corrected": _reference_corrected,
                           "bp": _reference_bp}


def _reference_iteration(code, update, llr, v2c):
    mc = v2c[:, code.check_adj, code.check_slot_of]
    cc = np.clip(update(mc), -LLR_LIMIT, LLR_LIMIT)
    c2v = cc[:, code.var_adj, code.var_slot_of]
    return llr + c2v.sum(axis=2), c2v


def reference_decode_llr_batch(code, llrs, max_iter, engine):
    """The float loop that decode_llr_batch runs on slot-major rows.

    Messages are (batch, nodes, slot) arrays moved between the node views by
    two-index fancy indexing; min-sum sorts every check row.
    """
    update = REFERENCE_CHECK_UPDATES[engine]
    llr = np.asarray(llrs, dtype=float)
    batch = llr.shape[0]
    out_bits = np.zeros((batch, code.block_length), dtype=np.uint8)
    iters_used = np.full(batch, max_iter, dtype=np.int64)
    converged = np.zeros(batch, dtype=bool)

    active = np.arange(batch)
    v2c = np.repeat(llr[:, :, None], code.var_degree, axis=2)
    for t in range(max_iter):
        posterior, c2v = _reference_iteration(code, update, llr, v2c)
        bits = (posterior < 0).astype(np.uint8)
        ok = code.parity_ok(bits)
        if np.any(ok):
            done = active[ok]
            out_bits[done] = bits[ok]
            iters_used[done] = t + 1
            converged[done] = True
            keep = ~ok
            active = active[keep]
            if active.size == 0:
                return out_bits, iters_used, converged
            llr = llr[keep]
            posterior = posterior[keep]
            c2v = c2v[keep]
            bits = bits[keep]
        v2c = np.clip(posterior[:, :, None] - c2v, -LLR_LIMIT, LLR_LIMIT)
        if t == max_iter - 1:
            out_bits[active] = bits
    return out_bits, iters_used, converged


def bp_posteriors(code, dmc, channel_bins, max_iter):
    """Posterior LLR per bit of one frame after max_iter full BP sweeps of the
    float engine, with no early stop."""
    engine = decoders._FloatEngine(code, binary_llrs(dmc)[np.asarray(channel_bins)][None],
                                   "bp")
    for t in range(max_iter):
        engine.step(t)
    return engine.posterior[:, 0]


def reference_bp_posteriors(code, dmc, channel_bins, max_iter):
    """Posterior LLRs of the reference float loop after max_iter BP sweeps."""
    llr = binary_llrs(dmc)[np.asarray(channel_bins)[None, :]]
    v2c = np.repeat(llr[:, :, None], code.var_degree, axis=2)
    posterior = llr
    for _ in range(max_iter):
        posterior, c2v = _reference_iteration(code, _reference_bp, llr, v2c)
        v2c = np.clip(posterior[:, :, None] - c2v, -LLR_LIMIT, LLR_LIMIT)
    return posterior[0]


BOUND_NEIGHBOURS = (np.nextafter(_CLOSED_FORM_BOUND, 0.0), _CLOSED_FORM_BOUND,
                    np.nextafter(_CLOSED_FORM_BOUND, np.inf))


def _oracle_llrs(code, kind, batch, sigma, seed):
    """(batch, n) LLRs of one of the FLOAT_INPUTS kinds."""
    rng = np.random.default_rng(seed)
    n = code.block_length
    noisy = 1.0 + sigma * rng.standard_normal((batch, n))
    if kind == "table-128":
        dmc = build_bpsk_awgn(2.0, code.design_rate, 128)
        return binary_llrs(dmc)[dmc.discretization.bin_of(noisy)]
    if kind == "table-8":  # eight distinct values: ties in almost every check
        dmc = build_bpsk_awgn(1.0, code.design_rate, 8)
        return binary_llrs(dmc)[dmc.discretization.bin_of(noisy)]
    if kind == "equal-magnitudes":
        return np.where(noisy < 0, -1.5, 1.5)
    if kind == "zeros":  # exact zeros of both signs among small values
        llr = np.round(noisy, 1)
        llr[rng.random((batch, n)) < 0.2] = 0.0
        llr[rng.random((batch, n)) < 0.1] = -0.0
        return llr
    if kind == "huge":  # finite, around the closed-form identity bound 1e8
        mags = 10.0 ** rng.uniform(7.0, 12.0, (batch, n))
        near = rng.random((batch, n)) < 0.3
        mags[near] = rng.choice(BOUND_NEIGHBOURS, near.sum())
        return np.copysign(mags, noisy)
    # saturating: beyond LLR_LIMIT, and exactly at it
    llr = np.clip(40.0 * noisy, -2 * LLR_LIMIT, 2 * LLR_LIMIT)
    at_limit = rng.random((batch, n)) < 0.3
    llr[at_limit] = np.copysign(LLR_LIMIT, noisy[at_limit])
    return llr


FLOAT_INPUTS = ("table-128", "table-8", "equal-magnitudes", "zeros", "saturating", "huge")


# name: (block length, dv, dc, Eb/N0 dB, bins, message bits, designed iterations)
ORACLE_DESIGNS = {
    "4bit-above": (120, 3, 6, 2.0, 128, 4, 50),   # saturates after 13 iterations
    "4bit-below": (120, 3, 6, 1.0, 64, 4, 12),    # stalls: all 12 designed
    "3bit-above": (120, 3, 6, 2.0, 64, 3, 20),    # saturates after 17 iterations
    "2bit-below": (120, 3, 6, 2.0, 64, 2, 20),
    "3bit-dv2": (120, 2, 4, 1.5, 64, 3, 10),
    "5bit-tiny": (24, 3, 6, 2.0, 64, 5, 3),       # one frame per byte
    "1bit": (120, 3, 6, 2.0, 64, 1, 20),          # eight frames per byte
}


@pytest.fixture(scope="module")
def oracle_designs(setup_2db, tmp_path_factory):
    designs = {}
    for name, (n, dv, dc, ebn0, num_bins, bits, iters) in ORACLE_DESIGNS.items():
        code = construct_regular_ldpc(n, dv, dc, seed=3)
        if name == "4bit-above":
            design = setup_2db[2]
        else:
            design = design_decoder(build_bpsk_awgn(ebn0, code.design_rate, num_bins),
                                    dv, dc, bits, iters)
        designs[name] = (code, design)
    path = tmp_path_factory.mktemp("oracle") / "design.txt"
    code, design = designs["3bit-above"]
    save_design(design, path)
    designs["3bit-loaded"] = (code, load_design(path))
    # decision tables from other iterations: the decision cascade no longer
    # shares its first stages with the variable cascade
    code, design = designs["4bit-below"]
    designs["4bit-mixed"] = (code, dataclasses.replace(
        design, decision_luts=design.decision_luts[::-1]))
    return designs


@pytest.fixture(scope="module")
def alternating_designs():
    """A 2.0 dB 4-bit and a 2.5 dB 3-bit design for one code."""
    code = construct_regular_ldpc(120, 3, 6, seed=3)
    return code, {name: design_decoder(build_bpsk_awgn(ebn0, 0.5, 64), 3, 6, bits, 20)
                  for name, ebn0, bits in (("2.0dB-4bit", 2.0, 4), ("2.5dB-3bit", 2.5, 3))}


class TestCompiledLutDecoder:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(ORACLE_DESIGNS) + ["3bit-loaded", "4bit-mixed"]),
           batch=st.integers(1, 40), max_iter=st.integers(1, 60),
           sigma=st.floats(0.3, 1.3), seed=st.integers(0, 2**32 - 1))
    @example(name="4bit-above", batch=1, max_iter=50, sigma=0.8, seed=0)
    @example(name="4bit-below", batch=5, max_iter=40, sigma=0.85, seed=1)
    @example(name="4bit-below", batch=7, max_iter=40, sigma=0.8, seed=6)
    @example(name="4bit-below", batch=33, max_iter=50, sigma=0.8, seed=7)
    @example(name="1bit", batch=19, max_iter=30, sigma=0.4, seed=8)
    @example(name="3bit-loaded", batch=4, max_iter=30, sigma=0.8, seed=2)
    @example(name="2bit-below", batch=3, max_iter=25, sigma=0.6, seed=3)
    @example(name="5bit-tiny", batch=6, max_iter=10, sigma=0.7, seed=4)
    @example(name="4bit-mixed", batch=4, max_iter=20, sigma=0.85, seed=5)
    def test_matches_reference_decoder(self, oracle_designs, name, batch, max_iter,
                                       sigma, seed):
        code, design = oracle_designs[name]
        rng = np.random.default_rng(seed)
        received = 1.0 + sigma * rng.standard_normal((batch, code.block_length))
        bins = design.dmc.discretization.bin_of(received)
        got = decode_lut_batch(code, design, bins, max_iter)
        want = reference_decode_lut_batch(code, design, bins, max_iter)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)

    def test_rejects_inconsistent_message_alphabet(self, oracle_designs):
        # the design itself rejects parts that do not fit, before any decoding
        code, design = oracle_designs["3bit-above"]
        two_bit = oracle_designs["2bit-below"][1]
        iters = design.max_iter
        assert two_bit.max_iter >= iters
        bins = np.zeros((1, code.block_length), dtype=np.int64)
        for bad in ({"message_bits": 2},  # channel quantizer
                    {"check_luts": two_bit.check_luts[:iters]},
                    {"decision_luts": two_bit.decision_luts[:iters]}):
            with pytest.raises(ValueError, match="message alphabet"):
                decode_lut_batch(code, dataclasses.replace(design, **bad), bins, 5)

    @settings(max_examples=25, deadline=None)
    @given(order=st.lists(st.sampled_from(["2.0dB-4bit", "2.5dB-3bit"]), min_size=1,
                          max_size=5),
           batch=st.integers(1, 30), max_iter=st.integers(1, 30),
           sigma=st.floats(0.5, 1.2), seed=st.integers(0, 2**32 - 1))
    @example(order=["2.0dB-4bit", "2.0dB-4bit"], batch=9, max_iter=20, sigma=0.9, seed=1)
    @example(order=["2.0dB-4bit", "2.5dB-3bit"] * 2, batch=5, max_iter=25, sigma=0.8,
             seed=2)
    def test_matches_fresh_compile_and_reference(self, alternating_designs, order, batch,
                                                 max_iter, sigma, seed):
        code, designs = alternating_designs
        rng = np.random.default_rng(seed)
        for name in order:
            design = designs[name]
            received = 1.0 + sigma * rng.standard_normal((batch, code.block_length))
            bins = design.dmc.discretization.bin_of(received)
            got = decode_lut_batch(code, design, bins, max_iter)
            fresh = decode_lut_batch(code, dataclasses.replace(design), bins, max_iter)
            want = reference_decode_lut_batch(code, design, bins, max_iter)
            for g, f, w in zip(got, fresh, want):
                assert g.dtype == f.dtype == w.dtype
                assert np.array_equal(g, f)
                assert np.array_equal(g, w)

    def test_compiles_once_per_design(self, alternating_designs):
        code, designs = alternating_designs
        design = dataclasses.replace(designs["2.0dB-4bit"])
        bins = np.zeros((3, code.block_length), dtype=np.int64)
        with mock.patch.object(decoders, "_compile_iteration",
                               wraps=decoders._compile_iteration) as compile_iteration:
            decode_lut_batch(code, design, bins, 2)
            assert compile_iteration.call_count == design.max_iter
            program = vars(design)["_lut_program"]
            ber_sweep(code, "lut", [2.0], 30, design=design, batch_size=7)
            assert compile_iteration.call_count == design.max_iter
        assert vars(design)["_lut_program"] is program

    def test_program_is_freed_with_its_design(self, alternating_designs):
        code, designs = alternating_designs
        design = dataclasses.replace(designs["2.5dB-3bit"])
        decode_lut_batch(code, design, np.zeros((2, code.block_length), dtype=np.int64), 3)
        packing = weakref.ref(vars(design)["_lut_program"][0])
        del design
        gc.collect()
        assert packing() is None

    def test_design_fields_equality_and_bytes_unchanged(self, alternating_designs,
                                                        tmp_path):
        code, designs = alternating_designs
        design = designs["2.0dB-4bit"]
        copy = dataclasses.replace(design)
        save_design(copy, tmp_path / "before.txt")
        fields = dataclasses.fields(copy)
        decode_lut_batch(code, copy, np.zeros((2, code.block_length), dtype=np.int64), 3)
        assert "_lut_program" in vars(copy)
        save_design(copy, tmp_path / "after.txt")
        assert dataclasses.fields(copy) == fields
        assert copy == design and not copy != design
        assert (tmp_path / "after.txt").read_bytes() == (tmp_path / "before.txt").read_bytes()


class TestFrameStreams:
    """ber_sweep's per-frame streams equal default_rng(SeedSequence((seed, frame)))."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.one_of(st.integers(0, 2**32 + 1), st.integers(0, 2**130)),
           first=st.one_of(st.integers(0, 40), st.integers(2**32 - 6, 2**32 + 6),
                           st.integers(2**32, 2**63)),
           count=st.integers(1, 12), info_bits=st.integers(0, 9))
    @example(seed=0, first=0, count=3, info_bits=0)
    @example(seed=2**130, first=2**32 - 2, count=5, info_bits=7)
    @example(seed=2**64, first=2**63, count=2, info_bits=1)
    def test_same_draws_as_a_generator_per_frame(self, seed, first, count, info_bits):
        frames = 0
        for k, rng in enumerate(decoders._frame_streams(seed, first, count)):
            want = _frame_rng(seed, first + k)
            if info_bits:
                assert np.array_equal(rng.integers(0, 2, info_bits),
                                      want.integers(0, 2, info_bits))
            assert np.array_equal(rng.standard_normal(6), want.standard_normal(6))
            frames += 1
        assert frames == count

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            next(decoders._frame_streams(-1, 0, 1))
        with pytest.raises(ValueError):
            ber_sweep(make_code(), "bp", [2.0], 5, seed=-3)


class TestFramePacking:
    @settings(max_examples=100, deadline=None)
    @given(bits=st.integers(1, 8), constant_right=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_packed_lookup_applies_the_stage_to_every_frame(self, bits, constant_right,
                                                              seed):
        rng = np.random.default_rng(seed)
        levels = 1 << bits
        stage = rng.integers(0, levels, (levels, 1 if constant_right else levels),
                             dtype=np.uint8)
        packing = _FramePacking(bits)
        table = packing.table(stage)
        # random bytes, so the bits above the last frame are set too
        left, right = rng.integers(0, 256, (2, 500), dtype=np.uint8)
        index = left if constant_right else (left.astype(np.uint16) << 8) | right
        out = table.take(index)
        mask = levels - 1
        for k in range(packing.per_byte):
            l_k = (left >> (k * bits)) & mask
            r_k = 0 if constant_right else (right >> (k * bits)) & mask
            assert np.array_equal((out >> (k * bits)) & mask, stage[l_k, r_k])
        if packing.per_byte * bits < 8:
            assert np.all(out >> (packing.per_byte * bits) == 0)

    @settings(max_examples=200, deadline=None)
    @given(bits=st.integers(1, 8), frames=st.integers(1, 70), data=st.data())
    def test_repack_keeps_the_live_frames_and_pads_with_copies(self, bits, frames, data):
        packing = _FramePacking(bits)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = rng.integers(0, 1 << bits, (3, frames), dtype=np.uint8)
        packed = packing.pack(values)
        p = packing.per_byte
        assert packed.shape == (3, -(-frames // p))
        held = packing.unpack(packed, p * packed.shape[1])
        assert np.array_equal(held[:, :frames], values)
        assert np.all(held[:, frames:] == values[:, -1:])
        live = np.array(data.draw(st.lists(st.booleans(), min_size=frames,
                                           max_size=frames)))
        if not live.any():
            return
        repacked, order = packing.repack(packed, live)
        assert sorted(order) == list(np.flatnonzero(live))
        kept = live.sum()
        assert repacked.shape == (3, -(-kept // p))
        held = packing.unpack(repacked, p * repacked.shape[1])
        assert np.array_equal(held[:, :kept], values[:, order])
        pads = held[:, kept:]
        assert all(any(np.array_equal(pad, values[:, f]) for f in order) for pad in pads.T)

    def test_rejects_messages_wider_than_a_byte(self):
        with pytest.raises(ValueError, match="1 to 8 bits"):
            _FramePacking(9)


@pytest.fixture(scope="module")
def float_codes():
    return {(dv, dc): construct_regular_ldpc(120, dv, dc, seed=3)
            for dv, dc in ((3, 6), (2, 4))}


class TestSlotMajorFloatDecoder:
    @settings(max_examples=80, deadline=None)
    @given(degrees=st.sampled_from([(3, 6), (2, 4)]),
           engine=st.sampled_from(["minsum", "minsum-corrected", "bp"]),
           kind=st.sampled_from(FLOAT_INPUTS), batch=st.integers(0, 6),
           max_iter=st.integers(1, 60), sigma=st.floats(0.3, 1.3),
           seed=st.integers(0, 2**32 - 1), block=st.sampled_from([1, 7, 64, _BLOCK]))
    @example(degrees=(3, 6), engine="minsum", kind="table-8", batch=6, max_iter=40,
             sigma=0.9, seed=0, block=_BLOCK)
    @example(degrees=(3, 6), engine="minsum", kind="equal-magnitudes", batch=4,
             max_iter=20, sigma=0.8, seed=1, block=_BLOCK)
    @example(degrees=(2, 4), engine="minsum-corrected", kind="zeros", batch=5,
             max_iter=30, sigma=0.7, seed=2, block=_BLOCK)
    @example(degrees=(3, 6), engine="bp", kind="saturating", batch=3, max_iter=25,
             sigma=1.2, seed=3, block=_BLOCK)
    @example(degrees=(3, 6), engine="minsum-corrected", kind="table-128", batch=0,
             max_iter=5, sigma=0.8, seed=4, block=_BLOCK)
    @example(degrees=(3, 6), engine="minsum-corrected", kind="huge", batch=5,
             max_iter=30, sigma=0.8, seed=5, block=7)
    def test_matches_reference_decoder(self, float_codes, degrees, engine, kind, batch,
                                       max_iter, sigma, seed, block):
        # smaller blocks split the checks as a large batch does at the default
        code = float_codes[degrees]
        llr = _oracle_llrs(code, kind, batch, sigma, seed)
        if engine == "minsum-corrected" and kind == "huge" and batch:
            # rejected, not clamped: every input it accepts decodes as the oracle does
            for value in (None, np.inf, -np.inf, np.nan):
                bad = llr.copy()
                if value is not None:
                    bad[-1, seed % code.block_length] = value
                with pytest.raises(ValueError, match="below 1e8"):
                    decode_llr_batch(code, bad, max_iter, engine)
            llr = np.clip(llr, -BOUND_NEIGHBOURS[0], BOUND_NEIGHBOURS[0])
        with mock.patch.object(decoders, "_BLOCK", block):
            got = decode_llr_batch(code, llr, max_iter, engine)
        want = reference_decode_llr_batch(code, llr, max_iter, engine)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)

    @settings(max_examples=40, deadline=None)
    @given(degrees=st.sampled_from([(3, 6), (2, 4)]),
           engine=st.sampled_from(["minsum", "minsum-corrected", "bp"]),
           kind=st.sampled_from(FLOAT_INPUTS), batch=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_check_updates_match_reference_bit_for_bit(self, float_codes, degrees,
                                                        engine, kind, batch, seed):
        # signed zeros and last-bit rounding do not reach the decoded bits
        code = float_codes[degrees]
        llr = _oracle_llrs(code, kind, batch, 0.8, seed)
        if engine == "minsum-corrected":  # it takes inputs below the bound only
            llr = np.clip(llr, -BOUND_NEIGHBOURS[0], BOUND_NEIGHBOURS[0])
        mc = llr[:, code.check_adj]  # (batch, m, dc)
        want = REFERENCE_CHECK_UPDATES[engine](mc).transpose(2, 1, 0)
        got = np.empty_like(want)
        _CHECK_UPDATES[engine](np.ascontiguousarray(mc.transpose(2, 1, 0)), got)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=60, deadline=None)
    @given(degrees=st.sampled_from([(3, 6), (2, 4)]),
           engine=st.sampled_from(["minsum", "minsum-corrected", "bp"]),
           kind=st.sampled_from(FLOAT_INPUTS), batch=st.integers(0, 4),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    @example(degrees=(3, 6), engine="minsum-corrected", kind="huge", batch=3, seed=0,
             data=None)
    def test_blocks_of_checks_update_like_the_whole_array(self, float_codes, degrees,
                                                          engine, kind, batch, seed, data):
        code = float_codes[degrees]
        m = code.num_checks
        rng = np.random.default_rng(seed)
        llr = _oracle_llrs(code, kind, batch, 0.8, seed)
        mc = np.ascontiguousarray(llr[:, code.check_adj].transpose(2, 1, 0))
        # checks kept as drawn, held just below the bound, or with one input on
        # the other side of it from the rest; "above" reaches past the 2**63
        # range of an integer cast of the correction index
        scale = rng.integers(0, 4, m)
        one = np.arange(len(mc))[:, None] == rng.integers(0, len(mc), m)
        low = (scale == 1) | ((scale == 2) & one) | ((scale == 3) & ~one)
        high = ((scale == 2) & ~one) | ((scale == 3) & one)
        mc[low] = np.copysign(np.minimum(np.abs(mc[low]), BOUND_NEIGHBOURS[0]), mc[low])
        above = 10.0 ** rng.uniform(9, 300, mc[high].shape)
        mc[high] = np.copysign(np.maximum(np.abs(mc[high]), above), mc[high])
        if engine == "minsum-corrected":  # it takes inputs below the bound only
            np.clip(mc, -BOUND_NEIGHBOURS[0], BOUND_NEIGHBOURS[0], out=mc)
        if data is None:
            cuts = list(range(1, m))
        else:
            cuts = sorted(data.draw(st.sets(st.integers(1, m - 1))))
        whole = np.empty_like(mc)
        blocks = np.empty_like(mc)
        with np.errstate(over="ignore"):  # a product of two such inputs only carries a sign
            _CHECK_UPDATES[engine](mc, whole)
            for start, stop in zip([0] + cuts, cuts + [m]):
                _CHECK_UPDATES[engine](mc[:, start:stop], blocks[:, start:stop])
        assert np.array_equal(blocks.view(np.int64), whole.view(np.int64))

    @pytest.mark.parametrize("degrees", [(3, 6), (2, 4)])
    def test_bp_posteriors_match_reference(self, float_codes, degrees):
        code = float_codes[degrees]
        dmc = build_bpsk_awgn(1.0, code.design_rate, 64)
        bins = noisy_frames(code, 1.0, 3, seed=17, disc=dmc.discretization)
        for frame in bins:
            for max_iter in (0, 1, 12):
                got = bp_posteriors(code, dmc, frame, max_iter)
                want = reference_bp_posteriors(code, dmc, frame, max_iter)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("engine", ["minsum", "minsum-corrected", "bp"])
    def test_degree_one_checks_match_reference(self, engine):
        # a degree-1 check has no other input, so it sends certainty: the
        # minimum of no magnitudes, the product of no tanh values, and for
        # corrected min-sum +inf where the oracle has boxplus(1e9, 1e9); both
        # clip to LLR_LIMIT
        code = LdpcCode(np.eye(6, dtype=np.uint8), 1, 1, seed=0)
        llr = 1.0 + 0.8 * np.random.default_rng(9).standard_normal((3, 6))
        got = decode_llr_batch(code, llr, 5, engine)
        want = reference_decode_llr_batch(code, llr, 5, engine)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("engine", ["minsum", "minsum-corrected", "bp"])
    def test_degree_one_checks_force_the_zero_word(self, engine):
        code = LdpcCode(np.eye(4, dtype=np.uint8), 1, 1, seed=0)
        bits, iters, conv = decode_llr_batch(code, np.array([[-2.0, 1.0, 3.0, -0.5]]), 5,
                                             engine)
        assert bits.tolist() == [[0, 0, 0, 0]]
        assert iters.tolist() == [1] and conv.tolist() == [True]

    def test_rejects_bad_input(self, float_codes):
        code = float_codes[(3, 6)]
        llr = np.zeros((2, code.block_length))
        with pytest.raises(ValueError, match="unknown engine"):
            decode_llr_batch(code, llr, 5, "offset-minsum")
        for bad in (llr[0], llr[:, :-1], llr[None]):
            with pytest.raises(ValueError, match=r"\(batch, n\)"):
                decode_llr_batch(code, bad, 5, "bp")
        for max_iter in (0, -2):
            with pytest.raises(ValueError, match="max_iter"):
                decode_llr_batch(code, llr, max_iter, "bp")


class TestCorrectionByKey:
    """One lookup by a float's top 17 bits gives the tabulated g(|s|) of every s."""

    @staticmethod
    def want(s):
        # the oracle casts |s| / 0.25 to int64, so it is fed at most 2**60: every |s| >= 16
        # takes entry 63
        return _reference_correction(np.minimum(np.abs(s), 2.0**60))

    def test_both_ends_of_every_key(self):
        keys = np.arange(1 << 17, dtype=np.uint64) << np.uint64(47)
        for bits in (keys, keys | np.uint64((1 << 47) - 1)):
            s = bits.view(np.float64)
            s = s[np.isfinite(s)]
            assert s.size >= (1 << 17) - 2 * 32
            assert np.array_equal(decoders._correction(s.copy()), self.want(s))

    def test_step_boundaries_zeros_subnormals_and_the_bound(self):
        steps = CORRECTION_STEP * np.arange(CORRECTION_TABLE_SIZE + 1)
        tiny = np.finfo(np.float64).tiny
        s = np.concatenate([steps, np.nextafter(steps, -np.inf),
                            [5e-324, tiny / 2, np.nextafter(tiny, 0.0), tiny,
                             np.nextafter(_CLOSED_FORM_BOUND, 0.0)]])
        s = np.concatenate([s, -s])
        assert np.signbit(s[s == 0]).sum() == 1  # -0.0 as well as 0.0
        assert np.array_equal(decoders._correction(s.copy()), self.want(s))

    def test_built_once_on_the_first_corrected_decode(self):
        script = "\n".join([
            "import numpy as np",
            "import ibquant",
            "from ibquant import decoders",
            "from ibquant.ldpc import construct_regular_ldpc",
            "built = decoders._correction_by_key.cache_info",
            "assert built().misses == 0, 'import built the table'",
            "code = construct_regular_ldpc(120, 3, 6, seed=3)",
            "llr = np.full((2, 120), 2.0)",
            "for engine in ('minsum', 'bp'):",
            "    decoders.decode_llr_batch(code, llr, 3, engine)",
            "assert built().misses == 0, 'another engine built the table'",
            "for _ in range(2):",
            "    decoders.decode_llr_batch(code, llr, 3, 'minsum-corrected')",
            "assert built().misses == 1",
            "assert decoders._correction_by_key().nbytes <= 1 << 20",
        ])
        env = dict(os.environ, PYTHONPATH=str(Path(decoders.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", script], check=True, env=env)


class TestEmptyBatch:
    def test_lut_decoder(self, oracle_designs):
        code, design = oracle_designs["4bit-below"]
        bits, iters, conv = decode_lut_batch(
            code, design, np.zeros((0, code.block_length), np.int64), 5)
        assert bits.shape == (0, code.block_length) and bits.dtype == np.uint8
        assert iters.shape == (0,) and iters.dtype == np.int64
        assert conv.shape == (0,) and conv.dtype == bool

    @pytest.mark.parametrize("engine", ["minsum", "minsum-corrected", "bp"])
    def test_float_decoder(self, float_codes, engine):
        code = float_codes[(3, 6)]
        bits, iters, conv = decode_llr_batch(code, np.zeros((0, code.block_length)), 5,
                                             engine)
        assert bits.shape == (0, code.block_length) and bits.dtype == np.uint8
        assert iters.shape == (0,) and iters.dtype == np.int64
        assert conv.shape == (0,) and conv.dtype == bool


class TestBaselineDecoders:
    def test_noiseless(self, setup_2db):
        code, dmc, _ = setup_2db
        bins = dmc.discretization.bin_of(np.ones(code.block_length))
        llr = binary_llrs(dmc)[bins[None]]
        for engine in ("minsum", "minsum-corrected", "bp"):
            bits, iters, conv = decode_llr_batch(code, llr, 50, engine)
            assert conv[0] and bits[0].sum() == 0 and iters[0] <= 1

    def test_deterministic_trajectories(self, setup_2db):
        code, dmc, _ = setup_2db
        bins = noisy_frames(code, 2.0, 10, seed=21, disc=dmc.discretization)
        from ibquant.channels import binary_llrs
        llr = binary_llrs(dmc)[bins]
        a = decode_llr_batch(code, llr, 30, "minsum")
        b = decode_llr_batch(code, llr, 30, "minsum")
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestBpAgainstExactMap:
    def test_tree_code_matches_brute_force(self):
        # single parity check over 7 bits: a depth-one tree, BP is exact
        h = np.ones((1, 7), dtype=np.uint8)
        from ibquant.ldpc import LdpcCode
        code = LdpcCode(h, 1, 7, seed=0)
        dmc = build_bpsk_awgn(1.0, 0.5, 32)
        disc = dmc.discretization
        rows = dmc.transition.rows
        codewords = [np.array(c, dtype=np.uint8)
                     for c in itertools.product((0, 1), repeat=7)
                     if sum(c) % 2 == 0]
        sigma = ebn0_db_to_noise_std(1.0, 0.5)
        rng = np.random.default_rng(77)
        for _ in range(25):
            tx = codewords[rng.integers(len(codewords))]
            received = (1.0 - 2.0 * tx) + sigma * rng.standard_normal(7)
            bins = disc.bin_of(received)
            # exact bitwise MAP by enumerating the codebook
            post0 = np.zeros(7)
            post1 = np.zeros(7)
            for cw in codewords:
                like = np.prod(rows[cw, bins])
                post0 += like * (cw == 0)
                post1 += like * (cw == 1)
            exact_llr = np.log(post0) - np.log(post1)
            bp_llr = bp_posteriors(code, dmc, bins, max_iter=3)
            assert np.allclose(bp_llr, exact_llr, atol=1e-6)
            bits, _, _ = decode_llr_batch(code, binary_llrs(dmc)[bins[None]], 10, "bp")
            assert np.array_equal(bits[0], (exact_llr < 0).astype(np.uint8))


class TestBerSweep:
    def test_zero_frames_empty(self, setup_2db):
        code, _, _ = setup_2db
        assert ber_sweep(code, "bp", [2.0], max_frames=0, seed=0) == []

    def test_high_snr_no_errors(self):
        code = make_code()
        pts = ber_sweep(code, "bp", [8.0], max_frames=200, seed=0, num_bins=64)
        assert pts[0].bit_errors == 0
        assert pts[0].frame_errors == 0

    def test_seeded_reproducibility(self):
        code = make_code()
        a = ber_sweep(code, "minsum", [1.5], max_frames=150, seed=4, num_bins=64)
        b = ber_sweep(code, "minsum", [1.5], max_frames=150, seed=4, num_bins=64)
        assert a == b

    def test_max_errors_stops_early(self):
        code = make_code()
        pts = ber_sweep(code, "minsum", [0.0], max_frames=5000, max_errors=10,
                        seed=4, num_bins=64, batch_size=25)
        assert pts[0].frames < 5000
        assert pts[0].frame_errors >= 10

    def test_lut_results_do_not_depend_on_batching(self, oracle_designs):
        # below the threshold frames stop at different iterations, so the
        # batches are compacted, and re-paired, at different frames
        code, design = oracle_designs["4bit-below"]
        points = [ber_sweep(code, "lut", [1.0], max_frames=30, seed=12, design=design,
                            codewords="random", batch_size=size) for size in (7, 200)]
        assert points[0] == points[1]
        assert 0 < points[0][0].frame_errors < 30

    @pytest.mark.parametrize("decoder", ["minsum", "minsum-corrected", "bp"])
    def test_float_results_do_not_depend_on_batching(self, oracle_designs, decoder):
        code = oracle_designs["4bit-below"][0]
        points = [ber_sweep(code, decoder, [1.0], max_frames=30, seed=12,
                            codewords="random", num_bins=64, batch_size=size)
                  for size in (7, 200)]
        assert points[0] == points[1]
        assert 0 < points[0][0].frame_errors < 30

    @pytest.mark.parametrize("decoder", decoders.DECODERS)
    @pytest.mark.parametrize("max_iter", [0, -2])
    def test_rejects_fewer_than_one_iteration(self, oracle_designs, decoder, max_iter):
        # no iteration leaves the all-zero start, which would count as decoded
        code, design = oracle_designs["4bit-below"]
        with pytest.raises(ValueError, match="max_iter"):
            ber_sweep(code, decoder, [1.0], max_frames=4, design=design,
                      max_iter=max_iter)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_rejects_empty_batches_before_sampling(self, batch_size):
        # a batch of no frames never reaches max_frames
        code = make_code()
        with mock.patch.object(decoders, "decode_llr_batch",
                               side_effect=AssertionError("sampled a batch")):
            with pytest.raises(ValueError, match="batch_size"):
                ber_sweep(code, "bp", [2.0], max_frames=4, batch_size=batch_size)

    @pytest.mark.parametrize("decoder", decoders.DECODERS)
    @pytest.mark.parametrize("ebn0", [np.nan, -4000.0, 4000.0])
    def test_rejects_eb_n0_without_a_positive_finite_noise_std(self, decoder, ebn0):
        with pytest.raises(ValueError, match="Eb/N0 of"):
            ber_sweep(make_code(), decoder, [ebn0], max_frames=4)

    @pytest.mark.parametrize("decoder", ["lut", "bp"])
    @pytest.mark.parametrize("seed, error", [(1.5, TypeError), ("3", TypeError),
                                             (None, TypeError), (-3, ValueError)])
    def test_rejects_a_bad_seed_before_designing_or_sampling(self, decoder, seed, error):
        with mock.patch.object(decoders, "design_decoder",
                               side_effect=AssertionError("designed a decoder")), \
                mock.patch.object(decoders, "_frame_streams",
                                  side_effect=AssertionError("sampled a batch")):
            with pytest.raises(error, match="seed"):
                ber_sweep(make_code(), decoder, [2.0], max_frames=4, seed=seed)

    def test_takes_a_numpy_integer_seed(self):
        code = make_code()
        want = ber_sweep(code, "minsum", [2.0], max_frames=4, seed=3, num_bins=32)
        assert ber_sweep(code, "minsum", [2.0], max_frames=4, seed=np.int64(3),
                         num_bins=32) == want

    def test_unknown_decoder(self):
        code = make_code()
        with pytest.raises(ValueError):
            ber_sweep(code, "turbo", [1.0], max_frames=10)

    def test_csv_format(self, tmp_path, setup_2db):
        code, _, _ = setup_2db
        pts = ber_sweep(make_code(), "bp", [6.0], max_frames=20, seed=1, num_bins=32)
        path = tmp_path / "ber.csv"
        write_ber_csv(path, pts, "bp", 120, comment="run")
        lines = path.read_text().splitlines()
        assert lines[0] == "# run"
        assert lines[1] == "decoder,ebn0_db,frames,bit_errors,frame_errors,ber,fer,avg_iterations"
        assert lines[2].startswith("bp,6,20,")


def wilson_interval(errors, trials, z=1.96):
    if trials == 0:
        return 0.0, 1.0
    p = errors / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


class TestOrderingAndSymmetry:
    def test_corrected_minsum_not_worse_than_plain(self, setup_2db):
        # paired frames at 2.5 dB; the correction recovers boxplus accuracy
        code, _, _ = setup_2db
        frames = 10_000
        plain = ber_sweep(code, "minsum", [2.5], max_frames=frames, seed=6)[0]
        corr = ber_sweep(code, "minsum-corrected", [2.5], max_frames=frames, seed=6)[0]
        n = code.block_length
        lo_plain, _ = wilson_interval(plain.bit_errors, frames * n)
        _, hi_corr = wilson_interval(corr.bit_errors, frames * n)
        assert lo_plain <= hi_corr or plain.bit_errors >= corr.bit_errors

    def test_bp_not_worse_than_plain_minsum(self, setup_2db):
        code, _, _ = setup_2db
        frames = 4_000
        for ebn0 in (2.0, 2.5):
            plain = ber_sweep(code, "minsum", [ebn0], max_frames=frames, seed=8)[0]
            bp = ber_sweep(code, "bp", [ebn0], max_frames=frames, seed=8)[0]
            n = code.block_length
            lo_bp, _ = wilson_interval(bp.bit_errors, frames * n)
            _, hi_plain = wilson_interval(plain.bit_errors, frames * n)
            assert bp.bit_errors <= plain.bit_errors or lo_bp <= hi_plain

    def test_all_zero_vs_random_codewords(self, setup_2db):
        # output-symmetric channel plus symmetric decoder: codeword choice
        # must not change the error statistics beyond Monte-Carlo noise
        code, _, design = setup_2db
        frames = 1500
        zero = ber_sweep(code, "lut", [2.0], max_frames=frames, seed=13,
                         design=design)[0]
        rand = ber_sweep(code, "lut", [2.0], max_frames=frames, seed=13,
                         design=design, codewords="random")[0]
        lo_z, hi_z = wilson_interval(zero.frame_errors, frames)
        lo_r, hi_r = wilson_interval(rand.frame_errors, frames)
        assert lo_z <= hi_r and lo_r <= hi_z

    def test_all_zero_vs_random_codewords_below_threshold(self, setup_2db):
        # at 1.0 dB every one of the 50 iterations has its own tables, all
        # mirror-symmetric, so the codeword choice must not matter there either
        code = setup_2db[0]
        design = design_decoder(build_bpsk_awgn(1.0, code.design_rate, 128), 3, 6, 4, 50)
        frames = 1500
        zero = ber_sweep(code, "lut", [1.0], max_frames=frames, seed=13,
                         design=design)[0]
        rand = ber_sweep(code, "lut", [1.0], max_frames=frames, seed=13,
                         design=design, codewords="random")[0]
        lo_z, hi_z = wilson_interval(zero.frame_errors, frames)
        lo_r, hi_r = wilson_interval(rand.frame_errors, frames)
        assert lo_z <= hi_r and lo_r <= hi_z
