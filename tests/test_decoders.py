import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ibquant.channels import binary_llrs, build_bpsk_awgn, ebn0_db_to_noise_std
from ibquant.dde import design_decoder, load_design, save_design
from ibquant.decoders import (
    CORRECTION_STEP,
    CORRECTION_TABLE_SIZE,
    LLR_LIMIT,
    _CHECK_UPDATES,
    _CORRECTION_TABLE,
    _frame_rng,
    ber_sweep,
    bp_posteriors,
    decode_bp,
    decode_llr_batch,
    decode_lut,
    decode_lut_batch,
    decode_min_sum,
    write_ber_csv,
)
from ibquant.ldpc import construct_regular_ldpc


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
        bits, iters, conv = decode_lut(code, design, bins, 50)
        assert conv and iters <= 1 and bits.sum() == 0

    def test_corrects_single_flipped_bin(self, setup_2db):
        code, dmc, design = setup_2db
        bins = dmc.discretization.bin_of(np.ones(code.block_length))
        bins = np.array(bins)
        bins[137] = 0  # opposite extreme bin
        bits, _, conv = decode_lut(code, design, bins, 50)
        assert conv and bits.sum() == 0

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
                assert np.issubdtype(stage.lut.table.dtype, np.integer)
        for rule in design.decision_luts:
            assert np.issubdtype(rule.bit_map.dtype, np.integer)
        bins = noisy_frames(code, 2.0, 2, seed=1, disc=dmc.discretization)
        bits, _, _ = decode_lut_batch(code, design, bins, 10)
        assert np.issubdtype(bits.dtype, np.integer)

    def test_rejects_bad_input(self, setup_2db):
        code, dmc, design = setup_2db
        with pytest.raises(ValueError):
            decode_lut(code, design, np.zeros(17, dtype=int), 10)
        with pytest.raises(ValueError):
            decode_lut(code, design, np.full(code.block_length, 500), 10)
        with pytest.raises(ValueError):
            decode_lut(code, design, np.zeros(code.block_length), 10)  # float bins

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
    min1 = np.take_along_axis(mag, order[:, :, :1], axis=2)
    min2 = np.take_along_axis(mag, order[:, :, 1:2], axis=2)
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


def reference_bp_posteriors(code, dmc, channel_bins, max_iter):
    """Posterior LLRs of the reference float loop after max_iter BP sweeps."""
    llr = binary_llrs(dmc)[np.asarray(channel_bins)[None, :]]
    v2c = np.repeat(llr[:, :, None], code.var_degree, axis=2)
    posterior = llr
    for _ in range(max_iter):
        posterior, c2v = _reference_iteration(code, _reference_bp, llr, v2c)
        v2c = np.clip(posterior[:, :, None] - c2v, -LLR_LIMIT, LLR_LIMIT)
    return posterior[0]


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
    # saturating: beyond LLR_LIMIT, and exactly at it
    llr = np.clip(40.0 * noisy, -2 * LLR_LIMIT, 2 * LLR_LIMIT)
    at_limit = rng.random((batch, n)) < 0.3
    llr[at_limit] = np.copysign(LLR_LIMIT, noisy[at_limit])
    return llr


FLOAT_INPUTS = ("table-128", "table-8", "equal-magnitudes", "zeros", "saturating")


# name: (block length, dv, dc, Eb/N0 dB, bins, message bits, designed iterations)
ORACLE_DESIGNS = {
    "4bit-above": (120, 3, 6, 2.0, 128, 4, 50),   # saturates after 13 iterations
    "4bit-below": (120, 3, 6, 1.0, 64, 4, 12),    # stalls: all 12 designed
    "3bit-above": (120, 3, 6, 2.0, 64, 3, 20),    # saturates after 17 iterations
    "2bit-below": (120, 3, 6, 2.0, 64, 2, 20),
    "3bit-dv2": (120, 2, 4, 1.5, 64, 3, 10),
    "5bit-tiny": (24, 3, 6, 2.0, 64, 5, 3),       # (l << 5) | r needs 10 bits
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


class TestCompiledLutDecoder:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(ORACLE_DESIGNS) + ["3bit-loaded", "4bit-mixed"]),
           batch=st.integers(1, 6), max_iter=st.integers(1, 60),
           sigma=st.floats(0.3, 1.3), seed=st.integers(0, 2**32 - 1))
    @example(name="4bit-above", batch=1, max_iter=50, sigma=0.8, seed=0)
    @example(name="4bit-below", batch=5, max_iter=40, sigma=0.85, seed=1)
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
        code, design = oracle_designs["3bit-above"]
        two_bit = oracle_designs["2bit-below"][1]
        bins = np.zeros((1, code.block_length), dtype=np.int64)
        for bad in (dataclasses.replace(design, message_bits=2),  # channel quantizer
                    dataclasses.replace(design, check_luts=two_bit.check_luts),
                    dataclasses.replace(design, decision_luts=two_bit.decision_luts)):
            with pytest.raises(ValueError, match="message alphabet"):
                decode_lut_batch(code, bad, bins, 5)


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
           seed=st.integers(0, 2**32 - 1))
    @example(degrees=(3, 6), engine="minsum", kind="table-8", batch=6, max_iter=40,
             sigma=0.9, seed=0)
    @example(degrees=(3, 6), engine="minsum", kind="equal-magnitudes", batch=4,
             max_iter=20, sigma=0.8, seed=1)
    @example(degrees=(2, 4), engine="minsum-corrected", kind="zeros", batch=5,
             max_iter=30, sigma=0.7, seed=2)
    @example(degrees=(3, 6), engine="bp", kind="saturating", batch=3, max_iter=25,
             sigma=1.2, seed=3)
    @example(degrees=(3, 6), engine="minsum-corrected", kind="table-128", batch=0,
             max_iter=5, sigma=0.8, seed=4)
    def test_matches_reference_decoder(self, float_codes, degrees, engine, kind, batch,
                                       max_iter, sigma, seed):
        code = float_codes[degrees]
        llr = _oracle_llrs(code, kind, batch, sigma, seed)
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
        mc = llr[:, code.check_adj]  # (batch, m, dc)
        want = REFERENCE_CHECK_UPDATES[engine](mc).transpose(2, 1, 0)
        got = np.empty_like(want)
        _CHECK_UPDATES[engine](np.ascontiguousarray(mc.transpose(2, 1, 0)), got)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

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

    def test_rejects_bad_input(self, float_codes):
        code = float_codes[(3, 6)]
        llr = np.zeros((2, code.block_length))
        with pytest.raises(ValueError, match="unknown engine"):
            decode_llr_batch(code, llr, 5, "offset-minsum")
        for bad in (llr[0], llr[:, :-1], llr[None]):
            with pytest.raises(ValueError, match=r"\(batch, n\)"):
                decode_llr_batch(code, bad, 5, "bp")


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
        for fn in (lambda: decode_min_sum(code, dmc, bins, 50),
                   lambda: decode_min_sum(code, dmc, bins, 50, correction="table"),
                   lambda: decode_bp(code, dmc, bins, 50)):
            bits, iters, conv = fn()
            assert conv and bits.sum() == 0 and iters <= 1

    def test_deterministic_trajectories(self, setup_2db):
        code, dmc, _ = setup_2db
        bins = noisy_frames(code, 2.0, 10, seed=21, disc=dmc.discretization)
        from ibquant.channels import binary_llrs
        llr = binary_llrs(dmc)[bins]
        a = decode_llr_batch(code, llr, 30, "minsum")
        b = decode_llr_batch(code, llr, 30, "minsum")
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_unknown_correction(self, setup_2db):
        code, dmc, _ = setup_2db
        bins = dmc.discretization.bin_of(np.ones(code.block_length))
        with pytest.raises(ValueError):
            decode_min_sum(code, dmc, bins, 10, correction="offset")


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
            bits, _, _ = decode_bp(code, dmc, bins, 10)
            assert np.array_equal(bits, (exact_llr < 0).astype(np.uint8))


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
