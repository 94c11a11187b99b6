import dataclasses
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ibquant import dde, maxlut
from ibquant.channels import DmcSpec, build_bpsk_awgn, build_bpsk_awgn_sigma, build_bsc
from ibquant.dde import design_decoder, load_design, save_design
from ibquant.decoders import decode_lut_batch
from ibquant.ib import Quantizer, dp_optimal_quantizer
from ibquant.info import ConditionalDist, JointXY, Pmf, mutual_information
from ibquant.ldpc import construct_regular_ldpc
from ibquant.maxlut import LutCascade, MessageDist, NodeFunction

from test_maxlut import partner_table, quantized_message


def small_design(ebn0=2.0, bins=64, bits=3, iters=6):
    dmc = build_bpsk_awgn(ebn0, 0.5, bins)
    return design_decoder(dmc, 3, 6, bits, iters)


class TestDesign:
    def test_shapes_and_alphabets(self):
        design = small_design()
        assert design.alphabet_size == 8
        assert design.max_iter <= 6
        assert design.channel_message.alphabet_size == 8
        for chain in design.check_luts:
            assert chain.num_inputs == 5
            assert chain.final.alphabet_size == 8
            for stage in chain.stages:
                assert stage.table.max() < 8
        for chain in design.var_luts:
            assert chain.num_inputs == 3

    def test_near_noiseless_trace(self):
        dmc = build_bpsk_awgn(20.0, 0.5, 64)
        design = design_decoder(dmc, 3, 6, 4, 10)
        assert design.error_prob_trace[min(1, design.max_iter - 1)] < 1e-9

    def test_trace_above_threshold(self):
        dmc = build_bpsk_awgn(2.0, 0.5, 128)
        design = design_decoder(dmc, 3, 6, 4, 50)
        trace = design.error_prob_trace
        assert np.all(np.diff(trace) <= 1e-12)
        assert trace.min() < 1e-6
        assert np.all((trace >= 0) & (trace <= 0.5))

    def test_trace_below_threshold_plateaus(self):
        dmc = build_bpsk_awgn(0.2, 0.5, 128)
        design = design_decoder(dmc, 3, 6, 4, 50)
        assert design.max_iter == 50
        assert design.error_prob_trace[-1] > 1e-3

    @pytest.mark.parametrize("ebn0", [np.nan, -4000.0, 4000.0])
    def test_rejects_eb_n0_without_a_positive_finite_noise_std(self, ebn0):
        with pytest.raises(ValueError, match="Eb/N0 of"):
            build_bpsk_awgn(ebn0, 0.5, 128)

    def test_message_information_grows_with_iterations(self):
        design = small_design(ebn0=1.5, iters=5)
        infos = [mutual_information(JointXY(0.5 * chain.final.rows))
                 for chain in design.var_luts]
        for a, b in zip(infos, infos[1:]):
            assert b >= a - 1e-9

    def test_rejects_non_binary_channel(self):
        from ibquant.channels import build_ask_awgn
        dmc = build_ask_awgn(4, 1.0, 32)
        with pytest.raises(ValueError):
            design_decoder(dmc, 3, 6, 4, 5)

    @pytest.mark.parametrize("bits", [0, 8, 9, 17])
    def test_rejects_message_bits_outside_a_byte(self, bits, monkeypatch):
        # the check must come before the channel quantizer: an 8-bit check table's
        # DP alone needs 4.3 GB per array
        def no_dp(*args, **kwargs):
            raise AssertionError("design_decoder reached the channel quantizer")

        monkeypatch.setattr(maxlut, "build_max_lut", no_dp)
        dmc = build_bpsk_awgn(2.0, 0.5, 16)
        with pytest.raises(ValueError, match="message_bits must be 1 to 7"):
            design_decoder(dmc, 3, 6, bits, 5)

    def test_decision_bits_split_alphabet(self):
        design = small_design()
        rule = design.decision_luts[0]
        k = design.alphabet_size
        assert np.array_equal(rule.bit_map, (np.arange(k) >= k // 2).astype(int))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        design = small_design(iters=3)
        path = tmp_path / "design.txt"
        save_design(design, path, comment="unit test")
        loaded = load_design(path)
        assert loaded.message_bits == design.message_bits
        assert loaded.max_iter == design.max_iter
        assert np.array_equal(loaded.channel_lut.labels, design.channel_lut.labels)
        assert np.allclose(loaded.error_prob_trace, design.error_prob_trace, atol=1e-15)
        for a, b in zip(loaded.check_luts, design.check_luts):
            assert a.schedule == b.schedule
            for sa, sb in zip(a.stages, b.stages):
                assert np.array_equal(sa.table, sb.table)
            assert a.plan == b.plan
        for a, b in zip(loaded.decision_luts, design.decision_luts):
            assert np.array_equal(a.bit_map, b.bit_map)
        assert np.allclose(loaded.dmc.transition.rows, design.dmc.transition.rows,
                           atol=0)

    @settings(max_examples=15, deadline=None)
    @given(ebn0=st.sampled_from([0.5, 1.5, 2.5]), bins=st.sampled_from([16, 32, 64]),
           bits=st.integers(1, 4), iters=st.integers(1, 4),
           degrees=st.sampled_from([(3, 6), (2, 4)]),
           comment=st.one_of(st.none(), st.text(st.characters(min_codepoint=32,
                                                              max_codepoint=126))))
    def test_round_trip_property(self, ebn0, bins, bits, iters, degrees, comment):
        # the text holds every table, map and float exactly, so saving the
        # loaded design writes the same lines again
        design = design_decoder(build_bpsk_awgn(ebn0, 0.5, bins), *degrees, bits, iters)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.txt"), Path(tmp, "b.txt")
            save_design(design, first, comment=comment)
            loaded = load_design(first)
            save_design(loaded, second, comment=comment)
            assert second.read_bytes() == first.read_bytes()
        assert (loaded.message_bits, loaded.max_iter, loaded.var_degree,
                loaded.check_degree) == (bits, design.max_iter, *degrees)
        assert np.array_equal(loaded.channel_lut.labels, design.channel_lut.labels)
        assert (loaded.channel_message.rows.tobytes()
                == design.channel_message.rows.tobytes())
        assert loaded.error_prob_trace.tobytes() == design.error_prob_trace.tobytes()
        assert loaded.dmc.transition.rows.tobytes() == design.dmc.transition.rows.tobytes()
        for got, want in zip(loaded.check_luts + loaded.var_luts,
                             design.check_luts + design.var_luts):
            assert (got.node, got.schedule, got.num_inputs) == (
                want.node, want.schedule, want.num_inputs)
            assert got.plan == want.plan
            for a, b in zip(got.stages, want.stages, strict=True):
                assert np.array_equal(a.table, b.table)
                assert a.out_cond.rows.tobytes() == b.out_cond.rows.tobytes()
        for got, want in zip(loaded.decision_luts, design.decision_luts, strict=True):
            assert np.array_equal(got.bit_map, want.bit_map)
            assert len(got.cascade.stages) == len(want.cascade.stages)

    def test_indented_comment_line(self, tmp_path):
        design = small_design(iters=2)
        path = tmp_path / "design.txt"
        save_design(design, path, comment="unit test")
        lines = path.read_text().splitlines()
        lines.insert(3, "   # an indented note")
        path.write_text("\n".join(lines) + "\n")
        loaded = load_design(path)
        second = tmp_path / "again.txt"
        save_design(loaded, second, comment="unit test")
        assert second.read_text().splitlines() == lines[:3] + lines[4:]

    def test_header_line(self, tmp_path):
        design = small_design(bits=4, iters=2)
        path = tmp_path / "design.txt"
        save_design(design, path)
        first = [l for l in path.read_text().splitlines() if not l.startswith("#")][0]
        assert first == f"design 4 {design.max_iter} 3 6"

    def test_loaded_design_decodes_identically(self, tmp_path):
        from ibquant.channels import ebn0_db_to_noise_std

        design = small_design(ebn0=1.5, bins=64, bits=4, iters=8)
        path = tmp_path / "design.txt"
        save_design(design, path)
        loaded = load_design(path)

        code = construct_regular_ldpc(120, 3, 6, seed=2)
        sigma = ebn0_db_to_noise_std(1.5, 0.5)
        disc = design.dmc.discretization
        bins = np.stack([
            disc.bin_of(1.0 + sigma * np.random.default_rng(
                np.random.SeedSequence((5, k))).standard_normal(120))
            for k in range(30)])
        a = decode_lut_batch(code, design, bins, 20)
        b = decode_lut_batch(code, loaded, bins, 20)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
        assert np.array_equal(a[2], b[2])


def reference_cascade(f, inputs, out_size, schedule):
    """cascade_node with every stage built by its own build_max_lut call."""
    dists = list(inputs)  # input k is k, stage j's output num_inputs + j
    stages = []
    for left, right in maxlut._cascade_plan(schedule, len(inputs)):
        constant = right < 0  # the constant zero operand
        func = NodeFunction.VARIABLE_EQUAL if constant else f
        rhs = maxlut.MessageDist.constant() if constant else dists[right]
        lut = maxlut.build_max_lut(func, dists[left], rhs, out_size)
        stages.append(lut)
        dists.append(lut.out_cond)
    return LutCascade(f, schedule, len(inputs), tuple(stages))


def dp_route_channel_stage(dmc, levels):
    """The channel quantizer and message of the DP route: dp_optimal_quantizer
    on the channel joint, then the quantized message."""
    quantizer = dp_optimal_quantizer(dmc.joint(), levels).quantizer
    return quantizer, quantized_message(dmc.transition.rows, quantizer)


def reference_design(dmc, dv, dc, message_bits, max_iter):
    """design_decoder's loop with three independent cascades per iteration,
    after the channel stage of the DP route."""
    levels = 2 ** message_bits
    chan_lut, chan_msg = dp_route_channel_stage(dmc, levels)
    chan_msg = dde._floored(chan_msg)
    checks, vars_, decisions, trace = [], [], [], []
    v2c = chan_msg
    for _ in range(max_iter):
        chk = reference_cascade(NodeFunction.CHECK_XOR, [v2c] * (dc - 1), levels,
                                "balanced_tree")
        c2v = dde._floored(chk.final)
        var = reference_cascade(NodeFunction.VARIABLE_EQUAL,
                                [chan_msg] + [c2v] * (dv - 1), levels, "left_fold")
        dec = reference_cascade(NodeFunction.VARIABLE_EQUAL,
                                [chan_msg] + [c2v] * dv, levels, "left_fold")
        bits = dde._decision_bits(dec.final)
        err = dde._decision_error(dec.final, bits)
        if trace and err < dde.SATURATION_FLOOR:
            break
        checks.append(chk)
        vars_.append(var)
        decisions.append(dde.DecisionRule(dec, bits))
        trace.append(err)
        if err < dde.SATURATION_FLOOR:
            break
        v2c = dde._floored(var.final)
    return dde.LdpcEnsembleDesign(chan_lut, chan_msg, tuple(checks), tuple(vars_),
                                  tuple(decisions), message_bits, np.array(trace), dmc,
                                  dv, dc)


class TestSharedTables:
    def count_builds(self, monkeypatch):
        calls = []
        original = maxlut.build_max_lut

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(maxlut, "build_max_lut", counted)
        return calls

    def test_six_builds_per_iteration_at_3_6(self, monkeypatch):
        calls = self.count_builds(monkeypatch)
        design = design_decoder(build_bpsk_awgn(0.2, 0.5, 64), 3, 6, 3, 5)
        assert design.max_iter == 5
        assert len(calls) == 1 + 6 * 5  # the channel stage, then six per iteration

    @pytest.mark.parametrize("dv,dc", [(2, 4), (3, 6), (4, 8)])
    def test_variable_stages_are_decision_prefix(self, dv, dc):
        design = design_decoder(build_bpsk_awgn(1.0, 1 - dv / dc, 64), dv, dc, 3, 4)
        for var, rule in zip(design.var_luts, design.decision_luts):
            shared = rule.cascade.stages[:dv - 1]
            assert len(var.stages) == dv - 1 == len(shared)
            assert all(a is b for a, b in zip(var.stages, shared))

    @pytest.mark.parametrize("dv,dc", [(1, 2), (2, 4), (3, 6), (4, 8)])
    @pytest.mark.parametrize("bits", [2, 4])
    def test_matches_independent_cascades(self, tmp_path, dv, dc, bits):
        dmc = build_bpsk_awgn(1.5, 1 - dv / dc, 48)
        shared, independent = tmp_path / "shared.txt", tmp_path / "independent.txt"
        save_design(design_decoder(dmc, dv, dc, bits, 8), shared)
        save_design(reference_design(dmc, dv, dc, bits, 8), independent)
        assert shared.read_bytes() == independent.read_bytes()


@st.composite
def binary_channels(draw):
    """BPSK/AWGN over a wide range of SNR, bins and clip; BSC; and random
    asymmetric binary-input channels, some with zero-mass outputs."""
    kind = draw(st.sampled_from(["bpsk", "bsc", "random"]))
    if kind == "bpsk":
        return build_bpsk_awgn(draw(st.floats(-4.0, 10.0)), 0.5, draw(st.integers(2, 300)),
                               draw(st.floats(0.0, 5.0)))
    if kind == "bsc":
        return build_bsc(draw(st.floats(0.0, 0.5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_out = draw(st.integers(2, 40))
    rows = rng.uniform(size=(2, num_out))
    rows[:, rng.uniform(size=num_out) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    rows[:, 0] += 1e-3  # no all-zero row
    return DmcSpec(np.array([1.0, -1.0]),
                   ConditionalDist(rows / rows.sum(axis=1, keepdims=True)), Pmf.uniform(2))


class TestChannelStage:
    """The channel quantizer is a build_max_lut requantization stage with the
    bits of the DP route."""

    @settings(max_examples=120, deadline=None)
    @given(dmc=binary_channels(), bits=st.integers(1, 8))
    @example(dmc=build_bsc(5e-324), bits=1)
    @example(dmc=build_bsc(1e-310), bits=2)
    def test_stage_matches_dp_route(self, dmc, bits):
        levels = 2 ** bits
        lut = maxlut.build_max_lut(NodeFunction.VARIABLE_EQUAL, MessageDist(dmc.transition),
                                   MessageDist.constant(), levels)
        quantizer, msg = dp_route_channel_stage(dmc, levels)
        assert np.array_equal(lut.table[:, 0], quantizer.labels)
        # build_max_lut works on the joint 0.5 p(v|x) and doubles it back, which
        # rounds subnormal levels (a BSC with eps = 5e-324, say); every other
        # level keeps its bits
        tiny = np.finfo(float).tiny
        exact = (msg.rows == 0) | (msg.rows >= tiny)
        assert np.array_equal(lut.out_cond.rows[exact], msg.rows[exact])
        assert np.all(lut.out_cond.rows[~exact] < tiny)
        assert dde._floored(lut.out_cond).rows.tobytes() == dde._floored(msg).rows.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(dmc=binary_channels(), bits=st.integers(1, 4))
    def test_design_matches_dp_route(self, dmc, bits):
        design = design_decoder(dmc, 1, 2, bits, 1)
        quantizer, msg = dp_route_channel_stage(dmc, 2 ** bits)
        assert np.array_equal(design.channel_lut.labels, quantizer.labels)
        assert design.channel_message.rows.tobytes() == dde._floored(msg).rows.tobytes()


class TestDesignRoundTrip:
    """A design on any binary channel saves, loads and decodes as it was: each
    chain's schedule alone fixes the operands of its stages."""

    @settings(max_examples=30, deadline=None)
    @given(dmc=binary_channels(), bits=st.integers(1, 4),
           degrees=st.sampled_from([(3, 6), (4, 8)]), iters=st.integers(1, 6),
           seed=st.integers(0, 2**16))
    def test_save_load_save_and_decode(self, dmc, bits, degrees, iters, seed):
        design = design_decoder(dmc, *degrees, bits, iters)
        if design.dmc.discretization is None:  # the file names an AWGN channel
            design = dataclasses.replace(
                design, dmc=build_bpsk_awgn_sigma(1.0, dmc.num_outputs))
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.txt"), Path(tmp, "b.txt")
            save_design(design, first)
            loaded = load_design(first)
            save_design(loaded, second)
            assert second.read_bytes() == first.read_bytes()
        code = construct_regular_ldpc(48, *degrees, seed=1)
        bins = np.random.default_rng(seed).choice(dmc.num_outputs, size=(50, 48),
                                                  p=dmc.transition.rows[0])
        want = decode_lut_batch(code, design, bins, 2 * design.max_iter)
        got = decode_lut_batch(code, loaded, bins, 2 * design.max_iter)
        for a, b in zip(got, want, strict=True):  # bits, iterations, converged
            assert np.array_equal(a, b)


class TestMirrorSymmetry:
    @pytest.mark.parametrize("ebn0", [0.2, 1.0])
    def test_every_stage_is_mirrored(self, ebn0):
        # below the 4-bit threshold DE never saturates: 50 iterations of tables
        design = design_decoder(build_bpsk_awgn(ebn0, 0.5, 128), 3, 6, 4, 50)
        assert design.max_iter == 50
        assert design.channel_message.mirrored
        levels = design.alphabet_size
        for t in range(design.max_iter):
            chains = (design.check_luts[t], design.var_luts[t],
                      design.decision_luts[t].cascade)
            for cascade in chains:
                for stage in cascade.stages:
                    table = stage.table
                    assert stage.out_cond.mirrored
                    assert np.array_equal(partner_table(cascade.node, table),
                                          levels - 1 - table)


class TestTruncatedDesignFile:
    def test_every_cut_names_file_and_section(self, tmp_path):
        path = tmp_path / "design.txt"
        save_design(small_design(bits=2, iters=2), path, comment="cut test")
        data = path.read_bytes()
        last_line = data.rstrip(b"\n").rfind(b"\n") + 1
        cut = tmp_path / "cut.txt"
        for size in range(0, last_line, 11):
            cut.write_bytes(data[:size])
            with pytest.raises(ValueError, match="design file .*cut.txt") as exc:
                load_design(cut)
            assert "header" in str(exc.value) or "channel" in str(exc.value) \
                or "iteration" in str(exc.value)

    def test_cut_inside_an_iteration(self, tmp_path):
        path = tmp_path / "design.txt"
        save_design(small_design(bits=3, iters=3), path)
        lines = path.read_text().splitlines(keepends=True)
        marker = lines.index("iteration 1\n")
        path.write_text("".join(lines[:marker + 3]))
        with pytest.raises(ValueError, match="iteration 1 check chain"):
            load_design(path)


DESIGN_TAGS = ("channel", "channel_lut", "check_chain", "var_chain", "decision_chain",
               "decision_map", "trace")


def renamed_tag_lines(lines, tag):
    """The lines with the first one tagged ``tag`` tagged as the next of DESIGN_TAGS."""
    at = next(i for i, line in enumerate(lines) if line.split()[0] == tag)
    renamed = DESIGN_TAGS[(DESIGN_TAGS.index(tag) + 1) % len(DESIGN_TAGS)]
    return lines[:at] + [renamed + lines[at][len(tag):]] + lines[at + 1:]


class TestDesignFileLines:
    """Every line of a design file is read under its own tag, and the trace
    holds probabilities."""

    @pytest.fixture(scope="class")
    def lines(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("design") / "design.txt"
        save_design(small_design(bits=2, iters=2), path)
        return path.read_text().splitlines()

    @pytest.mark.parametrize("tag", DESIGN_TAGS)
    def test_a_renamed_tag_names_the_file(self, tmp_path, lines, tag):
        path = tmp_path / "renamed.txt"
        path.write_text("\n".join(renamed_tag_lines(lines, tag)) + "\n")
        with pytest.raises(ValueError, match=f"design file .*renamed.txt: .*"
                                             f"expected a {tag} line"):
            load_design(path)

    @pytest.mark.parametrize("old, new, message", [
        ("check_chain balanced_tree 5 4", "check_chain ring 5 4",
         "iteration 0 check chain: unknown schedule 'ring'"),
        ("var_chain left_fold 3 2", "var_chain left_fold 3 1",
         "iteration 0 variable chain: a left_fold chain over 3 inputs has 2 stages, not 1")])
    def test_a_chain_off_its_schedule_names_the_file(self, tmp_path, lines, old, new,
                                                     message):
        at = lines.index(old)
        path = tmp_path / "chain.txt"
        path.write_text("\n".join(lines[:at] + [new] + lines[at + 1:]) + "\n")
        with pytest.raises(ValueError, match=f"design file .*chain.txt: malformed {message}"):
            load_design(path)

    @pytest.mark.parametrize("value", ["nan", "-0.5", "7", "inf"])
    def test_a_trace_entry_outside_the_unit_interval_names_the_file(self, tmp_path, lines,
                                                                     value):
        at = next(i for i, line in enumerate(lines) if line.startswith("trace "))
        path = tmp_path / "trace.txt"
        path.write_text("\n".join(lines[:at] + [f"trace {value}"] + lines[at + 1:]) + "\n")
        with pytest.raises(ValueError, match=r"design file .*trace.txt: .*in \[0, 1\]"):
            load_design(path)


    @pytest.mark.parametrize("noise_std, clip, message", [
        ("nan", "3", "noise_std must be positive and finite, got nan"),
        ("inf", "3", "noise_std must be positive and finite, got inf"),
        ("0.5", "nan", "clip_multiplier must be >= 0 and finite, got nan")])
    def test_a_non_finite_channel_line_names_the_file(self, tmp_path, lines, noise_std, clip,
                                                      message):
        at = next(i for i, line in enumerate(lines) if line.startswith("channel "))
        bins = lines[at].split()[3]
        path = tmp_path / "channel.txt"
        path.write_text("\n".join(lines[:at] + [f"channel {noise_std} {clip} {bins}"]
                                  + lines[at + 1:]) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"design file .*channel.txt: .*{message}"):
                load_design(path)


class TestDesignParts:
    """A design whose parts do not fit together is rejected when it is made."""

    @pytest.fixture(scope="class")
    def design(self):
        return small_design(bits=2, iters=2)

    @pytest.mark.parametrize("change,message", [
        (lambda d: {"error_prob_trace": d.error_prob_trace[:1]}, "per iteration"),
        (lambda d: {"check_luts": (), "var_luts": (), "decision_luts": (),
                    "error_prob_trace": []}, "at least one iteration"),
        (lambda d: {"message_bits": 3}, "to 4 levels .*, not .* to the 8 of the message alphabet"),
        (lambda d: {"channel_message": MessageDist.constant()}, "with a message of 1,"),
        (lambda d: {"channel_lut": Quantizer.from_labels(d.channel_lut.labels[:-1], 4)},
         "maps 63 inputs .* channel's 64 outputs"),
        (lambda d: {"check_degree": 7}, "iteration 0 check chain must combine 6 messages"),
        (lambda d: {"var_degree": 4}, "iteration 0 variable chain must combine 4 messages"),
        (lambda d: {"check_luts": small_design(bits=3, iters=2).check_luts},
         "iteration 0 check chain must combine 5 messages of the 4-level"),
        (lambda d: {"decision_luts": (d.decision_luts[0], dde.DecisionRule(
            d.decision_luts[1].cascade, [0, 0, 1, 2]))}, "iteration 1 decision map"),
        (lambda d: {"decision_luts": (dde.DecisionRule(
            d.decision_luts[0].cascade, [0, 1, 1]), d.decision_luts[1])},
         "iteration 0 decision map"),
    ] + [(lambda d, value=value: {"error_prob_trace": np.r_[d.error_prob_trace[:-1], value]},
          r"error probabilities in \[0, 1\]") for value in (np.nan, -0.5, 7.0, np.inf)])
    def test_parts_that_do_not_fit(self, design, change, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(design, **change(design))
