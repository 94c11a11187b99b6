import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibquant.channels import build_bpsk_awgn
from ibquant.ib import Quantizer, dp_optimal_quantizer
from ibquant.info import (NORM_SKIP, ConditionalDist, JointXY, mutual_information,
                          push_through_quantizer)
from ibquant.maxlut import (
    LutCascade,
    MessageDist,
    NodeFunction,
    NodeLut,
    _node_joint,
    _partner,
    build_max_lut,
    cascade_node,
    load_node_lut,
    save_node_lut,
)

from test_ib import (batch_relevant_info, enumerate_assignments, float_bits,
                     reference_general_labels, square_symmetric_dp_labels)


def bsc_message(eps):
    return MessageDist(ConditionalDist(np.array([[1 - eps, eps], [eps, 1 - eps]])))


NOISELESS = MessageDist(ConditionalDist(np.eye(2)))


def node_joint(f, a, b):
    """p((l, z) | x3) of the node as build_max_lut forms it, validated."""
    return ConditionalDist(_node_joint(f, a, b, _partner(f, a, b)))


def hard_decision_error(msg):
    """Error rate of the bitwise MAP decision under equiprobable symbols."""
    return float(np.sum(np.minimum(msg.rows[0], msg.rows[1])) / 2)


def random_message(rng, size):
    raw = rng.uniform(size=(2, size))
    return MessageDist(ConditionalDist(raw / raw.sum(axis=1, keepdims=True)))


def quantized_bpsk_message(ebn0_db, levels, num_bins=64):
    dmc = build_bpsk_awgn(ebn0_db, 0.5, num_bins)
    design = dp_optimal_quantizer(dmc.joint(), levels)
    pushed = design.quantizer.mapping.rows
    rows = dmc.transition.rows @ pushed
    return MessageDist(ConditionalDist(rows))


def quantized_message(transition_rows, quantizer):
    """Message statistics p(v|x) after pushing a binary-input channel through a
    quantizer; ``MessageDist.mirror`` builds it when both are exactly
    mirror-symmetric.  The channel stage's route before it became a
    ``build_max_lut`` table, kept as its oracle."""
    rows = transition_rows @ quantizer.mapping.rows
    labels = quantizer.labels
    if (np.array_equal(transition_rows[1], transition_rows[0][::-1])
            and np.array_equal(labels[::-1], quantizer.num_clusters - 1 - labels)):
        return MessageDist.mirror(rows[0])
    return MessageDist(ConditionalDist(rows))


@st.composite
def mirrored_messages(draw, sizes):
    """MessageDist.mirror of a random row; integer weights give tied levels."""
    size = draw(sizes)
    weight = st.integers(0, 3) if draw(st.booleans()) else st.floats(1e-9, 1.0)
    raw = np.array(draw(st.lists(weight, min_size=size, max_size=size)), dtype=float)
    if raw.sum() == 0:
        raw[0] = 1.0
    return MessageDist.mirror(raw / raw.sum())


@st.composite
def asymmetric_messages(draw, sizes):
    """A random message whose rows are not each other's reversal."""
    size = draw(sizes)
    raw = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(size=(2, size))
    return MessageDist(ConditionalDist(raw / raw.sum(axis=1, keepdims=True)))


def square_build_max_lut(f, a, b, out_size):
    """build_max_lut through the full-square symmetric DP on the typed partner,
    or the reference general DP, a validated one-hot Quantizer and
    push_through_quantizer, with the table read back by argmax: the route
    before the DP labels were kept, kept as its oracle.  Returns the NodeLut
    and the mutual information of the pushed joint."""
    joint = JointXY(0.5 * node_joint(f, a, b).rows)
    partner = _partner(f, a, b)
    mirrored = partner is not None and out_size % 2 == 0 and a.alphabet_size % 2 == 0
    if mirrored:
        labels, _ = square_symmetric_dp_labels(joint.matrix, out_size, partner)
    else:
        labels = reference_general_labels(joint, out_size)
    quantizer = Quantizer.from_labels(labels, out_size)
    pushed = push_through_quantizer(joint, quantizer)
    rows = 2.0 * pushed.matrix
    out_cond = MessageDist.mirror(rows[0]) if mirrored else MessageDist(ConditionalDist(rows))
    table = quantizer.labels.reshape(a.alphabet_size, b.alphabet_size)
    return NodeLut(table, out_cond), mutual_information(pushed)


def partner_table(f, table):
    """The table at each outcome's mirror image: node_joint's column partner."""
    return table[::-1, ::-1] if f is NodeFunction.VARIABLE_EQUAL else table[::-1, :]


def brute_force_node_joint(f, a, b):
    """Enumerate the code-symbol pairs explicitly, independent of the library path."""
    nl, nz = a.alphabet_size, b.alphabet_size
    rows = np.zeros((2, nl * nz))
    for x3 in (0, 1):
        for x1, x2 in itertools.product((0, 1), repeat=2):
            if f is NodeFunction.CHECK_XOR:
                if x1 ^ x2 != x3:
                    continue
                weight = 0.5
            else:
                if not (x1 == x2 == x3):
                    continue
                weight = 1.0
            for l in range(nl):
                for z in range(nz):
                    rows[x3, l * nz + z] += weight * a.rows[x1][l] * b.rows[x2][z]
    return rows


class TestNodeJoint:
    def test_variable_noiseless_point_mass(self):
        a = NOISELESS
        joint = node_joint(NodeFunction.VARIABLE_EQUAL, a, a)
        # outcome (x, x) in row-major indexing is 2x + x
        assert joint.rows[0, 0] == 1.0
        assert joint.rows[1, 3] == 1.0

    def test_check_xor_error_accumulation(self):
        for e1, e2 in [(0.1, 0.2), (0.05, 0.3), (0.25, 0.25)]:
            joint = node_joint(NodeFunction.CHECK_XOR, bsc_message(e1), bsc_message(e2))
            out = MessageDist(joint)
            expected = e1 + e2 - 2 * e1 * e2
            assert hard_decision_error(out) == pytest.approx(expected, abs=1e-12)

    def test_check_with_perfect_input_reduces_to_other(self):
        other = bsc_message(0.2)
        joint = node_joint(NodeFunction.CHECK_XOR, NOISELESS, other)
        info = mutual_information(JointXY(0.5 * joint.rows))
        ref = mutual_information(JointXY(0.5 * other.rows))
        assert info == pytest.approx(ref, abs=1e-12)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(0)
        for f in NodeFunction:
            for _ in range(10):
                a = random_message(rng, int(rng.integers(2, 5)))
                b = random_message(rng, int(rng.integers(2, 5)))
                got = node_joint(f, a, b)
                want = brute_force_node_joint(f, a, b)
                assert np.allclose(got.rows, want, atol=1e-12)

    def test_rows_normalized(self):
        rng = np.random.default_rng(1)
        a = random_message(rng, 4)
        b = random_message(rng, 3)
        joint = node_joint(NodeFunction.CHECK_XOR, a, b)
        assert np.allclose(joint.rows.sum(axis=1), 1.0, atol=1e-12)


class TestBuildMaxLut:
    def test_full_size_is_lossless(self):
        rng = np.random.default_rng(2)
        a = random_message(rng, 3)
        b = random_message(rng, 2)
        lut = build_max_lut(NodeFunction.CHECK_XOR, a, b, 6)
        joint = node_joint(NodeFunction.CHECK_XOR, a, b)
        assert lut.relevant_info == pytest.approx(
            mutual_information(JointXY(0.5 * joint.rows)), abs=1e-12)

    def test_single_output_is_useless(self):
        rng = np.random.default_rng(3)
        a = random_message(rng, 3)
        b = random_message(rng, 3)
        lut = build_max_lut(NodeFunction.VARIABLE_EQUAL, a, b, 1)
        assert lut.relevant_info == pytest.approx(0.0, abs=1e-12)
        assert np.all(lut.table == 0)

    def test_matches_exhaustive_partition_search(self):
        rng = np.random.default_rng(4)
        for trial in range(50):
            f = NodeFunction.CHECK_XOR if trial % 2 else NodeFunction.VARIABLE_EQUAL
            a = random_message(rng, 2)
            b = random_message(rng, int(rng.choice([2, 4])))
            out_size = int(rng.choice([2, 3]))
            lut = build_max_lut(f, a, b, out_size)
            joint = JointXY(0.5 * node_joint(f, a, b).rows)
            assignments = enumerate_assignments(joint.num_y, out_size)
            best = float(batch_relevant_info(joint, assignments, out_size).max())
            assert lut.relevant_info == pytest.approx(best, abs=1e-12)

    def test_out_cond_consistent_with_table(self):
        rng = np.random.default_rng(5)
        a = random_message(rng, 4)
        b = random_message(rng, 4)
        lut = build_max_lut(NodeFunction.VARIABLE_EQUAL, a, b, 4)
        joint = node_joint(NodeFunction.VARIABLE_EQUAL, a, b)
        flat = lut.table.ravel()
        expected = np.zeros((2, 4))
        for x in (0, 1):
            for outcome, v in enumerate(flat):
                expected[x, v] += joint.rows[x, outcome]
        assert np.allclose(lut.out_cond.rows, expected, atol=1e-9)

    def test_labels_ordered_by_llr(self):
        msg = quantized_bpsk_message(2.0, 4)
        lut = build_max_lut(NodeFunction.VARIABLE_EQUAL, msg, msg, 4)
        rows = lut.out_cond.rows
        with np.errstate(divide="ignore"):
            llr = np.log(rows[0]) - np.log(rows[1])
        assert np.all(np.diff(llr) <= 1e-12)

    def test_symmetric_inputs_give_symmetric_output(self):
        msg = quantized_bpsk_message(2.0, 4)
        lut = build_max_lut(NodeFunction.CHECK_XOR, msg, msg, 4)
        assert np.allclose(lut.out_cond.rows[0], lut.out_cond.rows[1][::-1], atol=1e-12)
        lut = build_max_lut(NodeFunction.VARIABLE_EQUAL, msg, msg, 4)
        assert np.allclose(lut.out_cond.rows[0], lut.out_cond.rows[1][::-1], atol=1e-12)

    def test_swap_invariance_of_information(self):
        rng = np.random.default_rng(6)
        a = random_message(rng, 3)
        b = random_message(rng, 4)
        ab = build_max_lut(NodeFunction.CHECK_XOR, a, b, 3)
        ba = build_max_lut(NodeFunction.CHECK_XOR, b, a, 3)
        assert ab.relevant_info == pytest.approx(ba.relevant_info, abs=1e-10)

    def test_monotone_in_output_size(self):
        msg = quantized_bpsk_message(2.0, 16, num_bins=128)
        prev = -1.0
        for v in (2, 4, 8, 16):
            lut = build_max_lut(NodeFunction.CHECK_XOR, msg, msg, v)
            assert lut.relevant_info >= prev - 1e-12
            prev = lut.relevant_info

    def test_quantization_never_creates_information(self):
        rng = np.random.default_rng(7)
        a = random_message(rng, 4)
        b = random_message(rng, 4)
        joint = JointXY(0.5 * node_joint(NodeFunction.CHECK_XOR, a, b).rows)
        upstream = mutual_information(joint)
        for v in (2, 4, 8):
            lut = build_max_lut(NodeFunction.CHECK_XOR, a, b, v)
            assert lut.relevant_info <= upstream + 1e-9

    def test_16_level_operating_point_loss(self):
        # per-node loss at the 16/16/16 operating point stays under 0.01 bits
        for ebn0 in (1.0, 2.0, 3.0):
            msg = quantized_bpsk_message(ebn0, 16, num_bins=128)
            for f in NodeFunction:
                joint = JointXY(0.5 * node_joint(f, msg, msg).rows)
                lut = build_max_lut(f, msg, msg, 16)
                loss = mutual_information(joint) - lut.relevant_info
                assert 0.0 <= loss + 1e-12
                assert loss < 0.01


class TestMirrored:
    def test_derived_from_the_rows(self):
        assert bsc_message(0.1).mirrored
        assert MessageDist.constant().mirrored
        rng = np.random.default_rng(10)
        assert not random_message(rng, 4).mirrored

    @pytest.mark.parametrize("row0", [[[0.5, 0.5]], [], [0.5, np.nan], [1.5, -0.5], [0.5, 0.6]])
    def test_mirror_rejects_what_is_not_a_distribution(self, row0):
        with pytest.raises(ValueError):
            MessageDist.mirror(row0)

    @settings(max_examples=200, deadline=None)
    @given(size=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           side=st.sampled_from([-1.0, 1.0]), ulps=st.integers(-40, 40))
    def test_mirror_keeps_rows_near_the_skip_band_exact(self, size, seed, side, ulps):
        # a total this close to 1 +- NORM_SKIP can fall inside the band in one
        # summation order and outside it in the reversed one; row 1 must not
        # then be renormalized on its own
        raw = np.random.default_rng(seed).uniform(size=size)
        row = raw / raw.sum() * (1.0 + side * NORM_SKIP + ulps * 2.0 ** -52)
        msg = MessageDist.mirror(row)
        assert msg.mirrored
        assert np.array_equal(msg.rows[1], msg.rows[0][::-1])
        assert (np.array_equal(msg.rows[0], row)
                or np.array_equal(msg.rows[0], row / row.sum()))
        assert np.all(np.abs(msg.rows.sum(axis=1) - 1.0) <= NORM_SKIP)

    @settings(max_examples=300, deadline=None)
    @given(a=mirrored_messages(st.sampled_from([2, 4, 6])),
           b=mirrored_messages(st.integers(1, 5)), same=st.booleans(),
           f=st.sampled_from(list(NodeFunction)), half=st.integers(1, 4))
    def test_mirrored_inputs_give_a_mirrored_table(self, a, b, same, f, half):
        b = a if same else b
        out = 2 * half
        lut = build_max_lut(f, a, b, out)
        assert lut.out_cond.mirrored
        assert np.array_equal(partner_table(f, lut.table), out - 1 - lut.table)
        joint = node_joint(f, a, b)
        flat = np.arange(joint.alphabet_size).reshape(lut.table.shape)
        assert np.array_equal(joint.rows[1], joint.rows[0][partner_table(f, flat).ravel()])
        # the mirror-symmetric optimum on the typed pairs, which tables may
        # reach differently only where columns tie, and never above the
        # optimum over all quantizers
        pushed = JointXY(0.5 * joint.rows)
        labels, _ = square_symmetric_dp_labels(pushed.matrix, out, _partner(f, a, b))
        symmetric = mutual_information(push_through_quantizer(
            pushed, Quantizer.from_labels(labels, out)))
        assert lut.relevant_info == pytest.approx(symmetric, abs=1e-12)
        general = mutual_information(push_through_quantizer(
            pushed, Quantizer.from_labels(reference_general_labels(pushed, out), out)))
        assert lut.relevant_info <= general + 1e-12

    def test_odd_output_size_takes_the_general_path(self):
        msg = quantized_bpsk_message(2.0, 4)
        lut = build_max_lut(NodeFunction.CHECK_XOR, msg, msg, 3)
        joint = JointXY(0.5 * node_joint(NodeFunction.CHECK_XOR, msg, msg).rows)
        general = dp_optimal_quantizer(joint, 3)
        assert np.array_equal(lut.table.ravel(), general.quantizer.labels)

    @settings(max_examples=200, deadline=None)
    @given(msg=st.one_of(mirrored_messages(st.integers(1, 64)),
                         asymmetric_messages(st.integers(1, 64))),
           n=st.integers(1, 16))
    def test_one_route_rule_for_both_callers(self, msg, n):
        # a requantization stage is the DP quantizer of the message's joint:
        # the type and the matrix must pick the same DP
        joint = JointXY(0.5 * msg.rows)
        lut = build_max_lut(NodeFunction.VARIABLE_EQUAL, msg, MessageDist.constant(), n)
        assert np.array_equal(lut.table[:, 0], dp_optimal_quantizer(joint, n).quantizer.labels)


def assert_same_lut(got, oracle):
    want, pushed_info = oracle
    assert np.array_equal(got.table, want.table)
    assert got.out_cond.rows.tobytes() == want.out_cond.rows.tobytes()
    assert float_bits(got.relevant_info) == float_bits(want.relevant_info)
    assert abs(got.relevant_info - pushed_info) <= 1e-15


class TestBuildMaxLutMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(a=st.one_of(mirrored_messages(st.integers(1, 8)),
                       asymmetric_messages(st.integers(1, 8))),
           b=st.one_of(mirrored_messages(st.integers(1, 8)),
                       asymmetric_messages(st.integers(1, 8))),
           same=st.booleans(), f=st.sampled_from(list(NodeFunction)),
           out_size=st.integers(1, 12))
    def test_same_table_rows_and_information(self, a, b, same, f, out_size):
        b = a if same else b
        assert_same_lut(build_max_lut(f, a, b, out_size),
                        square_build_max_lut(f, a, b, out_size))

    def test_operating_point_tables(self):
        msg = quantized_bpsk_message(0.2, 16, num_bins=128)
        for f in NodeFunction:
            for out_size in (15, 16):
                assert_same_lut(build_max_lut(f, msg, msg, out_size),
                                square_build_max_lut(f, msg, msg, out_size))

class TestCascade:
    def test_single_input_requantization(self):
        msg = quantized_bpsk_message(2.0, 8)
        cascade = cascade_node(NodeFunction.VARIABLE_EQUAL, [msg], 4)
        assert len(cascade.stages) == 1
        assert cascade.final.alphabet_size == 4
        # requantizing an 8-level message to 8 levels keeps all information
        identity = cascade_node(NodeFunction.VARIABLE_EQUAL, [msg], 8)
        assert mutual_information(JointXY(0.5 * identity.final.rows)) == pytest.approx(
            mutual_information(JointXY(0.5 * msg.rows)), abs=1e-12)

    def test_five_input_xor_error_closed_form(self):
        eps = 0.1
        inputs = [bsc_message(eps)] * 5
        for schedule in ("left_fold", "balanced_tree"):
            cascade = cascade_node(NodeFunction.CHECK_XOR, inputs, 2, schedule)
            got = hard_decision_error(cascade.final)
            expected = 0.5 * (1.0 - (1.0 - 2 * eps) ** 5)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_five_input_xor_brute_force(self):
        eps = 0.07
        expected = 0.0
        for flips in itertools.product((0, 1), repeat=5):
            if sum(flips) % 2 == 1:
                expected += np.prod([eps if f else 1 - eps for f in flips])
        cascade = cascade_node(NodeFunction.CHECK_XOR, [bsc_message(eps)] * 5, 2)
        assert hard_decision_error(cascade.final) == pytest.approx(expected, abs=1e-12)

    def test_schedules_agree_closely(self):
        msg = quantized_bpsk_message(2.0, 16, num_bins=128)
        results = {}
        for schedule in ("left_fold", "balanced_tree"):
            cascade = cascade_node(NodeFunction.CHECK_XOR, [msg] * 5, 16, schedule)
            results[schedule] = mutual_information(JointXY(0.5 * cascade.final.rows))
        assert abs(results["left_fold"] - results["balanced_tree"]) <= 0.01

    def test_evaluate_matches_tables(self):
        rng = np.random.default_rng(8)
        inputs = [random_message(rng, 4) for _ in range(3)]
        cascade = cascade_node(NodeFunction.VARIABLE_EQUAL, inputs, 4, "left_fold")
        vals = [rng.integers(0, 4, size=100) for _ in range(3)]
        out = cascade.evaluate(vals)
        step = cascade.stages[0].lut.table[vals[0], vals[1]]
        expected = cascade.stages[1].lut.table[step, vals[2]]
        assert np.array_equal(out, expected)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            cascade_node(NodeFunction.CHECK_XOR, [], 4)

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError):
            cascade_node(NodeFunction.CHECK_XOR, [bsc_message(0.1)] * 2, 4, "ring")


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        a = random_message(rng, 4)
        b = random_message(rng, 4)
        lut = build_max_lut(NodeFunction.CHECK_XOR, a, b, 4)
        path = tmp_path / "node.txt"
        save_node_lut(lut, path, comment="unit test")
        loaded = load_node_lut(path)
        assert np.array_equal(loaded.table, lut.table)
        assert np.allclose(loaded.out_cond.rows, lut.out_cond.rows, atol=1e-14)
        assert loaded.relevant_info == pytest.approx(lut.relevant_info, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
           seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 0.8),
           comment=st.one_of(st.none(), st.text(st.characters(min_codepoint=32,
                                                              max_codepoint=126))))
    def test_round_trip_property(self, shape, seed, zeros, comment):
        nl, nz, nv = shape
        rng = np.random.default_rng(seed)
        raw = rng.uniform(size=(2, nv)) ** 8  # values over many decades
        raw[rng.random((2, nv)) < zeros] = 0.0
        raw[:, 0] += raw.sum(axis=1) == 0
        rows = raw / raw.sum(axis=1, keepdims=True)
        table = rng.integers(0, nv, (nl, nz))
        lut = NodeLut(table, MessageDist(ConditionalDist(rows)))
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.txt"), Path(tmp, "b.txt")
            save_node_lut(lut, first, comment=comment)
            loaded = load_node_lut(first)
            save_node_lut(loaded, second, comment=comment)
            assert second.read_bytes() == first.read_bytes()
        assert np.array_equal(loaded.table, lut.table)
        assert loaded.out_alphabet_size == nv
        assert loaded.out_cond.rows.tobytes() == lut.out_cond.rows.tobytes()
        assert loaded.relevant_info == lut.relevant_info

    def test_every_line_cut_names_the_file(self, tmp_path):
        msg = quantized_bpsk_message(2.0, 4)
        path = tmp_path / "node.txt"
        save_node_lut(build_max_lut(NodeFunction.CHECK_XOR, msg, msg, 4), path,
                      comment="cut test")
        lines = path.read_text().splitlines(keepends=True)
        cut = tmp_path / "cut.txt"
        for keep in range(len(lines)):
            cut.write_text("".join(lines[:keep]))
            with pytest.raises(ValueError, match="lut file .*cut.txt is cut short"):
                load_node_lut(cut)

    def test_header_shape(self, tmp_path):
        msg = quantized_bpsk_message(2.0, 16, num_bins=64)
        lut = build_max_lut(NodeFunction.CHECK_XOR, msg, msg, 16)
        path = tmp_path / "big.txt"
        save_node_lut(lut, path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "lut 16 16 16"
        assert len(lines) == 1 + 16 + 2
