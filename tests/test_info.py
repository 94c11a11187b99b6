import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from ibquant.info import (
    NORM_SKIP,
    SUM_SLACK,
    ConditionalDist,
    JointXY,
    Pmf,
    _xlogx,
    entropy,
    kl_divergence,
    mutual_information,
    push_through_quantizer,
)
from ibquant.ib import Quantizer, design_from_quantizer

from test_ib import (
    avg_kl_distortion,
    float_bits,
    identity_quantizer,
    random_stochastic_quantizer,
    single_cluster_quantizer,
)


def random_joint(rng, nx, ny):
    m = rng.uniform(size=(nx, ny))
    return JointXY(m / m.sum())


def random_quantizer(rng, ny, nz, deterministic):
    if deterministic:
        labels = rng.integers(0, nz, size=ny)
        return Quantizer.from_labels(labels, nz)
    return random_stochastic_quantizer(ny, nz, rng)


@st.composite
def joints_and_quantizers(draw):
    """A joint and a quantizer, hard or stochastic, with exact-zero entries at times."""
    nx = draw(st.integers(2, 5))
    ny = draw(st.integers(1, 10))
    nz = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.uniform(size=(nx, ny))
    if draw(st.booleans()):
        m[rng.uniform(size=m.shape) < 0.3] = 0.0
    if m.sum() == 0:
        m[0, 0] = 1.0
    if draw(st.booleans()):
        return JointXY(m / m.sum()), random_quantizer(rng, ny, nz, deterministic=True)
    rows = rng.uniform(size=(ny, nz))
    if draw(st.booleans()):
        rows[rng.uniform(size=rows.shape) < 0.3] = 0.0
    rows[rows.sum(axis=1) == 0, 0] = 1.0
    return JointXY(m / m.sum()), ConditionalDist(rows / rows.sum(axis=1, keepdims=True))


def mi_by_hand(matrix):
    """Direct double loop over the definition, independent of the library path."""
    px = matrix.sum(axis=1)
    py = matrix.sum(axis=0)
    total = 0.0
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[1]):
            if matrix[i, j] > 0:
                total += matrix[i, j] * np.log2(matrix[i, j] / (px[i] * py[j]))
    return total


class TestPmf:
    def test_normalizes_small_deviation(self):
        p = Pmf(np.array([0.5, 0.5 + 5e-7]))
        assert abs(p.probs.sum() - 1.0) < 1e-15

    def test_rejects_large_deviation(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0.5, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Pmf(np.array([1.1, -0.1]))

    def test_immutable(self):
        p = Pmf.uniform(3)
        with pytest.raises(ValueError):
            p.probs[0] = 0.7


def reference_normalized(arr, per_row):
    """The constructors' rule written out: renormalize a total (per row, or of
    the whole array) that is more than NORM_SKIP from 1, leave the others."""
    arr = np.array(arr, dtype=float)
    if per_row:
        totals = arr.sum(axis=1)
        need = np.abs(totals - 1.0) > NORM_SKIP
        arr[need] = arr[need] / totals[need, None]
        return arr
    total = arr.sum()
    return arr / total if abs(total - 1.0) > NORM_SKIP else arr


DEVIATIONS = [0.0, 1e-13, -1e-13, 9e-13, -9e-13, 2e-12, -2e-12, 1e-9, -4e-7, 9e-7]


class TestNormalization:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 4), cols=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           deviations=st.lists(st.sampled_from(DEVIATIONS), min_size=4, max_size=4))
    def test_same_bits_as_the_rule(self, rows, cols, seed, deviations):
        # rows off 1 by different amounts: only those beyond NORM_SKIP change
        raw = np.random.default_rng(seed).uniform(size=(rows, cols))
        scale = 1.0 + np.array(deviations[:rows])[:, None]
        cond = raw / raw.sum(axis=1, keepdims=True) * scale
        assert (ConditionalDist(cond).rows.tobytes()
                == reference_normalized(cond, True).tobytes())
        joint = raw / raw.sum() * scale[0, 0]
        assert JointXY(joint).matrix.tobytes() == reference_normalized(joint, False).tobytes()
        assert Pmf(cond[0]).probs.tobytes() == reference_normalized(cond[0], False).tobytes()

    def test_error_texts(self):
        pmf, joint = np.array([0.5, 0.6]), np.array([[0.5, 0.5], [0.5, 0.7]])
        cond = np.array([[0.5, 0.5], [0.5, 0.7], [0.2, 0.7]])
        worst = float(np.max(np.abs(cond.sum(axis=1) - 1.0)))
        for make, values, text in (
                (Pmf, pmf, f"pmf sums to {pmf.sum()!r}, outside the {SUM_SLACK} slack"),
                (JointXY, joint, f"joint sums to {joint.sum()!r}, outside the {SUM_SLACK} slack"),
                (ConditionalDist, cond, f"conditional rows deviate from 1 by up to {worst!r}")):
            with pytest.raises(ValueError) as exc:
                make(values)
            assert str(exc.value) == text


class TestEntropy:
    def test_uniform_four_symbols(self):
        assert entropy(Pmf.uniform(4)) == pytest.approx(2.0, abs=1e-12)

    def test_point_mass(self):
        assert entropy(Pmf(np.eye(5)[1])) == 0.0

    def test_dyadic(self):
        assert entropy(Pmf(np.array([0.5, 0.25, 0.25]))) == pytest.approx(1.5, abs=1e-12)

    def test_bounded_by_log_alphabet(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(2, 9))
            raw = rng.uniform(size=k)
            h = entropy(Pmf(raw / raw.sum()))
            assert 0.0 <= h <= np.log2(k) + 1e-12


class TestXlogx:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.floats(0.0, 1.0)), min_size=1, max_size=40))
    @example([0.0, -0.0])
    @example([5e-324, 1e-310, 2.2250738585072014e-308])
    @example([1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)])
    @example([math.nan, -math.nan, -1.0, math.inf, -math.inf])
    def test_bitwise_equal_to_xlogy(self, ps):
        p = np.array(ps)
        got, want = _xlogx(p), xlogy(p, p)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        ok = ~np.isnan(want)
        assert np.array_equal(got[ok].view(np.int64), want[ok].view(np.int64))

    def test_dense_draws_bitwise_equal_to_xlogy(self):
        p = np.random.default_rng(13).uniform(size=(200, 500))
        assert np.array_equal(_xlogx(p).view(np.int64), xlogy(p, p).view(np.int64))


class TestKlDivergence:
    def test_identity_is_zero(self):
        p = Pmf(np.array([0.3, 0.7]))
        assert kl_divergence(p, p) == 0.0

    def test_log2_case(self):
        p = Pmf(np.array([1.0, 0.0]))
        q = Pmf(np.array([0.5, 0.5]))
        assert kl_divergence(p, q) == pytest.approx(1.0, abs=1e-12)

    def test_absolute_continuity_failure(self):
        p = Pmf(np.array([0.5, 0.5]))
        q = Pmf(np.array([1.0, 0.0]))
        assert kl_divergence(p, q) == float("inf")

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(Pmf.uniform(2), Pmf.uniform(3))

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            raw_p = rng.uniform(size=k)
            raw_q = rng.uniform(size=k)
            p = Pmf(raw_p / raw_p.sum())
            q = Pmf(raw_q / raw_q.sum())
            d = kl_divergence(p, q)
            assert d >= 0.0
            if np.abs(p.probs - q.probs).max() > 1e-9:
                assert d > 0.0
            assert kl_divergence(p, p) == 0.0


class TestMutualInformation:
    def test_product_joint_is_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            raw_x = rng.uniform(size=4)
            raw_y = rng.uniform(size=5)
            px = raw_x / raw_x.sum()
            py = raw_y / raw_y.sum()
            assert mutual_information(JointXY(np.outer(px, py))) == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_binary(self):
        j = JointXY(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert mutual_information(j) == pytest.approx(1.0, abs=1e-12)

    def test_bsc_011_against_binary_entropy(self):
        eps = 0.11
        j = JointXY(0.5 * np.array([[1 - eps, eps], [eps, 1 - eps]]))
        h2 = -eps * np.log2(eps) - (1 - eps) * np.log2(1 - eps)
        assert mutual_information(j) == pytest.approx(1.0 - h2, abs=1e-12)
        assert mutual_information(j) == pytest.approx(0.5000, abs=2e-4)

    def test_matches_hand_summation(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 7)))
            assert mutual_information(j) == pytest.approx(mi_by_hand(j.matrix), abs=1e-12)


class TestPushThrough:
    def test_identity_returns_joint_unchanged(self):
        rng = np.random.default_rng(5)
        j = random_joint(rng, 3, 4)
        out = push_through_quantizer(j, identity_quantizer(4))
        assert np.array_equal(out.matrix, j.matrix)

    def test_single_cluster_collapses(self):
        rng = np.random.default_rng(6)
        j = random_joint(rng, 3, 5)
        out = push_through_quantizer(j, single_cluster_quantizer(5))
        assert np.allclose(out.matrix[:, 0], j.x_marginal().probs, atol=1e-15)
        assert mutual_information(out) == pytest.approx(0.0, abs=1e-12)

    def test_matches_hand_summation(self):
        rng = np.random.default_rng(8)
        j = random_joint(rng, 3, 2)
        labels = np.array([1, 0])
        q = Quantizer.from_labels(labels, 2)
        out = push_through_quantizer(j, q)
        expected = np.zeros((3, 2))
        for x in range(3):
            for y in range(2):
                expected[x, labels[y]] += j.matrix[x, y]
        assert np.allclose(out.matrix, expected, atol=1e-15)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(9)
        j = random_joint(rng, 2, 4)
        with pytest.raises(ValueError):
            push_through_quantizer(j, identity_quantizer(5))

    def test_marginal_and_posterior_consistency(self):
        rng = np.random.default_rng(10)
        j = random_joint(rng, 3, 6)
        q = random_quantizer(rng, 6, 3, deterministic=False)
        out = push_through_quantizer(j, q)
        pz = j.y_marginal().probs @ q.mapping.rows
        assert np.allclose(out.y_marginal().probs, pz, atol=1e-12)


class TestAvgKlDistortion:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(12)
        j = random_joint(rng, 4, 5)
        assert avg_kl_distortion(j, identity_quantizer(5)) == pytest.approx(0.0, abs=1e-12)

    def test_single_cluster_equals_mi(self):
        rng = np.random.default_rng(13)
        j = random_joint(rng, 4, 5)
        got = avg_kl_distortion(j, single_cluster_quantizer(5))
        assert got == pytest.approx(mutual_information(j), abs=1e-12)

    def test_equals_mi_difference(self):
        rng = np.random.default_rng(14)
        j = random_joint(rng, 4, 6)
        q = random_quantizer(rng, 6, 3, deterministic=True)
        lhs = avg_kl_distortion(j, q)
        rhs = mutual_information(j) - mutual_information(push_through_quantizer(j, q))
        assert abs(lhs - rhs) < 1e-10


class TestInformationPlane:
    @settings(max_examples=200, deadline=None)
    @given(case=joints_and_quantizers(), beta=st.sampled_from([0.0, 0.5, 400.0, math.inf]))
    def test_design_reads_the_mutual_informations_bit_for_bit(self, case, beta):
        j, q = case
        design = design_from_quantizer(j, q, beta)
        rows = q.mapping.rows if isinstance(q, Quantizer) else q.rows
        compression = mutual_information(JointXY(j.matrix.sum(axis=0)[:, None] * rows))
        relevant = mutual_information(push_through_quantizer(j, q))
        lagrangian = -relevant if math.isinf(beta) else (compression - beta * relevant) / (beta + 1.0)
        got = (design.compression_rate, design.relevant_info, design.objective)
        assert [float_bits(v) for v in got] == [float_bits(v) for v in
                                                (compression, relevant, lagrangian)]

    @settings(max_examples=50, deadline=None)
    @given(case=joints_and_quantizers(), extra=st.sampled_from([-1, 1, 3]))
    def test_wrong_input_size_is_one_error(self, case, extra):
        j, q = case
        rows = q.mapping.rows if isinstance(q, Quantizer) else q.rows
        size = j.num_y + extra
        assume(size >= 1)
        wrong = ConditionalDist(np.resize(rows, (size, rows.shape[1])))
        messages = []
        for call in (push_through_quantizer, design_from_quantizer):
            with pytest.raises(ValueError, match="quantizer input alphabet") as exc:
                call(j, wrong)
            messages.append(str(exc.value))
        assert messages[0] == messages[1] == (
            f"quantizer input alphabet {size} does not match |Y| = {j.num_y}")


class TestInvariants:
    @settings(max_examples=200, deadline=None)
    @given(case=joints_and_quantizers())
    def test_data_processing_inequality(self, case):
        j, q = case
        assert mutual_information(push_through_quantizer(j, q)) <= mutual_information(j) + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(case=joints_and_quantizers())
    def test_distortion_identity_over_random_pairs(self, case):
        j, q = case
        gap = mutual_information(j) - mutual_information(push_through_quantizer(j, q))
        assert abs(avg_kl_distortion(j, q) - gap) < 1e-12

    def test_deterministic_rate_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            j = random_joint(rng, 3, int(rng.integers(2, 9)))
            nz = int(rng.integers(1, 5))
            q = random_quantizer(rng, j.num_y, nz, deterministic=True)
            py = j.y_marginal().probs
            pz = Pmf(py @ q.mapping.rows)
            rate = mutual_information(JointXY(py[:, None] * q.mapping.rows))
            assert abs(rate - entropy(pz)) < 1e-9

    def test_rows_stay_normalized(self):
        rng = np.random.default_rng(24)
        j = random_joint(rng, 3, 5)
        q = random_quantizer(rng, 5, 3, deterministic=False)
        out = push_through_quantizer(j, q)
        assert abs(out.matrix.sum() - 1.0) < 1e-9
