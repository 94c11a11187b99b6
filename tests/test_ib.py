import math

import numpy as np
import pytest
from scipy.special import xlogy

from ibquant.channels import build_ask_awgn, build_bsc
from ibquant.ib import (
    Quantizer,
    agglomerative_ib,
    design_from_quantizer,
    dp_contiguous_partition,
    dp_optimal_quantizer,
    fixed_point_residual,
    ib_curve,
    ib_objective,
    it_ib_update,
    iterative_ib,
    kl_means_ib,
    write_curve_csv,
)
from ibquant.info import JointXY, entropy, mutual_information, push_through_quantizer


def random_joint(rng, nx, ny):
    m = rng.uniform(size=(nx, ny))
    return JointXY(m / m.sum())


def enumerate_assignments(ny, n):
    """All n**ny label vectors, one row each."""
    total = n ** ny
    digits = np.arange(total)
    assign = np.empty((total, ny), dtype=int)
    for pos in range(ny):
        assign[:, pos] = digits % n
        digits //= n
    return assign


def batch_relevant_info(joint, assignments, n):
    """I(x;z) of every hard assignment, by direct summation."""
    total, ny = assignments.shape
    one_hot = np.zeros((total, ny, n))
    one_hot[np.arange(total)[:, None], np.arange(ny)[None, :], assignments] = 1.0
    pxz = np.einsum("xy,tyz->txz", joint.matrix, one_hot)
    px = pxz.sum(axis=2, keepdims=True)
    pz = pxz.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(pxz > 0, pxz / np.where(px * pz > 0, px * pz, 1.0), 1.0)
        terms = xlogy(pxz, ratio)
    return terms.sum(axis=(1, 2)) / np.log(2.0)


def exhaustive_best_relevant_info(joint, n):
    assignments = enumerate_assignments(joint.num_y, n)
    return float(batch_relevant_info(joint, assignments, n).max())


class TestIbObjective:
    def test_single_cluster_is_zero(self):
        rng = np.random.default_rng(0)
        j = random_joint(rng, 2, 5)
        for beta in (0.0, 1.0, 100.0):
            assert ib_objective(j, Quantizer.single_cluster(5), beta) == pytest.approx(0.0, abs=1e-12)

    def test_identity_beta_zero_is_source_entropy(self):
        rng = np.random.default_rng(1)
        j = random_joint(rng, 2, 4)
        got = ib_objective(j, Quantizer.identity(4), 0.0)
        assert got == pytest.approx(entropy(j.y_marginal()), abs=1e-12)

    def test_matches_hand_evaluation(self):
        rng = np.random.default_rng(2)
        j = random_joint(rng, 2, 4)
        q = Quantizer.random_stochastic(4, 2, rng)
        compression = mutual_information(JointXY(j.y_marginal().probs[:, None] * q.mapping.rows))
        relevant = mutual_information(push_through_quantizer(j, q))
        assert ib_objective(j, q, 2.0) == pytest.approx((compression - 2.0 * relevant) / 3.0, abs=1e-12)

    def test_rejects_negative_beta(self):
        rng = np.random.default_rng(3)
        j = random_joint(rng, 2, 4)
        with pytest.raises(ValueError):
            ib_objective(j, Quantizer.identity(4), -1.0)


class TestIterativeIb:
    def test_noiseless_identity_is_fixed_point(self):
        j = JointXY(np.diag([0.1, 0.2, 0.3, 0.4]))
        for beta in (1.0, 50.0, 400.0):
            design = iterative_ib(j, 4, beta, init=Quantizer.identity(4))
            assert np.array_equal(design.quantizer.mapping.rows, np.eye(4))
            assert design.info_loss == pytest.approx(0.0, abs=1e-12)

    def test_single_cluster_limits(self):
        rng = np.random.default_rng(4)
        j = random_joint(rng, 3, 6)
        design = iterative_ib(j, 1, 100.0, init=0)
        assert design.info_loss == pytest.approx(mutual_information(j), abs=1e-12)
        assert design.compression_rate == pytest.approx(0.0, abs=1e-12)

    def test_objective_monotone_and_fixed_point(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(3, 11)))
            n = int(rng.integers(2, 5))
            beta = float(rng.choice([10.0, 100.0, 400.0]))
            trace = []
            design = iterative_ib(j, n, beta, init=trial, max_sweeps=50_000,
                                  objective_trace=trace)
            diffs = np.diff(np.array(trace))
            assert np.all(diffs <= 1e-10)
            assert fixed_point_residual(j, design.quantizer, beta) < 1e-6

    def test_zero_mass_observation_dropped(self):
        m = np.array([[0.25, 0.0, 0.25], [0.25, 0.0, 0.25]])
        j = JointXY(m)
        design = iterative_ib(j, 2, 10.0, init=0)
        assert design.quantizer.num_inputs == 3
        assert design.info_loss == pytest.approx(0.0, abs=1e-9)

    def test_design_consistency_invariants(self):
        rng = np.random.default_rng(6)
        j = random_joint(rng, 3, 8)
        design = iterative_ib(j, 3, 100.0, init=1)
        pz = j.y_marginal().probs @ design.quantizer.mapping.rows
        assert np.allclose(design.cluster_prior.probs, pz, atol=1e-9)
        pushed = push_through_quantizer(j, design.quantizer)
        alive = pz > 1e-12
        expected = pushed.matrix[:, alive] / pz[alive]
        assert np.allclose(design.cluster_posteriors.rows[alive], expected.T, atol=1e-9)
        assert design.info_loss >= -1e-9

    def test_rejects_bad_cluster_count(self):
        rng = np.random.default_rng(7)
        j = random_joint(rng, 2, 4)
        with pytest.raises(ValueError):
            iterative_ib(j, 0, 10.0)

    def test_beta_zero_compresses_fully(self):
        rng = np.random.default_rng(31)
        j = random_joint(rng, 2, 6)
        design = iterative_ib(j, 3, 0.0, init=0)
        assert design.compression_rate == pytest.approx(0.0, abs=1e-9)
        assert design.info_loss == pytest.approx(mutual_information(j), abs=1e-9)

    def test_single_sweep_state(self):
        rng = np.random.default_rng(28)
        j = random_joint(rng, 3, 6)
        q = Quantizer.random_stochastic(6, 3, rng)
        beta = 20.0
        state = it_ib_update(j, q, beta)
        # normalizers make every updated row an exact distribution
        assert np.allclose(state.mapping.rows.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(state.row_normalizers > 0)
        pz = j.y_marginal().probs @ q.mapping.rows
        assert np.allclose(state.cluster_prior.probs, pz, atol=1e-12)
        # the normalizer is the row's partition function: check one entry
        posts = j.posterior_x_given_y().rows
        kl_bits = sum(
            posts[0, x] * np.log(posts[0, x] / state.cluster_posteriors.rows[0, x])
            for x in range(3) if posts[0, x] > 0)
        expected = pz[0] * np.exp(-beta * kl_bits) / state.row_normalizers[0]
        assert state.mapping.rows[0, 0] == pytest.approx(expected, rel=1e-9)


class TestAgglomerativeIb:
    def test_identical_posteriors_merge_free(self):
        # two observation symbols with the same posterior: merging them costs nothing
        m = np.array([[0.2, 0.1, 0.15], [0.2, 0.1, 0.25]])
        j = JointXY(m / m.sum())
        design = agglomerative_ib(j, 2)
        labels = design.quantizer.labels
        assert labels[0] == labels[1]
        gap = mutual_information(j) - design.relevant_info
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_identity_partition(self):
        rng = np.random.default_rng(8)
        j = random_joint(rng, 2, 6)
        design = agglomerative_ib(j, 6)
        assert design.info_loss == pytest.approx(0.0, abs=1e-12)

    def test_close_to_exhaustive_optimum(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            j = random_joint(rng, 2, 6)
            design = agglomerative_ib(j, 3)
            best = exhaustive_best_relevant_info(j, 3)
            optimal_loss = mutual_information(j) - best
            assert design.info_loss >= optimal_loss - 1e-9
            assert design.info_loss <= optimal_loss + 0.05

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        j = random_joint(rng, 3, 9)
        a = agglomerative_ib(j, 4)
        b = agglomerative_ib(j, 4)
        assert np.array_equal(a.quantizer.mapping.rows, b.quantizer.mapping.rows)
        assert a.info_loss == b.info_loss

    def test_rejects_too_many_clusters(self):
        rng = np.random.default_rng(11)
        j = random_joint(rng, 2, 4)
        with pytest.raises(ValueError):
            agglomerative_ib(j, 5)


class TestKlMeans:
    def test_identity_fixed_point(self):
        rng = np.random.default_rng(12)
        j = random_joint(rng, 2, 5)
        design = kl_means_ib(j, 5, lam=0.0, init=0)
        assert design.info_loss == pytest.approx(0.0, abs=1e-9)

    def test_huge_lambda_collapses(self):
        rng = np.random.default_rng(13)
        j = random_joint(rng, 2, 6)
        design = kl_means_ib(j, 3, lam=1e6, init=0)
        assert design.occupied_clusters == 1
        assert design.info_loss == pytest.approx(mutual_information(j), abs=1e-9)

    def test_close_to_exhaustive_optimum(self):
        rng = np.random.default_rng(14)
        for trial in range(20):
            j = random_joint(rng, 2, 8)
            best_loss = None
            for seed in range(20):
                design = kl_means_ib(j, 3, lam=0.0, init=seed)
                if best_loss is None or design.info_loss < best_loss:
                    best_loss = design.info_loss
            optimum = mutual_information(j) - exhaustive_best_relevant_info(j, 3)
            assert best_loss <= optimum + 0.02

    def test_distortion_non_increasing(self):
        rng = np.random.default_rng(15)
        for trial in range(20):
            j = random_joint(rng, 3, 10)
            trace = []
            kl_means_ib(j, 3, lam=0.0, init=trial, objective_trace=trace)
            diffs = np.diff(np.array(trace))
            assert np.all(diffs <= 1e-10)

    def test_lambda_objective_non_increasing(self):
        rng = np.random.default_rng(16)
        for trial in range(10):
            j = random_joint(rng, 2, 8)
            trace = []
            kl_means_ib(j, 3, lam=0.5, init=trial, objective_trace=trace)
            diffs = np.diff(np.array(trace))
            assert np.all(diffs <= 1e-10)


class TestDpOptimal:
    def test_full_resolution_is_lossless(self):
        rng = np.random.default_rng(17)
        j = random_joint(rng, 2, 7)
        design = dp_optimal_quantizer(j, 7)
        assert design.info_loss == pytest.approx(0.0, abs=1e-12)

    def test_bsc_identity(self):
        dmc = build_bsc(0.1)
        design = dp_optimal_quantizer(dmc.joint(), 2)
        h2 = -0.1 * np.log2(0.1) - 0.9 * np.log2(0.9)
        assert design.relevant_info == pytest.approx(1.0 - h2, abs=1e-12)

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            j = random_joint(rng, 2, 8)
            n = int(rng.choice([2, 3]))
            design = dp_optimal_quantizer(j, n)
            assert design.relevant_info == pytest.approx(
                exhaustive_best_relevant_info(j, n), abs=1e-12)

    def test_beats_other_algorithms(self):
        rng = np.random.default_rng(19)
        for trial in range(10):
            j = random_joint(rng, 2, 8)
            dp = dp_optimal_quantizer(j, 3)
            others = [
                agglomerative_ib(j, 3),
                kl_means_ib(j, 3, init=trial),
                iterative_ib(j, 3, 400.0, init=trial),
            ]
            for other in others:
                assert dp.relevant_info >= other.relevant_info - 1e-9

    def test_rejects_non_binary_source(self):
        rng = np.random.default_rng(20)
        j = random_joint(rng, 3, 6)
        with pytest.raises(ValueError):
            dp_optimal_quantizer(j, 2)

    def test_zero_mass_symbols_get_neighbour_labels(self):
        m = np.array([[0.3, 0.0, 0.2], [0.1, 0.0, 0.4]])
        j = JointXY(m)
        design = dp_optimal_quantizer(j, 2)
        labels = design.quantizer.labels
        assert labels[1] == labels[0]  # nearest positive-mass index, ties low

    def test_cluster_count_cap(self):
        rng = np.random.default_rng(21)
        j = random_joint(rng, 2, 8)
        design = dp_optimal_quantizer(j, 3)
        assert design.compression_rate <= np.log2(3) + 1e-9
        assert design.relevant_info <= min(mutual_information(j), design.compression_rate) + 1e-9


class TestItIbOnAskInstance:
    def test_it_ib_near_contiguous_oracle(self):
        # 4-ASK / AWGN instance: the best contiguous-in-amplitude partition is
        # the reference; the iterative design must come within 0.002 bits.
        dmc = build_ask_awgn(4, 1.0, 128)
        j = dmc.joint()
        _, oracle_info = dp_contiguous_partition(j, 16, np.arange(128))
        oracle_loss = mutual_information(j) - oracle_info
        best = None
        for r in range(100):
            design = iterative_ib(j, 16, 400.0, init=r, max_sweeps=200)
            if best is None or design.info_loss < best:
                best = design.info_loss
        assert best <= oracle_loss + 0.002
        assert best >= oracle_loss - 1e-9

    def test_denormal_cluster_counts_as_dead(self):
        # this restart starves one cluster to a denormal mass (~8.8e-321);
        # its posterior row must be the dead-cluster default, not a
        # precision-losing quotient that ConditionalDist rejects
        j = build_ask_awgn(4, 1.0, 128, 3.0).joint()
        rng = np.random.default_rng(np.random.SeedSequence((1599525336001, 2, 11)))
        design = iterative_ib(j, 16, 400.0, init=rng)
        pz = design.cluster_prior.probs
        starved = (pz > 0) & (pz < 1e-300)
        assert starved.any()
        assert np.all(design.cluster_posteriors.rows[starved] == 0.25)


class TestIbCurve:
    def test_single_cluster_point(self):
        rng = np.random.default_rng(22)
        j = random_joint(rng, 2, 6)
        for algorithm in ("it-ib", "agg-ib", "kl-means", "dp"):
            points = ib_curve(j, algorithm, [1], beta=100.0, restarts=3, seed=0)
            assert points[0].info_loss == pytest.approx(mutual_information(j), abs=1e-9)
            assert points[0].compression_rate == pytest.approx(0.0, abs=1e-9)

    def test_agg_curve_monotone(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            j = random_joint(rng, 2, 8)
            points = ib_curve(j, "agg-ib", [1, 2, 3, 4, 5], restarts=1, seed=0)
            losses = [p.info_loss for p in points]
            for a, b in zip(losses, losses[1:]):
                assert b <= a + 1e-12

    def test_unknown_algorithm(self):
        rng = np.random.default_rng(24)
        j = random_joint(rng, 2, 4)
        with pytest.raises(ValueError):
            ib_curve(j, "det-ib", [2])

    def test_csv_deterministic(self, tmp_path):
        rng = np.random.default_rng(25)
        j = random_joint(rng, 2, 6)
        points = ib_curve(j, "it-ib", [2, 3], beta=100.0, restarts=5, seed=7)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_curve_csv(p1, points, "it-ib", 100.0, 5, comment="run")
        points2 = ib_curve(j, "it-ib", [2, 3], beta=100.0, restarts=5, seed=7)
        write_curve_csv(p2, points2, "it-ib", 100.0, 5, comment="run")
        assert p1.read_bytes() == p2.read_bytes()


class TestDesignInvariants:
    def test_information_plane_caps_all_algorithms(self):
        rng = np.random.default_rng(30)
        from ibquant.info import avg_kl_distortion
        for trial in range(15):
            j = random_joint(rng, 2, 8)
            n = int(rng.integers(2, 5))
            designs = [
                iterative_ib(j, n, 400.0, init=trial),
                agglomerative_ib(j, n),
                kl_means_ib(j, n, init=trial),
                dp_optimal_quantizer(j, n),
            ]
            mi = mutual_information(j)
            for d in designs:
                assert d.compression_rate <= np.log2(n) + 1e-9
                assert d.relevant_info <= min(mi, d.compression_rate) + 1e-9
                assert abs(d.info_loss - avg_kl_distortion(j, d.quantizer)) < 1e-9


class TestDesignEvaluation:
    def test_occupied_cluster_reporting(self):
        rng = np.random.default_rng(26)
        j = random_joint(rng, 2, 6)
        labels = np.zeros(6, dtype=int)
        design = design_from_quantizer(j, Quantizer.from_labels(labels, 3))
        assert design.occupied_clusters == 1

    def test_infinite_beta_objective(self):
        rng = np.random.default_rng(27)
        j = random_joint(rng, 2, 6)
        design = design_from_quantizer(j, Quantizer.identity(6), math.inf)
        assert design.objective == pytest.approx(-design.relevant_info)
