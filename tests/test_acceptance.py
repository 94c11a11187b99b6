"""Acceptance suite: one test per release criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The decoder-ordering
criterion simulates tens of thousands of frames and dominates the runtime.
"""

import time

import numpy as np
import pytest

from ibquant.channels import build_ask_awgn, build_bpsk_awgn, ebn0_db_to_noise_std
from ibquant.cli import main as cli_main
from ibquant.dde import design_decoder
from ibquant.decoders import (
    _frame_rng,
    ber_sweep,
    decode_llr_batch,
    decode_lut_batch,
)
from ibquant.ib import (
    Quantizer,
    agglomerative_ib,
    dp_optimal_quantizer,
    ib_curve,
    iterative_ib,
    kl_means_ib,
)
from ibquant.info import (
    JointXY,
    Pmf,
    avg_kl_distortion,
    entropy,
    mutual_information,
    push_through_quantizer,
)
from ibquant.ldpc import construct_regular_ldpc
from ibquant.maxlut import NodeFunction, build_max_lut

from test_ib import (
    batch_relevant_info,
    enumerate_assignments,
    fixed_point_residual,
    random_stochastic_quantizer,
)
from test_maxlut import node_joint, quantized_message, random_message


def _report(number: int, name: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    print(f"\nACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget"


def _random_joint(rng, nx, ny):
    m = rng.uniform(size=(nx, ny))
    return JointXY(m / m.sum())


def test_criterion_1_information_identities():
    started = time.time()
    rng = np.random.default_rng(101)
    for _ in range(200):
        nx = int(rng.integers(2, 7))
        ny = int(rng.integers(2, 13))
        nz = int(rng.integers(1, 7))
        j = _random_joint(rng, nx, ny)
        deterministic = bool(rng.integers(2))
        if deterministic:
            q = Quantizer.from_labels(rng.integers(0, nz, size=ny), nz)
        else:
            q = random_stochastic_quantizer(ny, nz, rng)
        pushed = push_through_quantizer(j, q)
        gap = mutual_information(j) - mutual_information(pushed)
        assert abs(avg_kl_distortion(j, q) - gap) < 1e-9
        if deterministic:
            py = j.y_marginal().probs
            rate = mutual_information(JointXY(py[:, None] * q.mapping.rows))
            assert abs(rate - entropy(Pmf(py @ q.mapping.rows))) < 1e-9
    _report(1, "information-identities", started, 10.0)


def test_criterion_2_it_ib_fixed_point():
    started = time.time()
    rng = np.random.default_rng(202)
    for trial in range(50):
        nx = int(rng.integers(2, 5))
        ny = int(rng.integers(4, 17))
        n = int(rng.integers(2, 7))
        beta = float(rng.choice([10.0, 100.0, 400.0]))
        j = _random_joint(rng, nx, ny)
        trace = []
        # small beta mixes slowly (contraction close to 1), so allow enough
        # sweeps for the mapping itself to converge, not just the objective
        design = iterative_ib(j, n, beta, init=trial, max_sweeps=50_000,
                              objective_trace=trace)
        assert np.all(np.diff(np.array(trace)) <= 1e-10)
        assert fixed_point_residual(j, design.quantizer, beta) < 1e-6
    _report(2, "it-ib-fixed-point", started, 30.0)


def test_criterion_3_dp_optimality_oracle():
    started = time.time()
    rng = np.random.default_rng(303)
    assignments = {n: enumerate_assignments(8, n) for n in (2, 3)}
    for trial in range(50):
        n = int(rng.choice([2, 3]))
        j = _random_joint(rng, 2, 8)
        optimum = float(batch_relevant_info(j, assignments[n], n).max())
        dp = dp_optimal_quantizer(j, n)
        assert abs(dp.relevant_info - optimum) < 1e-12
        optimal_loss = mutual_information(j) - optimum

        best_itib = min(
            iterative_ib(j, n, 400.0, init=np.random.default_rng((trial, r))).info_loss
            for r in range(100))
        assert best_itib <= optimal_loss + 0.05

        assert agglomerative_ib(j, n).info_loss <= optimal_loss + 0.05

        best_klm = min(
            kl_means_ib(j, n, lam=0.0, init=np.random.default_rng((trial, s))).info_loss
            for s in range(20))
        assert best_klm <= optimal_loss + 0.05
    _report(3, "dp-optimality-oracle", started, 120.0)


def test_criterion_4_ask_experiment_reproduction():
    started = time.time()
    dmc = build_ask_awgn(4, 1.0, 128, 3.0)
    joint = dmc.joint()
    n_values = [4, 8, 16, 32]
    restarts = 100

    curves = {
        "it-ib-400": ib_curve(joint, "it-ib", n_values, beta=400.0,
                              restarts=restarts, seed=404),
        "it-ib-100": ib_curve(joint, "it-ib", n_values, beta=100.0,
                              restarts=restarts, seed=404),
        "kl-means": ib_curve(joint, "kl-means", n_values, restarts=restarts, seed=404),
        "agg-ib": ib_curve(joint, "agg-ib", n_values, restarts=1, seed=404),
    }

    # (a) information loss is non-increasing in the allowed cluster count
    for name, points in curves.items():
        losses = [p.info_loss for p in points]
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-9, f"{name} loss increased with n"

    # (b) the sharper trade-off parameter is at least as accurate
    for p400, p100 in zip(curves["it-ib-400"], curves["it-ib-100"]):
        assert p400.info_loss <= p100.info_loss + 1e-6

    # (c) the fixed-point and Lloyd-style designs nearly coincide at high beta
    for p_it, p_klm in zip(curves["it-ib-400"], curves["kl-means"]):
        assert abs(p_it.info_loss - p_klm.info_loss) <= 0.01

    # (d) lower information loss comes with higher compression rate
    for points in curves.values():
        for a in points:
            for b in points:
                if a.info_loss > b.info_loss + 1e-9:
                    assert a.compression_rate <= b.compression_rate + 1e-9
    _report(4, "ask-experiment-reproduction", started, 300.0)


def test_criterion_5_max_lut_node_checks():
    started = time.time()
    rng = np.random.default_rng(505)
    for trial in range(50):
        f = NodeFunction.CHECK_XOR if trial % 2 else NodeFunction.VARIABLE_EQUAL
        sizes = [(2, 2), (2, 4), (4, 2)][int(rng.integers(3))]
        a = random_message(rng, sizes[0])
        b = random_message(rng, sizes[1])
        out_size = int(rng.choice([2, 3]))
        lut = build_max_lut(f, a, b, out_size)
        joint = JointXY(0.5 * node_joint(f, a, b).rows)
        best = float(batch_relevant_info(
            joint, enumerate_assignments(joint.num_y, out_size), out_size).max())
        assert abs(lut.relevant_info - best) < 1e-12

    # Kurkoski operating point: 16-level inputs, 16-level output, < 0.01 bit loss
    dmc = build_bpsk_awgn(2.0, 0.5, 128)
    chan = dp_optimal_quantizer(dmc.joint(), 16)
    msg = quantized_message(dmc.transition.rows, chan.quantizer)
    for f in NodeFunction:
        upstream = mutual_information(JointXY(0.5 * node_joint(f, msg, msg).rows))
        lut = build_max_lut(f, msg, msg, 16)
        loss = upstream - lut.relevant_info
        assert -1e-12 <= loss < 0.01
    _report(5, "max-lut-node-checks", started, 60.0)


def test_criterion_6_density_evolution_sanity():
    started = time.time()
    design_hi = design_decoder(build_bpsk_awgn(2.0, 0.5, 128), 3, 6, 4, 50)
    trace_hi = design_hi.error_prob_trace
    assert np.all(np.diff(trace_hi) <= 1e-12)
    assert trace_hi.min() < 1e-6
    assert len(trace_hi) <= 50

    design_lo = design_decoder(build_bpsk_awgn(0.2, 0.5, 128), 3, 6, 4, 50)
    trace_lo = design_lo.error_prob_trace
    assert len(trace_lo) == 50
    assert trace_lo[-1] > 1e-3
    # regression pins from the first computation of these traces
    assert trace_hi[0] == pytest.approx(0.0707, abs=0.002)
    assert trace_lo[-1] == pytest.approx(0.124, abs=0.01)
    _report(6, "density-evolution-sanity", started, 60.0)


def _wilson(errors: int, trials: int, z: float = 1.96):
    p = errors / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def test_criterion_7_decoder_ordering():
    started = time.time()
    code = construct_regular_ldpc(1000, 3, 6, seed=7)
    frames, max_errors, seed = 10_000, 200, 707
    results = {}
    for decoder in ("bp", "lut", "minsum"):
        results[decoder] = {
            ebn0: ber_sweep(code, decoder, [ebn0], max_frames=frames,
                            max_errors=max_errors, seed=seed)[0]
            for ebn0 in (2.0, 2.5)
        }
    n = code.block_length
    for ebn0 in (2.0, 2.5):
        bp, lut, ms = (results[d][ebn0] for d in ("bp", "lut", "minsum"))
        ber = {d: results[d][ebn0].ber(n) for d in ("bp", "lut", "minsum")}
        print(f"\n  Eb/N0={ebn0}: BER bp={ber['bp']:.3e} lut={ber['lut']:.3e} "
              f"minsum={ber['minsum']:.3e}")
        lo_bp, _ = _wilson(bp.bit_errors, bp.frames * n)
        _, hi_lut = _wilson(lut.bit_errors, lut.frames * n)
        lo_lut, _ = _wilson(lut.bit_errors, lut.frames * n)
        _, hi_ms = _wilson(ms.bit_errors, ms.frames * n)
        assert ber["bp"] <= ber["lut"] or lo_bp <= hi_lut
        assert ber["lut"] <= ber["minsum"] or lo_lut <= hi_ms

    # converged frames satisfy every parity check exactly
    dmc = build_bpsk_awgn(2.0, 0.5, 128)
    design = design_decoder(dmc, 3, 6, 4, 50)
    sigma = ebn0_db_to_noise_std(2.0, 0.5)
    bins = np.stack([
        dmc.discretization.bin_of(1.0 + sigma * _frame_rng(909, k).standard_normal(n))
        for k in range(100)])
    bits, _, conv = decode_lut_batch(code, design, bins, 50)
    assert np.all(code.parity_ok(bits[conv]))
    from ibquant.channels import binary_llrs
    bits, _, conv = decode_llr_batch(code, binary_llrs(dmc)[bins], 50, "bp")
    assert np.all(code.parity_ok(bits[conv]))
    _report(7, "decoder-ordering", started, 900.0)


def test_criterion_8_cli_determinism(tmp_path):
    started = time.time()
    invocations = [
        ["quantize", "--channel", "ask4", "--sigma", "1", "--bins", "64",
         "--alg", "it-ib", "--beta", "400", "--n", "8", "--restarts", "10",
         "--seed", "1"],
        ["quantize", "--channel", "bsc:0.11", "--alg", "dp", "--n", "2"],
        ["maxlut", "--node", "check", "--in-bits", "3", "--out-bits", "3",
         "--channel", "bpsk:2.0", "--bins", "64"],
        ["ldpc", "design", "--dv", "3", "--dc", "6", "--bits", "3",
         "--iters", "3", "--ebn0", "2.0", "--bins", "32"],
    ]
    # identical invocations means identical output paths: rerun into the same
    # file and compare the bytes captured in between
    for idx, argv in enumerate(invocations):
        target = tmp_path / f"run{idx}.out"
        full = argv + ["--out", str(target)]
        assert cli_main(full) == 0
        first = target.read_bytes()
        target.unlink()
        assert cli_main(full) == 0
        assert target.read_bytes() == first, f"non-deterministic: {argv}"

    design_file = tmp_path / "run3.out"
    sim_target = tmp_path / "sim.csv"
    sim = ["ldpc", "simulate", "--design", str(design_file), "--decoder", "lut",
           "--ebn0", "2.0,2.5", "--max-frames", "50", "--seed", "3", "--n", "120",
           "--out", str(sim_target)]
    assert cli_main(sim) == 0
    first = sim_target.read_bytes()
    sim_target.unlink()
    assert cli_main(sim) == 0
    assert sim_target.read_bytes() == first
    _report(8, "cli-determinism", started, 120.0)
