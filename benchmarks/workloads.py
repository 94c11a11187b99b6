"""The two benchmark workloads, their operations and their output checks.

A workload has a set-up (timed, repeated), a short warm-up, and a round: an
ordered list of operations, each one public library call.  The first
operation of a round is the workload's lead call; the others are its
companion calls.  Every operation's output is checked for invariants, and
written with the library's own writer so its bytes can be compared with
recorded digests.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import ibquant
from ibquant.dde import save_design
from ibquant.ib import write_curve_csv

DECODERS = ("lut", "bp", "minsum", "minsum-corrected")


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, TOY the smoke test."""

    block_length: int = 1000
    dv: int = 3
    dc: int = 6
    code_seed: int = 7
    num_bins: int = 128
    clip: float = 3.0
    message_bits: int = 4
    max_iter: int = 50
    frames: int = 200
    warmup_frames: int = 20
    stalling_db: float = 0.2
    warmup_db: float = 2.5  # above the threshold: a short design
    ask_sigma: float = 1.0
    curve_n: tuple[int, ...] = (4, 8, 16, 32)
    restarts: int = 20
    beta: float = 400.0
    setup_repeats: int = 3  # set-up samples before the rounds, and again after


FULL = Sizes()
TOY = Sizes(block_length=48, max_iter=15, frames=8, warmup_frames=2,
            curve_n=(2, 4), restarts=2, setup_repeats=1)


@dataclass
class Op:
    """One library call of a round and the check of its result.

    ``check`` returns the files it wrote; ``digest_key`` names the recorded
    digest those files are compared with (None: invariants only).
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object, Path, "Checks"], list[Path]]
    digest_key: str | None


@dataclass
class Checks:
    """Tally of the output checks that ran and the problems they found."""

    ran: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)

    def expect(self, name: str, ok: bool, detail: str) -> bool:
        self.ran[name] += 1
        if not ok:
            self.problems.append(f"{name}: {detail}")
        return ok


def file_digest(paths: list[Path]) -> str:
    """First 16 hex digits of the SHA-256 over the files' names and bytes."""
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# BER at one operating point: the LUT decoder leads, the float decoders follow


class BerWorkload:
    def __init__(self, ebn0_db: float):
        self.ebn0_db = ebn0_db

    def setup(self, sizes: Sizes) -> dict:
        code = ibquant.construct_regular_ldpc(sizes.block_length, sizes.dv, sizes.dc,
                                              seed=sizes.code_seed)
        dmc = ibquant.build_bpsk_awgn(self.ebn0_db, code.design_rate, sizes.num_bins,
                                      sizes.clip)
        design = ibquant.design_decoder(dmc, sizes.dv, sizes.dc, sizes.message_bits,
                                        sizes.max_iter)
        return {"sizes": sizes, "code": code, "design": design}

    def setup_ops(self, state: dict) -> list[Op]:
        """The pre-built LUT design is checked like any other design."""
        label = f"design@{self.ebn0_db:g}"
        return [Op(label, lambda: state["design"],
                   _design_check(state["sizes"], self.ebn0_db, stalls=False), label)]

    def warmup_ops(self, state: dict) -> list[Op]:
        return [self._sweep(state, d, state["sizes"].warmup_frames, 0, None)
                for d in DECODERS]

    def round_ops(self, state: dict, seed: int, round_index: int) -> list[Op]:
        sweep_seed = seed * 1000 + round_index
        return [self._sweep(state, d, state["sizes"].frames, sweep_seed,
                            f"{seed}/{round_index}/{d}") for d in DECODERS]

    def _sweep(self, state: dict, decoder: str, frames: int, seed: int,
               digest_key: str | None) -> Op:
        sizes, code = state["sizes"], state["code"]
        design = state["design"] if decoder == "lut" else None

        def call():
            return ibquant.ber_sweep(
                code, decoder, [self.ebn0_db], frames, 0, seed,
                message_bits=sizes.message_bits, max_iter=sizes.max_iter,
                num_bins=sizes.num_bins, clip_multiplier=sizes.clip, design=design)

        def check(points, out: Path, checks: Checks) -> list[Path]:
            if not checks.expect("ber.points", len(points) == 1,
                                 f"{decoder}: {len(points)} points for one SNR"):
                return []
            p = points[0]
            checks.expect("ber.frames", p.frames == frames,
                          f"{decoder}: {p.frames} frames, {frames} requested")
            checks.expect("ber.avg_iterations", 1 <= p.avg_iterations <= sizes.max_iter,
                          f"{decoder}: avg_iterations {p.avg_iterations}")
            checks.expect("ber.error_counts",
                          0 <= p.frame_errors <= p.frames
                          and p.frame_errors <= p.bit_errors <= p.frames * code.block_length,
                          f"{decoder}: {p.bit_errors} bit / {p.frame_errors} frame errors")
            path = out / f"ber-{decoder}.csv"
            ibquant.write_ber_csv(path, points, decoder, code.block_length)
            return [path]

        return Op(decoder, call, check, digest_key)


# ---------------------------------------------------------------------------
# the stalling density-evolution design, then information-bottleneck curves


def _design_check(sizes: Sizes, ebn0: float, stalls: bool):
    """Below the threshold DE stalls for all iterations; above it, it saturates
    early with a non-increasing error probability trace (criterion 6)."""

    def check(design, out: Path, checks: Checks) -> list[Path]:
        trace = design.error_prob_trace
        where = f"{ebn0:g} dB"
        if stalls:
            checks.expect("de.stalls", design.max_iter == sizes.max_iter and trace[-1] > 1e-3,
                          f"{where}: {design.max_iter} iterations, final {trace[-1]:.3g}")
        else:
            checks.expect("de.converges",
                          design.max_iter < sizes.max_iter and trace.min() < 1e-6,
                          f"{where}: {design.max_iter} iterations, min {trace.min():.3g}")
            checks.expect("de.trace_nonincreasing", bool(np.all(np.diff(trace) <= 1e-12)),
                          f"{where}: error probability trace increases")
        path = out / f"design-{ebn0:g}.txt"
        save_design(design, path)
        return [path]

    return check


CURVE_ALGORITHMS = ("it-ib", "kl-means", "agg-ib")
# The restart seed of criterion 4's experiment (tests/test_acceptance.py); the
# benchmark runs its first ``restarts`` restarts.
CURVE_SEED = 404


class DesignCurveWorkload:
    """Lead: ``design_decoder`` below the 4-bit threshold, where DE stalls and
    designs every iteration.  Companions: ``ib_curve`` on 4-ASK with each
    algorithm of CURVE_ALGORITHMS.  No input depends on the seed; it orders
    the companions."""

    def setup(self, sizes: Sizes) -> dict:
        rate = 1.0 - sizes.dv / sizes.dc
        channels = [ibquant.build_bpsk_awgn(e, rate, sizes.num_bins, sizes.clip)
                    for e in (sizes.stalling_db, sizes.warmup_db)]
        ask = ibquant.build_ask_awgn(4, sizes.ask_sigma, sizes.num_bins, sizes.clip)
        return {"sizes": sizes, "channel": channels[0], "warmup_channel": channels[1],
                "joint": ask.joint()}

    def setup_ops(self, state: dict) -> list[Op]:
        return []

    def warmup_ops(self, state: dict) -> list[Op]:
        """A short design above the threshold and small curves."""
        sizes = state["sizes"]
        return [self._design(state, state["warmup_channel"], sizes.warmup_db, False)] + [
            self._curve(state, alg, sizes.curve_n[:1], 2, None) for alg in CURVE_ALGORITHMS]

    def round_ops(self, state: dict, seed: int, round_index: int) -> list[Op]:
        sizes = state["sizes"]
        order = np.random.default_rng([seed, round_index]).permutation(len(CURVE_ALGORITHMS))
        return [self._design(state, state["channel"], sizes.stalling_db, True)] + [
            self._curve(state, CURVE_ALGORITHMS[i], sizes.curve_n, sizes.restarts,
                        CURVE_ALGORITHMS[i]) for i in order]

    def _design(self, state: dict, channel, ebn0: float, stalls: bool) -> Op:
        sizes = state["sizes"]

        def call():
            return ibquant.design_decoder(channel, sizes.dv, sizes.dc, sizes.message_bits,
                                          sizes.max_iter)

        label = f"design@{ebn0:g}"
        return Op(label, call, _design_check(sizes, ebn0, stalls), label if stalls else None)

    def _curve(self, state: dict, algorithm: str, n_values, restarts: int,
               digest_key: str | None) -> Op:
        sizes = state["sizes"]

        def call():
            return ibquant.ib_curve(state["joint"], algorithm, list(n_values),
                                    beta=sizes.beta, restarts=restarts, seed=CURVE_SEED)

        def check(points, out: Path, checks: Checks) -> list[Path]:
            if not checks.expect("curve.points", [p.n for p in points] == list(n_values),
                                 f"{algorithm}: n values {[p.n for p in points]}"):
                return []
            losses = [p.info_loss for p in points]
            checks.expect("curve.loss_finite",
                          all(np.isfinite(x) and x >= 0 for x in losses),
                          f"{algorithm}: losses {losses}")
            checks.expect("curve.loss_nonincreasing",
                          all(b <= a + 1e-9 for a, b in zip(losses, losses[1:])),
                          f"{algorithm}: loss increases with n: {losses}")
            path = out / f"curve-{algorithm}.csv"
            write_curve_csv(path, points, algorithm, sizes.beta, restarts)
            return [path]

        return Op(algorithm, call, check, digest_key)


WORKLOADS = {
    "ber-waterfall": BerWorkload(2.0),
    "design-curve": DesignCurveWorkload(),
}
