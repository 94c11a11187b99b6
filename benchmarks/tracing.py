"""Span tracing of ibquant's public callables, installed from outside the package.

``Tracer.install()`` replaces each callable in TARGETS, in the module that
defines it and in every ibquant module that imported it by name, with a
wrapper that records one span per call: name, start, end, parent and phase.
Spans stay in memory; at the end of a run ``write`` saves them as JSON and
``layer_metrics`` turns them into the benchmark's per-layer numbers.  ``uninstall()`` restores the
originals.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from workloads import DECODERS

# (module, attribute path, span name).  Methods are patched on their class,
# which every importer shares.
TARGETS = (
    ("channels", "AwgnDiscretization.bin_of", "channels.bin_of"),
    ("channels", "build_bpsk_awgn", "channels.build_bpsk_awgn"),
    ("ldpc", "construct_regular_ldpc", "ldpc.construct_regular_ldpc"),
    ("ldpc", "LdpcCode.parity_ok", "ldpc.parity_ok"),
    ("maxlut", "LutCascade.evaluate", "maxlut.evaluate"),
    ("maxlut", "build_max_lut", "maxlut.build_max_lut"),
    ("maxlut", "cascade_node", "maxlut.cascade_node"),
    ("dde", "design_decoder", "dde.design_decoder"),
    ("dde", "DecisionRule.decide", "dde.decide"),
    ("decoders", "ber_sweep", "decoders.ber_sweep"),
    ("decoders", "decode_lut_batch", "decoders.decode_lut_batch"),
    ("decoders", "decode_llr_batch", "decoders.decode_llr_batch"),
    ("ib", "dp_optimal_quantizer", "ib.dp_optimal_quantizer"),
    ("ib", "iterative_ib", "ib.iterative_ib"),
    ("ib", "kl_means_ib", "ib.kl_means_ib"),
    ("ib", "agglomerative_ib", "ib.agglomerative_ib"),
    ("info", "mutual_information", "info.mutual_information"),
    ("info", "push_through_quantizer", "info.push_through_quantizer"),
)

ENGINES = tuple(d for d in DECODERS if d != "lut")

# One span; parent is the index of the enclosing span, -1 at the top.
SPAN_FIELDS = ("name", "start", "end", "parent", "phase")

# Per-layer metrics: (name, unit, better).  Every traced run reports all of
# them; a layer a workload does not use reports 0.
LAYER_METRICS = (
    ("channels.bin_of.calls", "count", "lower"),
    ("channels.bin_of.total_s", "s", "lower"),
    ("channels.build_bpsk_awgn.total_s", "s", "lower"),
    ("ldpc.construct_regular_ldpc.total_s", "s", "lower"),
    ("ldpc.parity_ok.calls", "count", "lower"),
    ("ldpc.parity_ok.total_s", "s", "lower"),
    ("maxlut.evaluate.calls", "count", "lower"),
    ("maxlut.evaluate.total_s", "s", "lower"),
    ("maxlut.build_max_lut.calls", "count", "lower"),
    ("maxlut.build_max_lut.self_s", "s", "lower"),
    ("maxlut.cascade_node.total_s", "s", "lower"),
    ("maxlut.mirror_share", "ratio", "higher"),
    ("dde.design_decoder.total_s", "s", "lower"),
    ("dde.design_decoder.self_s", "s", "lower"),
    ("dde.iterations", "count", "lower"),
    ("dde.decide.total_s", "s", "lower"),
    ("decoders.ber_sweep.self_s", "s", "lower"),
    ("decoders.decode_lut_batch.self_s", "s", "lower"),
    *((f"decoders.decode_llr_batch.{e}.total_s", "s", "lower") for e in ENGINES),
    *((f"decoders.{d}.iterations", "count", "lower") for d in DECODERS),
    *((f"decoders.{d}.converged_ratio", "ratio", "higher") for d in DECODERS),
    ("ib.dp_optimal_quantizer.calls", "count", "lower"),
    ("ib.dp_optimal_quantizer.total_s", "s", "lower"),
    ("ib.iterative_ib.calls", "count", "lower"),
    ("ib.iterative_ib.total_s", "s", "lower"),
    ("ib.kl_means_ib.total_s", "s", "lower"),
    ("ib.agglomerative_ib.total_s", "s", "lower"),
    ("info.mutual_information.calls", "count", "lower"),
    ("info.mutual_information.total_s", "s", "lower"),
    ("info.push_through_quantizer.total_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _count_decoder(counts: Counter, decoder: str, result) -> None:
    _, iters, converged = result
    counts[f"decoders.{decoder}.frames"] += int(iters.shape[0])
    counts[f"decoders.{decoder}.iterations"] += int(iters.sum())
    counts[f"decoders.{decoder}.converged"] += int(np.count_nonzero(converged))


def _llr_engine(args, kwargs) -> str:
    return kwargs["engine"] if "engine" in kwargs else args[3]


class Tracer:
    """Records spans and counters while installed; one phase label at a time."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.phase = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            span_name = name
            if name == "decoders.decode_llr_batch":
                span_name = f"{name}.{_llr_engine(args, kwargs)}"
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((span_name, 0.0, 0.0, parent, tracer.phase))
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (span_name, start, end, parent, tracer.phase)
            tracer._count(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name, args, kwargs, result) -> None:
        counts = self.counts[self.phase]
        if name == "maxlut.build_max_lut":
            rows = result.out_cond.rows
            counts["maxlut.tables"] += 1
            counts["maxlut.mirror_tables"] += int(np.array_equal(rows[1], rows[0][::-1]))
        elif name == "dde.design_decoder":
            counts["dde.iterations"] += result.max_iter
        elif name == "decoders.decode_lut_batch":
            _count_decoder(counts, "lut", result)
        elif name == "decoders.decode_llr_batch":
            _count_decoder(counts, _llr_engine(args, kwargs), result)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "ibquant" or key.startswith("ibquant.")]
        for module_name, attr_path, span_name in TARGETS:
            owner = sys.modules[f"ibquant.{module_name}"]
            *class_path, attr = attr_path.split(".")
            for part in class_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(span_name, original)
            if class_path:
                self._replace(owner, attr, wrapper)
                continue
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._replace(module, attr, wrapper)

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """All spans as JSON, one row of SPAN_FIELDS per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": SPAN_FIELDS, "spans": self.spans},
                                   separators=(",", ":")))


# -- aggregation --------------------------------------------------------------


def phase_stats(tracer: Tracer, phase: str) -> dict[str, dict[str, float]]:
    """calls, total_s and self_s per span name within one phase."""
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s[4] == phase]
    child_time: dict[int, float] = defaultdict(float)
    for _, (_, start, end, parent, _) in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, _, _) in spans:
        entry = stats[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
    return stats


def round_signature(tracer: Tracer, phase: str) -> tuple:
    """Everything a traced round counts; identical inputs must repeat it exactly."""
    calls = sorted((name, s["calls"]) for name, s in phase_stats(tracer, phase).items())
    return tuple(calls), tuple(sorted(tracer.counts[phase].items()))


def layer_metrics(tracer: Tracer, round_phases: list[str], overhead_s: float) -> dict:
    """Per-layer metrics for one traced set-up plus one traced round.

    Counts come from the set-up and the first traced round (every traced
    round repeats the same inputs, so they are equal); times add the set-up
    to the median over the traced rounds.
    """
    setup = phase_stats(tracer, "setup")
    rounds = [phase_stats(tracer, p) for p in round_phases]
    counts = tracer.counts["setup"] + tracer.counts[round_phases[0]]

    def stat(name: str, field: str) -> float:
        base = setup[name][field] if name in setup else 0
        per_round = [r[name][field] if name in r else 0 for r in rounds]
        if field == "calls":
            return base + per_round[0]
        return base + statistics.median(per_round)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {}
    for metric, _, _ in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if field in ("calls", "total_s", "self_s"):
            values[metric] = stat(layer, field)
    values["maxlut.mirror_share"] = ratio(counts["maxlut.mirror_tables"],
                                          counts["maxlut.tables"])
    values["dde.iterations"] = counts["dde.iterations"]
    for d in DECODERS:
        values[f"decoders.{d}.iterations"] = counts[f"decoders.{d}.iterations"]
        values[f"decoders.{d}.converged_ratio"] = ratio(
            counts[f"decoders.{d}.converged"], counts[f"decoders.{d}.frames"])
    values["trace.overhead_s"] = overhead_s
    return values
