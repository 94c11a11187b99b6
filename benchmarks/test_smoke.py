"""Toy-size smoke test of the benchmark.

Runs every workload untraced and traced at toy sizes, and checks that every
metric is emitted and every output check runs, digests included.  Run from
the repository root:

    python3 -m pytest benchmarks/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import TOY, WORKLOADS  # noqa: E402

EXPECTED_CHECKS = {
    "ber-waterfall": {"ber.points", "ber.frames", "ber.avg_iterations", "ber.error_counts",
                      "de.converges", "de.trace_nonincreasing", "digest"},
    "design-curve": {"de.stalls", "de.converges", "de.trace_nonincreasing",
                     "curve.points", "curve.loss_finite", "curve.loss_nonincreasing",
                     "digest"},
}


def _toy(name, tmp_path, trace=False, **kwargs):
    return harness.run_workload(name, 3, 60.0, trace, sizes=TOY, rounds=2,
                                out_root=tmp_path / "out", **kwargs)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_checks_everything(name, tmp_path):
    recorded = {}
    first = _toy(name, tmp_path, record=recorded)
    assert first.result["correct"], first.checks.problems
    assert recorded

    again = _toy(name, tmp_path, digests=recorded)
    result = again.result
    assert result["correct"] and result["failed"] == 0, again.checks.problems
    assert result["attempted"] == first.result["attempted"] >= 3
    assert list(result["metrics"]) == [m for m, _, _ in harness.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert EXPECTED_CHECKS[name] <= set(again.checks.ran)
    assert "digest.unrecorded" not in again.checks.ran
    assert not (tmp_path / "out").exists()


def test_changed_output_fails_the_digest_check(tmp_path):
    recorded = {}
    _toy("ber-waterfall", tmp_path, record=recorded)
    key = next(iter(recorded))
    tampered = dict(recorded, **{key: "0" * 16})
    outcome = _toy("ber-waterfall", tmp_path, digests=tampered)
    assert not outcome.result["correct"]
    assert outcome.result["failed"] >= 1
    assert any(p.startswith("digest:") for p in outcome.checks.problems)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    outcome = _toy(name, tmp_path, trace=True)
    assert outcome.result["correct"], outcome.checks.problems
    assert list(outcome.result["metrics"]) == [m for m, _, _ in LAYER_METRICS]
    assert outcome.checks.ran["trace.counts_repeat"] == 1
    spans = json.loads((tmp_path / "out" / f"spans-{name}-seed3.json").read_text())
    assert spans["fields"][0] == "name" and spans["spans"]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(LAYER_METRICS)


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "ber-waterfall",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
