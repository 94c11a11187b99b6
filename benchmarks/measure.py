"""Measure every workload over several seeds and append an entry to trajectory.json.

Run from the repository root:

    python3 benchmarks/measure.py --label "<commit> <what changed>"

For each workload of BENCHMARK.json it runs ``run.py`` untraced once per
seed 1-10 and traced twice on seed 1 (so that the count metrics can be
compared between runs), one process at a time.  The entry holds each
end-to-end metric's median, quartiles and spread (interquartile range over
median) across seeds, the per-layer metrics of the first traced run, and
whether the counts repeated.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TRAJECTORY = BENCH_DIR / "trajectory.json"
REPEATING_UNITS = ("count", "ratio")  # per-layer metrics that must repeat exactly
SEEDS = tuple(range(1, 11))
TRACE_SEEDS = (1, 1)  # the same seed twice, so that the counts can be compared


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """(host line, result line, wall seconds) of one benchmark process."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["host"], json.loads(lines[-1]), wall


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    seconds = SPEC["run_seconds"]

    entry = {"label": args.label, "run_seconds": seconds, "seeds": list(SEEDS),
             "trace_seeds": list(TRACE_SEEDS), "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        results, walls = [], []
        for seed in SEEDS:
            host, result, wall = run_once(workload, seed, seconds, 0)
            results.append(result)
            walls.append(wall)
            entry.setdefault("host", {k: v for k, v in host.items()
                                      if k not in ("workload", "seed")})
        traced = [run_once(workload, seed, seconds, 1)[1] for seed in TRACE_SEEDS]
        layers = [r["metrics"] for r in traced]
        repeating = [m["name"] for m in SPEC["per_layer"]
                     if m["unit"] in REPEATING_UNITS]
        entry["workloads"][workload] = {
            "correct": all(r["correct"] for r in results + traced),
            "attempted": sum(r["attempted"] for r in results + traced),
            "failed": sum(r["failed"] for r in results + traced),
            "max_run_wall_s": max(walls),
            "end_to_end": {
                m["name"]: dict(summarize([r["metrics"][m["name"]]["value"] for r in results]),
                                unit=m["unit"])
                for m in SPEC["end_to_end"]},
            "per_layer": layers[0],
            "counts_repeat": all(l[name] == layers[0][name] for l in layers for name in repeating),
        }
        summary = entry["workloads"][workload]
        print(workload, json.dumps({k: round(v["spread"], 4)
                                    for k, v in summary["end_to_end"].items()}),
              "correct" if summary["correct"] else "INCORRECT",
              "counts repeat" if summary["counts_repeat"] else "COUNTS DIFFER", flush=True)

    trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    trajectory.append(entry)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
