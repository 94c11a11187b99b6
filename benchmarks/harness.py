"""Runs one workload: set-up, warm-up, timed rounds, checks and metrics.

Untraced runs (``trace=False``) report the end-to-end metrics.  Traced runs
alternate an untraced and a traced round on identical inputs and report the
per-layer metrics, including the tracing overhead.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from tracing import LAYER_METRICS, Tracer, layer_metrics, round_signature
from workloads import FULL, WORKLOADS, Checks, Op, Sizes, file_digest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
OUT_ROOT = ROOT / ".bench_out"

END_TO_END = (
    ("lead_call_s", "s", "lower"),
    ("companion_calls_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Import time of the package in a fresh interpreter, printed by the child.
_IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                 "import ibquant; print(time.perf_counter() - t)")


# ---------------------------------------------------------------------------
# host and settings


def _openblas() -> list[dict]:
    """Config string, core and thread count of each OpenBLAS loaded.

    numpy and scipy wheels each bundle their own copy.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for stem in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}"):
            try:
                config, core, threads = (getattr(lib, stem.format(f)) for f in
                                         ("get_config", "get_corename", "get_num_threads"))
            except AttributeError:
                continue
            config.restype = core.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            found.append({"library": Path(path).name, "config": config().decode(),
                          "core": core().decode(), "threads": threads()})
            break
    return found


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def host_info(workload: str, seed: int) -> dict:
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {}).get("found", [])
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "numpy_simd": list(simd),
        "commit": _commit(),
        "workload": workload,
        "seed": seed,
    }


def platform_key(host: dict) -> str:
    """What the recorded digests depend on besides the code and the seed."""
    cores = ",".join(f"{b['library']}:{b['core']}" for b in host["openblas"])
    return "/".join([host["machine"], cores, f"numpy {host['numpy']}",
                     f"scipy {host['scipy']}", f"python {host['python']}",
                     ",".join(host["numpy_simd"])])


def load_digests(workload: str, host: dict) -> tuple[dict | None, str]:
    """Recorded digests for this workload, or None with the reason."""
    if not DIGESTS.exists():
        return None, "no digests recorded"
    recorded = json.loads(DIGESTS.read_text())
    if recorded["platform"] != platform_key(host):
        return None, f"digests were recorded on {recorded['platform']}"
    return recorded["workloads"].get(workload, {}), "checked"


# ---------------------------------------------------------------------------
# operations


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    checks: Checks = field(default_factory=Checks)


def run_op(op: Op, out_dir: Path, tally: Tally, digests: dict | None,
           record: dict | None) -> float | None:
    """Time one call, check its output; returns its seconds, None if it failed."""
    tally.attempted += 1
    problems_before = len(tally.checks.problems)
    files: list[Path] = []
    try:
        start = time.perf_counter()
        result = op.call()
        elapsed = time.perf_counter() - start
        files = op.check(result, out_dir, tally.checks)
        if op.digest_key is not None and files:
            digest = file_digest(files)
            if record is not None:
                record[op.digest_key] = digest
            elif digests is not None:
                expected = digests.get(op.digest_key)
                if expected is None:
                    tally.checks.ran["digest.unrecorded"] += 1
                else:
                    tally.checks.expect("digest", digest == expected,
                                        f"{op.digest_key}: {digest}, recorded {expected}")
    except Exception as exc:  # one failed operation must not end the run
        tally.checks.problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)
        elapsed = None
    finally:
        for path in files:
            path.unlink(missing_ok=True)
    if len(tally.checks.problems) > problems_before:
        tally.failed += 1
        return None
    return elapsed


def _setup_samples(workload, sizes: Sizes, repeats: int) -> tuple[list[float], dict]:
    """``repeats`` set-up times and the last state.

    One sample is the import time of ``ibquant`` in a fresh interpreter plus
    one in-process set-up.
    """
    samples, state = [], None
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                             capture_output=True, text=True, timeout=120, check=True)
        start = time.perf_counter()
        state = workload.setup(sizes)
        samples.append(float(out.stdout.strip()) + time.perf_counter() - start)
    return samples, state


@dataclass
class Outcome:
    result: dict
    checks: Checks


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 sizes: Sizes = FULL, digests: dict | None = None,
                 record: dict | None = None, rounds: int | None = None,
                 out_root: Path = OUT_ROOT) -> Outcome:
    """Run one workload for ``seconds`` (or exactly ``rounds`` rounds).

    ``digests`` maps digest keys to recorded digests and is checked;
    ``record`` collects the digests instead.
    """
    workload = WORKLOADS[name]
    tally = Tally()
    out_dir = out_root / f"{name}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        setups, state = _setup_samples(workload, sizes, sizes.setup_repeats)
        for op in workload.setup_ops(state) + workload.warmup_ops(state):
            run_op(op, out_dir, tally, digests, record)

        def play(round_index: int) -> list[float] | None:
            ops = workload.round_ops(state, seed, round_index)
            times = [run_op(op, out_dir, tally, digests, record) for op in ops]
            return None if None in times else times

        if trace:
            metrics = _traced_rounds(workload, sizes, play, seconds, rounds, tally,
                                     out_root / f"spans-{name}-seed{seed}.json")
        else:
            metrics = _timed_rounds(play, seconds, rounds)
            # Half the set-up samples before the rounds, half after: the host's
            # speed drifts in phases, and one burst of samples sees only one.
            setups += _setup_samples(workload, sizes, sizes.setup_repeats)[0]
            print(json.dumps({"setup_s": setups}), file=sys.stderr)
            metrics["setup_s"] = (statistics.median(setups), "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_root.rmdir()
        except OSError:
            pass  # another run still uses it, or it held foreign files

    result = {
        "correct": not tally.checks.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return Outcome(result, tally.checks)


def _more_rounds(done: int, elapsed: float, seconds: float, rounds: int | None) -> bool:
    """Fixed count if given; otherwise stop before a round would pass the budget."""
    if rounds is not None:
        return done < rounds
    return elapsed * (done + 1) / done <= seconds


def _timed_rounds(play, seconds: float, rounds: int | None) -> dict:
    lead, companions = [], []
    start = time.perf_counter()
    done = 0
    while True:
        times = play(done)
        done += 1
        if times is not None:
            lead.append(times[0])
            companions.append(sum(times[1:]))
        if not _more_rounds(done, time.perf_counter() - start, seconds, rounds):
            break
    if not lead:
        raise RuntimeError("every round failed; nothing was measured")
    print(json.dumps({"rounds": {"lead_call_s": lead, "companion_calls_s": companions}}),
          file=sys.stderr)
    return {"lead_call_s": (statistics.median(lead), "s"),
            "companion_calls_s": (statistics.median(companions), "s")}


def _traced_rounds(workload, sizes: Sizes, play, seconds: float, rounds: int | None,
                   tally: Tally, spans_path: Path) -> dict:
    """Pairs of untraced and traced rounds, all on the inputs of round 0.

    The spans are written to ``spans_path`` at the end.
    """
    tracer = Tracer()
    tracer.install()
    try:
        workload.setup(sizes)
    finally:
        tracer.uninstall()
    plain, traced, phases = [], [], []
    start = time.perf_counter()
    done = 0
    while True:
        times = play(0)
        tracer.phase = f"round{done}"
        tracer.install()
        try:
            traced_times = play(0)
        finally:
            tracer.uninstall()
        done += 1
        if times is not None and traced_times is not None:
            plain.append(sum(times))
            traced.append(sum(traced_times))
            phases.append(tracer.phase)
        if not _more_rounds(done, time.perf_counter() - start, seconds, rounds):
            break
    if not phases:
        raise RuntimeError("every traced round failed; nothing was measured")
    signatures = {round_signature(tracer, p) for p in phases}
    tally.checks.expect("trace.counts_repeat", len(signatures) == 1,
                        "identical rounds made different calls or counts")
    tracer.write(spans_path)
    print(f"spans: {spans_path}", file=sys.stderr)
    overhead = statistics.median(traced) - statistics.median(plain)
    values = layer_metrics(tracer, phases, overhead)
    return {name: (values[name], unit) for name, unit, _ in LAYER_METRICS}
