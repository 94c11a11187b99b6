"""Record the output digests that the benchmark checks, for the committed seeds.

Run from the repository root, on the code whose outputs are the reference:

    python3 benchmarks/record_digests.py

It runs every workload for a fixed number of rounds per committed seed
(more rounds than a timed run completes), checks every invariant, and
writes digests.json next to this file.  The digests hold only on the
platform recorded with them (CPU, OpenBLAS core, numpy/scipy/Python
versions): elsewhere float results may differ in the last bit, and the
benchmark then checks invariants only and says so in its host line.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402

SEEDS = tuple(range(11))
# Rounds per seed; the design and the curves do not depend on the seed.
ROUNDS = {"ber-waterfall": 16, "design-curve": 1}
SEED_FREE = ("design-curve",)


def main() -> int:
    host = harness.host_info("all", -1)
    workloads = {}
    for name, rounds in ROUNDS.items():
        recorded: dict[str, str] = {}
        seeds = SEEDS if name not in SEED_FREE else SEEDS[:1]
        for seed in seeds:
            outcome = harness.run_workload(name, seed, 0.0, False, record=recorded,
                                           rounds=rounds)
            if outcome.checks.problems:
                for problem in outcome.checks.problems:
                    print(f"{name} seed {seed}: {problem}", file=sys.stderr)
                return 1
            print(f"{name} seed {seed}: {len(recorded)} digests", flush=True)
        workloads[name] = dict(sorted(recorded.items()))
    payload = {"platform": harness.platform_key(host), "seeds": list(SEEDS),
               "rounds": ROUNDS, "workloads": workloads}
    harness.DIGESTS.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
