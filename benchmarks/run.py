"""ibquant benchmark: runs one workload and prints one JSON result line.

Run from the repository root:

    python3 benchmarks/run.py --workload ber-waterfall --seed 1 --seconds 50 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  A JSON line with the host and settings precedes
the result, which is always the last line of standard output.  See
README.md next to this file for the workloads and metrics.
"""

import os

# One BLAS thread, set before numpy loads: on a 2-core host extra threads add
# scheduler noise, and the thread count can change float summation order and
# so the output digests.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    if not (SRC / "ibquant" / "__init__.py").is_file():
        print(f"error: the ibquant sources are missing: no {SRC / 'ibquant'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import ibquant
    if Path(ibquant.__file__).resolve().parent != SRC / "ibquant":
        print(f"error: imported ibquant from {ibquant.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness  # after the path and the thread pin are set
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    host = harness.host_info(args.workload, args.seed)
    digests, digest_status = harness.load_digests(args.workload, host)
    host["digests"] = digest_status
    print(json.dumps({"host": host}), flush=True)
    outcome = harness.run_workload(args.workload, args.seed, args.seconds,
                                   bool(args.trace), digests=digests)
    for problem in outcome.checks.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"checks": dict(sorted(outcome.checks.ran.items()))}), flush=True)
    print(json.dumps(outcome.result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
