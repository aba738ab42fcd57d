"""The repository benchmark: one command, four workloads.

Usage::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: ``drive-bonsai``, ``drive-baseline``, ``drive-hw`` and
``map-serve`` (see ``perfbench/README.md`` and ``BENCHMARK.json``).  Every
run generates its inputs from ``--seed`` in set-up, measures a closed loop
for ``--seconds``, checks every output against a reference computed by a
different path, and prints a report followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics; with ``--trace 1`` the run is split into
an untraced and a traced half and the metrics are the per-layer ones.

Exit status: 0 when every output matched, 1 on any mismatch, 2 when the
program under test cannot be found or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("drive-bonsai", "drive-baseline", "drive-hw", "map-serve")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="input size; 'smoke' is the self-test's tiny scale")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one output before the check (self-test)")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    # One BLAS thread, set before NumPy loads: the load comes from the
    # benchmark's own threads and the service's workers only.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")  # repro-lint: disable=determinism-env-read -- pins BLAS threads
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    from common import stop_child_processes

    try:
        return _run(args)
    finally:
        # On every path out, so no helper process outlives the run.
        stop_child_processes()


def _run(args) -> int:
    from common import environment_lines

    if args.workload == "map-serve":
        import mapserve as workload
        workers, clients = workload.WORKERS, workload.CLIENTS
    else:
        import drive as workload
        workers, clients = 0, 1

    for line in environment_lines(workers, clients):
        print(line)
    print(f"seed: {args.seed}; seconds: {args.seconds:g}; trace: {args.trace}; "
          f"scale: {args.scale}")
    sys.stdout.flush()

    outcome = workload.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), scale_name=args.scale,
                           inject_fault=args.inject_fault)
    for line in outcome.lines:
        print(line)
    for name, (value, _) in outcome.metrics.items():
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
