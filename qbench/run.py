"""qpotlab benchmark: end-to-end and per-layer metrics for four workloads.

Run from the root of a checkout:

    python3 qbench/run.py --workload evolve-periodic --seed 1 --seconds 20 --trace 0
    python3 qbench/run.py --workload all --seed 1 --seconds 20 --trace both

``--trace 0`` measures the end-to-end metrics with tracing off, ``--trace 1``
runs untraced and traced passes in turn and reports the per-layer metrics,
and ``both`` does one after the other.  ``--smoke`` shrinks every workload
for the benchmark's own tests.  Every metric is printed by name with its
unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when a correctness check fails and 2 when the checkout holds no qpotlab
source, in which case no result is printed.

Load model: a closed loop with one client.  One process runs passes back
to back, with BLAS and OpenMP pools capped at the number of usable cores.

This file only locates the package and caps the thread pools, which must
happen before numpy is imported; the measuring lives in ``measure.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="qbench", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="workload name from BENCHMARK.json, or 'all'")
    p.add_argument("--seed", type=int, default=0, help="workload seed (inputs are a function of it)")
    p.add_argument("--seconds", type=float, default=10.0, help="measuring time per mode")
    p.add_argument("--trace", choices=("0", "1", "both"), default="0")
    p.add_argument("--smoke", action="store_true", help="reduced sizes")
    # Internal: build one workload's inputs into DIR and exit (times set-up).
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "qpotlab" / "__init__.py").is_file():
        print(f"qbench: no qpotlab source under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names and args.workload != "all":
        print(f"qbench: unknown workload {args.workload!r} (one of {names} or 'all')", file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ.setdefault(var, threads)
    sys.path.insert(0, str(SRC))

    import measure

    return measure.main(args, bench, names)


if __name__ == "__main__":
    sys.exit(main())
