"""Run one workload of the repro benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload label --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace
1`` runs half the window untraced and half with per-layer wrappers, and
prints the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object; the exit code is 1 when a correctness
check fails and 2 when the run cannot start.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: Settings that change what is measured; the benchmark refuses to run
#: under any of them.
FORBIDDEN_ENV = ("REPRO_SOLVE_CACHE_DIR", "REPRO_SOLVE_CACHE", "REPRO_TRACE",
                 "REPRO_LOCK_WATCHDOG", "REPRO_MP_CONTEXT")

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def start_problem() -> str:
    """Why the run cannot start here, or '' when it can."""
    present = [name for name in FORBIDDEN_ENV if name in os.environ]
    if present:
        return f"unset {', '.join(present)}: each changes what is measured"
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        return f"library source not found at {SRC_DIR}"
    return ""


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = start_problem()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    import flow
    import report

    if args.workload not in flow.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(flow.WORKLOADS)}", file=sys.stderr)
        return 2
    for line in report.environment_lines():
        print(line)
    prep = flow.prepare(flow.WORKLOADS[args.workload], args.seed)
    warmup = flow.run_rep(prep)
    setup_s = time.perf_counter() - _T0
    result = report.measure(prep, warmup, setup_s, args.seconds,
                            bool(args.trace))
    for line in result.lines:
        print(line)
    print(json.dumps(result.record))
    return 0 if result.record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
