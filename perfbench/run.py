#!/usr/bin/env python3
"""perfbench entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
        one run of one workload; the last stdout line is the result object
    python3 perfbench/run.py suite --out A.json [--repeats R] [--seed N]
        every workload in fresh subprocesses: R untraced runs + 1 traced
    python3 perfbench/run.py compare A.json B.json
    python3 perfbench/run.py --regen-golden

Add ``--smoke`` to the first two for tiny data and one pass.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Process-level noise hygiene, applied by re-executing the interpreter:
#: string hashing (hence set order) fixed, native libraries single-threaded.
HYGIENE = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _bootstrap() -> None:
    """Find the program under test, pin the environment, fix ``sys.path``."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        # Never fall back to an installed copy: the benchmark measures the
        # checkout it sits in.
        sys.exit(f"perfbench: no program to measure: {ROOT}/src/repro is missing")
    env = dict(os.environ)
    # Every workload names its backend; the process-wide default must not leak in.
    env.pop("REPRO_EXECUTION_BACKEND", None)
    env.update(HYGIENE)
    if env != dict(os.environ):
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv) -> int:
    _bootstrap()
    if argv and argv[0] == "compare":
        from perfbench.suite import compare_files

        return compare_files(*argv[1:])
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("action", nargs="?", choices=["suite"])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--regen-golden", action="store_true")
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.regen_golden:
        from perfbench.check import regenerate_golden

        regenerate_golden()
        return 0
    from perfbench import bench

    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(bench.load_spec()["run_seconds"])
    if args.action == "suite":
        from perfbench.suite import run_suite

        return run_suite(args.out, args.seed, args.repeats, args.seconds, args.smoke)
    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    result = bench.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
