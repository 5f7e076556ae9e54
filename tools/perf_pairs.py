#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs, for a wall-clock claim.

    python3 tools/perf_pairs.py --parent P --change C --out DIR \\
        [--workload W ...] [--pairs 10] [--seed 1]

Pair i runs ``perfbench/run.py --trace 0`` at seed S+i on both checkouts
for each workload (default: all in the change's ``BENCHMARK.json``), the
parent first on even i; a traced pair at seed S follows.  Writes
``DIR/{parent,change}.json`` (``perfbench-suite/v1``, for ``run.py
compare`` when they hold every workload) and the per-pair change/parent
ratios, ``DIR/pairs.json``; bytecode goes to ``DIR/pycache``.  Per
workload and end-to-end metric, the median ratio, the number of pairs
that moved the better way, each side's quartiles and the gain verdict go
to stderr and to ``pairs.json["summary"]``: a gain holds when the change
wins at least nine tenths of the pairs (a tie counts for neither side)
and the two medians differ, the better way, by more than the distance
between the parent's quartiles.
Per statement, the median change/parent ratio of each untraced pair's
``op_typical_ms`` (what ``run.py`` leaves in the checkout's
``perfbench/out/<workload>.trace0.json``) goes to ``pairs.json["ops"]``,
and the five largest movers each way to stderr.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def perfbench_run(checkout, workload, seed, trace, out):
    """One ``run.py`` process of ``checkout``, run from ``out``; its result."""
    command = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload",
               workload, "--seed", str(seed), "--trace", str(trace)]
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(out / "pycache"))
    done = subprocess.run(command, cwd=out, env=env, stdout=subprocess.PIPE,
                          text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def op_typical(checkout, workload):
    """``{op: typical ms}`` of the checkout's last untraced run, or {}."""
    path = checkout / "perfbench" / "out" / f"{workload}.trace0.json"
    return json.loads(path.read_text()).get("op_typical_ms", {}) if path.exists() else {}


def op_medians(op_ratios):
    """``{workload: {op: median change/parent ratio}}``, fastest first."""
    return {workload: dict(sorted(
        ((op, statistics.median(values)) for op, values in ops.items()),
        key=lambda item: item[1])) for workload, ops in op_ratios.items()}


def quartiles(values):
    """``[lower quartile, median, upper quartile]`` of ``values``."""
    if len(values) < 2:
        return [values[0]] * 3
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return [low, median, high]


def summarise(ratios, better, runs):
    """``{workload: {metric: {"median", "better", "pairs", "parent",
    "change", "gain"}}}``: the median change/parent ratio of each metric
    in ``better`` (metric -> "higher" or "lower"), how many of its pairs
    moved that way, each side's quartiles of ``runs`` (``{side: {workload:
    {metric: [value per pair]}}}``) and the verdict: at least nine tenths
    of the pairs won, and the medians apart, the better way, by more than
    the parent's inter-quartile distance."""
    summary = {}
    for workload, pairs in ratios.items():
        for metric, direction in better.items():
            values = [pair[metric] for pair in pairs if pair.get(metric) is not None]
            if not values:
                continue
            won = sum(v > 1 if direction == "higher" else v < 1 for v in values)
            parent, change = (quartiles(runs[side][workload][metric]) for side in SIDES)
            gap = change[1] - parent[1] if direction == "higher" else parent[1] - change[1]
            summary.setdefault(workload, {})[metric] = {
                "median": statistics.median(values), "better": won, "pairs": len(values),
                "parent": parent, "change": change,
                "gain": 10 * won >= 9 * len(values) and gap > parent[2] - parent[0]}
    return summary


def main(argv=None, run=perfbench_run) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag in ("--parent", "--change", "--out"):
        parser.add_argument(flag, required=True, type=lambda p: Path(p).resolve())
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if any(c == args.out or c in args.out.parents for c in (args.parent, args.change)):
        parser.error("--out must lie outside both checkouts")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    env = {"python": platform.python_version(), "nproc": os.cpu_count()}
    docs = {side: {"schema": "perfbench-suite/v1", "smoke": False, "seed": args.seed,
                   "repeats": args.pairs, "seconds": spec["run_seconds"], "env": env,
                   "workloads": {}} for side in SIDES}
    ratios, op_ratios = {}, {}
    args.out.mkdir(parents=True, exist_ok=True)
    for i in range(args.pairs + 1):  # the last pair is the traced one
        trace, seed = (1, args.seed) if i == args.pairs else (0, args.seed + i)
        for workload in workloads:
            got, typical = {}, {}
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                result = run(getattr(args, side), workload, seed, trace, args.out)
                got[side] = {m: r["value"] for m, r in result["metrics"].items()}
                typical[side] = {} if trace else op_typical(getattr(args, side), workload)
                entry = docs[side]["workloads"].setdefault(workload, {
                    "end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0})
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                if trace:
                    entry["per_layer"].update(got[side])
                for metric, value in [] if trace else got[side].items():
                    entry["end_to_end"].setdefault(metric, []).append(value)
            if not trace:
                base, new = got["parent"], got["change"]
                ratio = {m: new[m] / v if v else None for m, v in base.items()}
                ratios.setdefault(workload, []).append(ratio)
                print(f"pair {i + 1} {workload}: {ratio}", file=sys.stderr)
                for op, ms in typical["parent"].items():
                    if ms and op in typical["change"]:
                        op_ratios.setdefault(workload, {}).setdefault(op, []).append(
                            typical["change"][op] / ms)
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    runs = {side: {workload: entry["end_to_end"] for workload, entry in doc["workloads"].items()}
            for side, doc in docs.items()}
    summary = summarise(ratios, better, runs)
    for workload, metrics in summary.items():
        for metric, line in metrics.items():
            print(f"summary {workload} {metric}: median ratio {line['median']:.3f}, "
                  f"better in {line['better']}/{line['pairs']}, "
                  f"gain {'holds' if line['gain'] else 'not shown'}", file=sys.stderr)
    ops = op_medians(op_ratios)
    for workload, medians in ops.items():
        movers = list(medians.items())
        for label, chosen in (("faster", movers[:5]), ("slower", movers[::-1][:5])):
            print(f"ops {workload} {label}: " + ", ".join(
                f"{op} {ratio:.3f}" for op, ratio in chosen), file=sys.stderr)
    pairs = {**ratios, "summary": summary, "ops": ops}
    for name, document in [*docs.items(), ("pairs", pairs)]:
        (args.out / f"{name}.json").write_text(json.dumps(document, indent=1) + "\n")
    return int(any(w["failed"] for d in docs.values() for w in d["workloads"].values()))


if __name__ == "__main__":
    sys.exit(main())
