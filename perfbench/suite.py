"""A complete set of runs, and the comparison of two sets.

``run_suite`` runs every workload in fresh subprocesses, one after the
other (the box has two cores: one measuring process at a time), and
writes one JSON document.  ``compare_files`` judges two such documents by
the bounds in ``BENCHMARK.json``: the tool behind "two sets of runs of the
same commit agree" and behind any later before/after claim.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import List

from perfbench import stats
from perfbench.bench import EXACT_METRICS, OUT_DIR, environment, load_spec

RUN_PY = Path(__file__).resolve().parent / "run.py"
SUITE_SCHEMA = "perfbench-suite/v1"


def _run_once(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    command = [
        sys.executable, str(RUN_PY), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_suite(out, seed: int, repeats: int, seconds: float, smoke: bool) -> int:
    """``repeats`` untraced runs (seeds ``seed..``) + one traced run per workload."""
    spec = load_spec()
    document = {
        "schema": SUITE_SCHEMA, "smoke": smoke, "seed": seed, "repeats": repeats,
        "seconds": seconds, "env": environment(), "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        entry = {"end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0}
        plan = [(0, seed + i) for i in range(repeats)] + [(1, seed)]
        for trace, run_seed in plan:
            result = _run_once(name, run_seed, seconds, trace, smoke)
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            for metric, reading in result["metrics"].items():
                if trace:
                    entry["per_layer"][metric] = reading["value"]
                else:
                    entry["end_to_end"].setdefault(metric, []).append(reading["value"])
            print(
                f"{name} seed={run_seed} trace={trace}: "
                f"{result['failed']}/{result['attempted']} failed",
                file=sys.stderr,
            )
        document["workloads"][name] = entry
    out = Path(out) if out else OUT_DIR / "suite.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    print_summary(document, spec)
    print(f"wrote {out}")
    return 1 if any(w["failed"] for w in document["workloads"].values()) else 0


def print_summary(document: dict, spec: dict) -> None:
    """Median and quartile spread of every end-to-end metric, per workload."""
    print(f"{'workload':<16} {'metric':<18} {'median':>12} {'unit':<5} {'spread':>7}  n")
    for name, entry in document["workloads"].items():
        for metric in spec["end_to_end"]:
            values = entry["end_to_end"][metric["name"]]
            spread = f"{stats.quartile_spread(values):7.2%}" if len(values) > 1 else "      -"
            print(
                f"{name:<16} {metric['name']:<18} {stats.median(values):>12.4f} "
                f"{metric['unit']:<5} {spread}  {len(values)}"
            )
        share = entry["failed"] / entry["attempted"]
        print(f"{name:<16} {'failed_share':<18} {share:>12.4f} ratio")


# -- compare -----------------------------------------------------------------


def _load_suite(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != SUITE_SCHEMA:
        raise SystemExit(f"perfbench compare: {path} is not a {SUITE_SCHEMA} file")
    if document["smoke"]:
        raise SystemExit(
            f"perfbench compare: {path} is a --smoke run; smoke numbers are "
            "not measurements and are never compared"
        )
    return document


def verdict(a: List[float], b: List[float], better: str, bound: float):
    """``(median a, median b, spread, verdict)`` for one metric on one workload.

    ``unresolved`` when either side's run-to-run quartile spread is wider
    than the bound: the runs cannot tell a change of that size from noise.
    """
    base, new = stats.median(a), stats.median(b)
    spread = max(
        (stats.quartile_spread(side) for side in (a, b) if len(side) > 1),
        default=0.0,
    )
    worse_by = (new - base) / base * (1 if better == "lower" else -1)
    if spread > bound:
        word = "unresolved"
    elif worse_by > bound:
        word = "worse"
    elif worse_by < -bound:
        word = "better"
    else:
        word = "same"
    return base, new, spread, word


def compare_files(path_a: str, path_b: str) -> int:
    """Print B against base A; non-zero when B is worse, failed or MOVED."""
    spec = load_spec()
    a, b = _load_suite(path_a), _load_suite(path_b)
    bad = False
    print(f"base A = {path_a}   B = {path_b}")
    print(
        f"{'workload':<16} {'metric':<18} {'A':>12} {'B':>12} {'B/A':>7} "
        f"{'spread':>7} {'bound':>6}  verdict"
    )
    for workload in spec["workloads"]:
        name = workload["name"]
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            base, new, spread, word = verdict(
                wa["end_to_end"][metric["name"]], wb["end_to_end"][metric["name"]],
                metric["better"], metric["bound"],
            )
            bad |= word == "worse"
            print(
                f"{name:<16} {metric['name']:<18} {base:>12.4f} {new:>12.4f} "
                f"{new / base:>7.3f} {spread:>7.2%} {metric['bound']:>6.0%}  "
                f"{word} ({metric['unit']}, {metric['better']} is better)"
            )
        shares = [w["failed"] / w["attempted"] for w in (wa, wb)]
        failed = any(shares)
        bad |= failed
        print(
            f"{name:<16} {'failed_share':<18} {shares[0]:>12.4f} {shares[1]:>12.4f} "
            f"{'':>7} {'':>7} {'0':>6}  {'worse' if failed else 'same'}"
        )
    # Exact counts depend on the seed (op order, serve traffic).
    if a["seed"] != b["seed"]:
        print(f"exact counts not compared: seeds differ ({a['seed']} vs {b['seed']})")
        return int(bad)
    checked = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        for metric in EXACT_METRICS:
            va = a["workloads"][name]["per_layer"][metric]
            vb = b["workloads"][name]["per_layer"][metric]
            checked += 1
            if va != vb:
                bad = True
                print(f"MOVED {name} {metric}: A={va!r} B={vb!r}")
    print(f"{checked} exact counts compared at seed {a['seed']}")
    return int(bad)
