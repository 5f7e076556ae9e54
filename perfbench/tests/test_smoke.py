"""End to end on tiny data: every metric emitted, runs repeat, and the
benchmark refuses to run without a program to measure."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN_PY = ROOT / "perfbench" / "run.py"
OUT = ROOT / "perfbench" / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, seed=3):
    done = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT, timeout=170,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {
        name: reading["unit"] for name, reading in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in expected}
    for reading in result["metrics"].values():
        assert isinstance(reading["value"], (int, float))
    if not trace:
        # End-to-end metrics are never zero (the driver's rule).
        assert all(r["value"] > 0 for r in result["metrics"].values())
    report = json.loads((OUT / f"{workload}.trace{trace}.json").read_text())
    assert report["smoke"] is True and report["env"]["PYTHONHASHSEED"] == "0"
    if trace:
        assert report["unresolved"] == []
        assert result["metrics"]["perfbench.attributed_pct"]["value"] >= 95.0


def _exact(result):
    from perfbench.bench import EXACT_METRICS

    return {name: result["metrics"][name]["value"] for name in EXACT_METRICS}


def _op_sequence(workload):
    lines = (OUT / f"{workload}.spans.jsonl").read_text().splitlines()
    return [json.loads(line)["label"] for line in lines if '"label"' in line]


@pytest.mark.parametrize("workload", ["plan_explain", "serve_ssb_mixed"])
def test_same_seed_same_ops_and_same_exact_counts(workload):
    first = _run(workload, 1, seed=5)
    first_ops = _op_sequence(workload)
    second = _run(workload, 1, seed=5)
    assert _op_sequence(workload) == first_ops and len(first_ops) >= 10
    assert _exact(second) == _exact(first)
    other = _run(workload, 1, seed=6)
    assert _op_sequence(workload) != first_ops
    assert other["correct"] is True


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and perfbench/: non-zero
    exit and no result line (never an installed copy of ``repro``)."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan_explain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert "src/repro is missing" in done.stderr
