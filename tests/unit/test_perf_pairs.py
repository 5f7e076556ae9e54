"""``tools/perf_pairs.py``: alternating parent/change perfbench pairs.

A fake runner stands in for ``perfbench/run.py``: the tests pin the run
order (which side goes first alternates, seeds S..S+N-1, one traced pair
at S last), the two ``perfbench-suite/v1`` files — which perfbench's own
``compare`` must accept — the per-pair ratios, and that nothing is
written inside either checkout.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.bench import EXACT_METRICS  # noqa: E402
from perfbench.suite import compare_files  # noqa: E402

_spec = importlib.util.spec_from_file_location(
    "perf_pairs", ROOT / "tools" / "perf_pairs.py"
)
perf_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_pairs)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [metric["name"] for metric in SPEC["end_to_end"]]


@pytest.fixture
def checkouts(tmp_path):
    sides = {}
    for side in ("parent", "change"):
        sides[side] = tmp_path / side
        sides[side].mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", sides[side])
    return sides


def fake_runner(calls, speedup=1.25):
    """Records each call; the change side answers ``speedup``x the queries
    per second, and the traced runs answer identical exact counts."""

    def run(checkout, workload, seed, trace, out):
        calls.append((checkout.name, workload, seed, trace))
        names = EXACT_METRICS if trace else END_TO_END
        value = 10.0 * (speedup if checkout.name == "change" else 1.0)
        metrics = {m: {"value": value if m == "queries_per_s" else 5.0} for m in names}
        return {"metrics": metrics, "attempted": 20, "failed": 0}

    return run


def _argv(checkouts, out, *extra):
    return ["--parent", str(checkouts["parent"]), "--change", str(checkouts["change"]),
            "--out", str(out), *extra]


def test_pairs_alternate_and_the_traced_pair_comes_last(checkouts, tmp_path):
    calls = []
    argv = _argv(checkouts, tmp_path / "out", "--workload", "tpch_row_paper",
                 "--pairs", "4", "--seed", "7")
    assert perf_pairs.main(argv, run=fake_runner(calls)) == 0
    assert calls == [
        ("parent", "tpch_row_paper", 7, 0), ("change", "tpch_row_paper", 7, 0),
        ("change", "tpch_row_paper", 8, 0), ("parent", "tpch_row_paper", 8, 0),
        ("parent", "tpch_row_paper", 9, 0), ("change", "tpch_row_paper", 9, 0),
        ("change", "tpch_row_paper", 10, 0), ("parent", "tpch_row_paper", 10, 0),
        ("parent", "tpch_row_paper", 7, 1), ("change", "tpch_row_paper", 7, 1),
    ]
    ratios = json.loads((tmp_path / "out" / "pairs.json").read_text())
    assert [pair["queries_per_s"] for pair in ratios["tpch_row_paper"]] == [1.25] * 4
    assert ratios["tpch_row_paper"][0]["setup_s"] == 1.0


def test_the_suite_files_are_what_compare_reads(checkouts, tmp_path, capsys):
    out = tmp_path / "out"
    argv = _argv(checkouts, out, "--pairs", "3")
    assert perf_pairs.main(argv, run=fake_runner([])) == 0
    for side in ("parent", "change"):
        document = json.loads((out / f"{side}.json").read_text())
        assert document["schema"] == "perfbench-suite/v1" and not document["smoke"]
        assert list(document["workloads"]) == [w["name"] for w in SPEC["workloads"]]
        for entry in document["workloads"].values():
            assert all(len(entry["end_to_end"][m]) == 3 for m in END_TO_END)
            assert set(entry["per_layer"]) == set(EXACT_METRICS)
            assert (entry["attempted"], entry["failed"]) == (80, 0)
    assert compare_files(str(out / "parent.json"), str(out / "change.json")) == 0
    printed = capsys.readouterr().out
    assert "better" in printed and "MOVED" not in printed
    assert "exact counts compared at seed 1" in printed
    # Nothing landed in either checkout.
    assert sorted(p.name for p in checkouts["change"].iterdir()) == ["BENCHMARK.json"]


def test_out_inside_a_checkout_is_refused(checkouts):
    argv = _argv(checkouts, checkouts["change"] / "out")
    with pytest.raises(SystemExit):
        perf_pairs.main(argv, run=fake_runner([]))
    assert not (checkouts["change"] / "out").exists()


def test_a_run_is_one_run_py_process_outside_the_checkout(tmp_path, monkeypatch):
    seen = {}

    def fake_subprocess_run(command, cwd, env, **kwargs):
        seen.update(command=command, cwd=cwd, env=env)
        return subprocess.CompletedProcess(command, 0, stdout='noise\n{"failed": 0}\n')

    monkeypatch.setattr(perf_pairs.subprocess, "run", fake_subprocess_run)
    checkout, out = tmp_path / "change", tmp_path / "out"
    result = perf_pairs.perfbench_run(checkout, "plan_explain", 3, 0, out)
    assert result == {"failed": 0}
    assert seen["command"][1:] == [
        str(checkout / "perfbench" / "run.py"), "--workload", "plan_explain",
        "--seed", "3", "--trace", "0",
    ]
    assert seen["cwd"] == out
    assert seen["env"]["PYTHONPYCACHEPREFIX"] == str(out / "pycache")


def test_the_summary_reads_medians_and_better_pairs(checkouts, tmp_path, capsys):
    """The summary is the median change/parent ratio of each end-to-end
    metric and the count of pairs that moved its better way — higher for
    ``queries_per_s``, lower for the latencies — in ``pairs.json`` and on
    stderr."""
    speedups = iter([1.25, 0.8, 1.5, 1.1, 0.9])

    def run(checkout, workload, seed, trace, out):
        result = fake_runner([])(checkout, workload, seed, trace, out)
        if checkout.name == "change" and not trace:
            speedup = next(speedups)
            result["metrics"]["queries_per_s"]["value"] = 10.0 * speedup
            result["metrics"]["query_ms_p50"]["value"] = 5.0 / speedup
        return result

    argv = _argv(checkouts, tmp_path / "out", "--workload", "serve_ssb_mixed", "--pairs", "5")
    assert perf_pairs.main(argv, run=run) == 0
    summary = json.loads((tmp_path / "out" / "pairs.json").read_text())["summary"]
    cells = summary["serve_ssb_mixed"]
    assert set(cells) == set(END_TO_END)
    qps = cells["queries_per_s"]
    assert {key: qps[key] for key in ("median", "better", "pairs")} == {
        "median": 1.1, "better": 3, "pairs": 5}
    assert qps["parent"] == [10.0] * 3 and qps["change"] == pytest.approx([9.0, 11.0, 12.5])
    assert cells["query_ms_p50"]["median"] == pytest.approx(1 / 1.1)
    assert cells["query_ms_p50"]["better"] == 3
    assert {key: cells["setup_s"][key] for key in ("median", "better", "pairs")} == {
        "median": 1.0, "better": 0, "pairs": 5}
    assert not any(cell["gain"] for cell in cells.values())  # 3/5 is no gain
    printed = capsys.readouterr().err
    assert ("summary serve_ssb_mixed queries_per_s: median ratio 1.100, better in 3/5, "
            "gain not shown") in printed


def test_summarise_skips_metrics_without_a_ratio():
    ratios = {"w": [{"a": None, "b": 0.5}, {"a": None, "b": 2.0}, {"a": None, "b": 0.9}]}
    runs = {"parent": {"w": {"a": [0.0] * 3, "b": [2.0, 1.0, 10.0]}},
            "change": {"w": {"a": [1.0] * 3, "b": [1.0, 2.0, 9.0]}}}
    summary = perf_pairs.summarise(ratios, {"a": "lower", "b": "lower"}, runs)
    assert list(summary) == ["w"] and list(summary["w"]) == ["b"]
    cell = summary["w"]["b"]
    assert {key: cell[key] for key in ("median", "better", "pairs")} == {
        "median": 0.9, "better": 2, "pairs": 3}
    assert not cell["gain"]


def gain(parent, change, direction="higher"):
    """The summary's verdict on one metric's raw per-pair values."""
    ratios = {"w": [{"m": c / p} for p, c in zip(parent, change)]}
    runs = {"parent": {"w": {"m": parent}}, "change": {"w": {"m": change}}}
    return perf_pairs.summarise(ratios, {"m": direction}, runs)["w"]["m"]["gain"]


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_spread():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    assert gain(parent, [p * 1.2 for p in parent])
    assert gain(parent, [p / 1.2 for p in parent], "lower")
    # Nine wins and a tie: a tie counts for neither side.
    assert gain(parent, [p * 1.2 for p in parent[:9]] + parent[9:])
    # Eight wins of ten, though the medians lie far apart.
    assert not gain(parent, [p * 1.2 for p in parent[:8]] + [p * 0.95 for p in parent[8:]])
    # Ten wins of ten, by less than the parent's inter-quartile distance.
    wide = [5.0, 15.0, 6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 11.0]
    assert not gain(wide, [p * 1.05 for p in wide])


def test_per_statement_medians_come_from_each_run_s_typical_latencies(
    checkouts, tmp_path, capsys
):
    """After each untraced run the tool reads that checkout's
    ``perfbench/out/<workload>.trace0.json``; ``pairs.json["ops"]`` holds
    each statement's median change/parent ratio, fastest first, and the
    five largest movers each way go to stderr.  A traced run's file is
    never read."""
    speedups = iter([0.5, 0.6, 0.7])

    def run(checkout, workload, seed, trace, out):
        result = fake_runner([])(checkout, workload, seed, trace, out)
        if not trace:
            change = checkout.name == "change"
            factor = next(speedups) if change else 1.0
            typical = {f"IC+M/tpch.Q{q}": q * (factor if q == 1 else 1.0)
                       for q in range(1, 8)}
            typical["IC+M/tpch.Q7"] *= 1.1 if change else 1.0
            target = checkout / "perfbench" / "out"
            target.mkdir(parents=True, exist_ok=True)
            (target / f"{workload}.trace0.json").write_text(
                json.dumps({"op_typical_ms": typical}))
        return result

    argv = _argv(checkouts, tmp_path / "out", "--workload", "tpch_col_warm", "--pairs", "3")
    assert perf_pairs.main(argv, run=run) == 0
    ops = json.loads((tmp_path / "out" / "pairs.json").read_text())["ops"]
    medians = ops["tpch_col_warm"]
    assert list(medians)[0] == "IC+M/tpch.Q1" and medians["IC+M/tpch.Q1"] == 0.6
    assert medians["IC+M/tpch.Q7"] == pytest.approx(1.1)
    assert list(medians)[-1] == "IC+M/tpch.Q7" and len(medians) == 7
    printed = capsys.readouterr().err
    assert "ops tpch_col_warm faster: IC+M/tpch.Q1 0.600" in printed
    assert "ops tpch_col_warm slower: IC+M/tpch.Q7 1.100" in printed


def test_no_typical_latencies_means_no_ops(checkouts, tmp_path):
    argv = _argv(checkouts, tmp_path / "out", "--workload", "plan_explain", "--pairs", "2")
    assert perf_pairs.main(argv, run=fake_runner([])) == 0
    assert json.loads((tmp_path / "out" / "pairs.json").read_text())["ops"] == {}
