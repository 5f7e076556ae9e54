"""``compare``: verdicts under the BENCHMARK.json bounds."""

import json

import pytest

from perfbench import suite
from perfbench.bench import EXACT_METRICS, load_spec


def test_verdicts():
    steady = [100, 101, 99, 100, 100]
    assert suite.verdict(steady, [104, 105, 103, 104, 104], "lower", 0.10)[3] == "same"
    assert suite.verdict(steady, [120, 121, 119, 120, 120], "lower", 0.10)[3] == "worse"
    assert suite.verdict(steady, [80, 81, 79, 80, 80], "lower", 0.10)[3] == "better"
    assert suite.verdict(steady, [80, 81, 79, 80, 80], "higher", 0.10)[3] == "worse"
    # B's quartiles are 30 % of its median apart: no verdict at a 10 % bound.
    noisy = [70, 85, 100, 115, 130]
    base, new, spread, word = suite.verdict(steady, noisy, "lower", 0.10)
    assert word == "unresolved" and spread > 0.10 and (base, new) == (100, 100)


def _suite_file(tmp_path, name, scale=1.0, smoke=False, seed=1, moved=None, failed=0):
    spec = load_spec()
    workloads = {}
    for workload in spec["workloads"]:
        per_layer = {m["name"]: 1.0 for m in spec["per_layer"]}
        if moved:
            per_layer[moved] = 2.0
        workloads[workload["name"]] = {
            "end_to_end": {
                m["name"]: [10.0 * scale, 10.1 * scale, 9.9 * scale]
                for m in spec["end_to_end"]
            },
            "per_layer": per_layer, "attempted": 100, "failed": failed,
        }
    path = tmp_path / name
    path.write_text(json.dumps({
        "schema": suite.SUITE_SCHEMA, "smoke": smoke, "seed": seed,
        "repeats": 3, "seconds": 1, "env": {}, "workloads": workloads,
    }))
    return str(path)


def test_equal_sets_agree(tmp_path, capsys):
    a = _suite_file(tmp_path, "a.json")
    assert suite.compare_files(a, _suite_file(tmp_path, "b.json", scale=1.02)) == 0
    out = capsys.readouterr().out
    assert "same" in out and "worse" not in out
    assert f"{4 * len(EXACT_METRICS)} exact counts compared" in out


def test_moved_exact_count_exits_nonzero(tmp_path, capsys):
    a = _suite_file(tmp_path, "a.json")
    b = _suite_file(tmp_path, "b.json", moved="exec.work_units")
    assert suite.compare_files(a, b) == 1
    assert "MOVED tpch_row_paper exec.work_units" in capsys.readouterr().out


def test_failed_ops_exit_nonzero(tmp_path):
    a = _suite_file(tmp_path, "a.json")
    assert suite.compare_files(a, _suite_file(tmp_path, "b.json", failed=1)) == 1


def test_different_seeds_skip_exact_counts(tmp_path, capsys):
    a = _suite_file(tmp_path, "a.json")
    b = _suite_file(tmp_path, "b.json", seed=2, moved="exec.work_units")
    assert suite.compare_files(a, b) == 0
    assert "seeds differ" in capsys.readouterr().out


def test_smoke_files_are_refused(tmp_path):
    a = _suite_file(tmp_path, "a.json")
    with pytest.raises(SystemExit):
        suite.compare_files(a, _suite_file(tmp_path, "b.json", smoke=True))
