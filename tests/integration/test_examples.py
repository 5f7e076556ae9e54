"""Every script under ``examples/`` runs, at its smallest size."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: script -> arguments of its ``main`` (``PATH`` = a temporary file).
SMALLEST = {
    "quickstart.py": (),
    "planner_anatomy.py": (),
    "tpch_showdown.py": (0.02,),
    "multi_client_workload.py": (0.1, (4,), (2,)),
    "regenerate_report.py": ("PATH", (0.1,), (4,), (2,)),
}


def test_every_example_is_listed():
    assert sorted(p.name for p in EXAMPLES.glob("*.py")) == sorted(SMALLEST)


@pytest.mark.parametrize("script", sorted(SMALLEST))
def test_example_runs(script, tmp_path, capsys):
    report = tmp_path / "RESULTS.md"
    args = [report if arg == "PATH" else arg for arg in SMALLEST[script]]
    runpy.run_path(str(EXAMPLES / script))["main"](*args)
    assert capsys.readouterr().out.strip()
    if "PATH" in SMALLEST[script]:
        sections = report.read_text().count("\n### ")
        assert sections == 5
