"""Shared fixtures for the paper-reproduction benchmarks.

Every figure/table benchmark takes its artefact from one session-scoped
:class:`repro.bench.reporting.PaperRun` — the object ``repro-bench
figure*`` prints — so each (system, sites, scale factor) cell is measured
once per session.  A benchmark file holds what is its own: the paper's
shape assertions for that artefact and a pytest-benchmark timing of a
representative piece of real work.

Environment knobs:

* ``REPRO_BENCH_SF``   — comma-separated scale factors (default "0.5,1").
* ``REPRO_BENCH_SITES`` — comma-separated site counts (default "4,8").
"""

from __future__ import annotations

import os

import pytest

from repro.bench.reporting import PaperRun


@pytest.fixture(scope="session")
def paper_run() -> PaperRun:
    sf = os.environ.get("REPRO_BENCH_SF", "0.5,1").split(",")
    sites = os.environ.get("REPRO_BENCH_SITES", "4,8").split(",")
    return PaperRun([float(x) for x in sf], [int(x) for x in sites])


@pytest.fixture
def show(capsys):
    """Print an artefact's text under pytest's capture."""

    def emit(text: str) -> None:
        with capsys.disabled():
            print("\n" + text)

    return emit
