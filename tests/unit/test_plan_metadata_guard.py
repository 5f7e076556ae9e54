"""Tooling guard: each plan-metadata fact stays stated once.

In the style of ``test_charge_spec.py`` / ``test_lifecycle_guard.py``:
source-level checks that fail when a second column-lineage walker, a
second ``col <cmp> literal`` recogniser or a re-builder of the predicate an
index scan absorbed grows back (``docs/ARCHITECTURE.md`` "Plan metadata").
"""

import inspect
from pathlib import Path

import pytest

from repro.adaptive.controller import AdaptiveController
from repro.adaptive.feedback import FeedbackRegistry
from repro.adaptive.signature import operator_signature

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _count(needle: str, *relative: str) -> int:
    paths = [SRC / r for r in relative] if relative else SRC.rglob("*.py")
    return sum(path.read_text().count(needle) for path in paths)


def _files_with(needle: str):
    return sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if needle in path.read_text()
    )


def test_alias_dot_column_is_split_in_one_place():
    """``ScanColumns.column_names``; everyone else reads the property."""
    assert _count('.split(".", 1)[1]') == 1
    assert _files_with('.split(".", 1)[1]') == ["rel/logical.py"]


def test_column_origin_is_the_only_lineage_walk():
    """A lineage walk has to ask a join whether it projects its right
    input: the estimator may do so once (``distinct_count``, whose
    clamping is a different question), the redundant-equi analysis never."""
    assert _count("projects_right", "stats/estimator.py") <= 1
    assert _count("projects_right", "planner/volcano.py") == 0
    assert _count("def column_origin(") == 1


def test_comparisons_are_mirrored_only_by_the_recogniser():
    """``rel/expr.column_vs_literal``, plus the AST-level subquery code."""
    assert _files_with("MIRRORED") == ["rel/expr.py", "rel/sql2rel.py"]


@pytest.mark.parametrize(
    "function",
    [operator_signature, FeedbackRegistry.__init__, AdaptiveController.__init__],
    ids=lambda f: f.__qualname__,
)
def test_operator_signatures_need_no_store(function):
    assert "store" not in inspect.signature(function).parameters


@pytest.mark.parametrize(
    "needle",
    ["_index_bound", '"estimate_rows"', '"estimate_distinct"', '"trace_bounds"'],
)
def test_no_bound_rebuilder_and_no_unimplemented_delegate(needle):
    """Nothing rebuilds a predicate from ``PhysIndexScan.low``/``.high``
    (the scan carries ``bound_condition``), and the estimator has no
    duck-typed extension point that no class implements."""
    assert _files_with(needle) == []
