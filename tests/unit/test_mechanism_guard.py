"""Tooling guard: each folded mechanism stays written once.

In the style of ``test_plan_metadata_guard.py``: source-level checks that
fail when a restated copy grows back — a hand-written comma loop in the
parser, a second "split the conjuncts by join side" loop in the Hep rules,
a per-phase aggregate kernel or an operator ladder in the columnar backend,
or a second counter-row sketch body (``docs/ARCHITECTURE.md`` §1, §3, §14
and §16).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _count(needle: str, relative: str) -> int:
    return (SRC / relative).read_text().count(needle)


def test_the_parser_has_one_comma_loop():
    """``_Parser._comma_list`` serves every list production."""
    assert _count('while self._accept_symbol(",")', "sql/parser.py") == 1


def test_the_hep_rules_split_conjuncts_by_side_once():
    """``rules._push_to_inputs`` serves JoinConditionPush,
    FilterJoinTranspose and FilterCorrelate alike."""
    assert _count("rex.is_literal_condition(", "planner/rules.py") == 1


def test_one_columnar_aggregate_kernel_and_no_operator_ladder():
    assert _count("_reduce_columns", "exec/columnar.py") == 0
    assert _count('if op == "<="', "exec/columnar.py") == 0


def test_counter_row_sketches_share_one_body():
    """``merge``, ``copy`` and ``state_bytes`` are defined once each
    outside ``HyperLogLog`` (the counter-row base of Count-Min and
    Fast-AGMS)."""
    tree = ast.parse((SRC / "stats" / "sketches.py").read_text())
    defined = [
        item.name
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name != "HyperLogLog"
        for item in node.body
        if isinstance(item, ast.FunctionDef)
    ]
    for name in ("merge", "copy", "state_bytes"):
        assert defined.count(name) == 1, name
