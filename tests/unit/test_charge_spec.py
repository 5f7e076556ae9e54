"""The charge spec is the only place a work-unit formula is written.

Two checks keep it so: the planner's CPU terms *are* the spec's functions
(at zero output/detail and distribution factor 1, bit for bit — with merge
join's run-time hashing term the one stated exception), and an AST guard
that fails when an ``id()``-keyed accounting structure or an expression
over ``RPTC``/``RCC``/``HAC`` grows back outside it.
"""

import ast
from pathlib import Path

import pytest

from repro.common import charges
from repro.common.config import SystemConfig
from repro.common.constants import HAC
from repro.cost.model import CostModel

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
MODEL = CostModel(SystemConfig.ic_plus(4))
L, R, WIDTH = 1234.0, 77.0, 5

#: operator -> (planner CPU cost, the spec function on the same rows)
RELATION = {
    "scan": (MODEL.scan(L, WIDTH).cpu, charges.pass_through(L)),
    "index_scan": (MODEL.index_scan(L).cpu, charges.index_scan(L)),
    "values": (MODEL.values(L).cpu, charges.pass_through(L)),
    "filter": (MODEL.filter(L).cpu, charges.filter(L)),
    "project": (MODEL.project(L, WIDTH).cpu, charges.pass_through(L)),
    "sort": (MODEL.sort(L, WIDTH).cpu, charges.sort(L)),
    "limit": (MODEL.limit(L).cpu, charges.pass_through(L)),
    "nested_loop_join": (
        MODEL.nested_loop_join(L, R, WIDTH).cpu,
        charges.nested_loop_join(L, R, out=0),
    ),
    "hash_join": (
        MODEL.hash_join(L, R, WIDTH).cpu,
        charges.hash_join(L, R, out=0, tested=0),
    ),
    "merge_join": (MODEL.merge_join(L, R).cpu, charges.merge_join(L, R)),
    "hash_aggregate": (
        MODEL.hash_aggregate(L, 9.0, WIDTH).cpu,
        charges.hash_aggregate(L, groups=0),
    ),
    "sort_aggregate": (
        MODEL.sort_aggregate(L, 9.0, WIDTH).cpu,
        charges.sort_aggregate(L, groups=0),
    ),
    "exchange": (MODEL.exchange(L, WIDTH, 4).cpu, charges.exchange(L)),
}


@pytest.mark.parametrize("operator", sorted(RELATION))
def test_planner_cpu_cost_is_the_spec_at_zero_output(operator):
    planned, spec = RELATION[operator]
    assert planned.hex() == spec.hex()


def test_index_scan_is_a_scan_times_the_premium():
    assert (
        charges.index_scan(L).hex()
        == (charges.pass_through(L) * charges.INDEX_SCAN_PREMIUM).hex()
    )


def test_merge_join_is_the_one_place_planned_and_charged_cost_differ():
    """Eq. 9 prices no hashing; execution bills HAC per input row too."""
    planned = MODEL.merge_join(L, R).cpu
    charged = charges.merge_join_charged(L, R, out=0)
    assert charged != planned
    assert charged == pytest.approx(planned + (L + R) * HAC)
    # ... and what is charged is the hash join's term without candidates.
    assert charged.hex() == charges.hash_join(L, R, out=0, tested=0).hex()


# -- the tooling guard -------------------------------------------------------


def _tree(relative: str) -> ast.AST:
    return ast.parse((SRC / relative).read_text())


def _id_calls(tree: ast.AST):
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    ]


def _function(tree: ast.AST, name: str) -> ast.AST:
    return next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


@pytest.mark.parametrize(
    "relative",
    [
        "exec/operators.py",
        "exec/engine.py",
        "exec/variants.py",
        "exec/fragments.py",
        "adaptive/feedback.py",
        "bench/sketchbench.py",
        "bench/fedbench.py",
    ],
)
def test_no_accounting_is_keyed_by_object_identity(relative):
    assert _id_calls(_tree(relative)) == []


def test_sketch_harvest_groups_by_fragment_id():
    harvest = _function(_tree("stats/sketch_registry.py"), "harvest")
    assert _id_calls(harvest) == []


def test_columnar_uses_id_only_for_the_index_vector_memo():
    tree = _tree("exec/columnar.py")
    memo = _id_calls(_function(tree, "_take_columns"))
    assert memo and _id_calls(tree) == memo


@pytest.mark.parametrize(
    "relative",
    ["exec/operators.py", "exec/columnar.py", "adaptive/midquery.py"],
)
def test_no_work_unit_formula_outside_the_spec(relative):
    loaded = [
        (node.id, node.lineno)
        for node in ast.walk(_tree(relative))
        if isinstance(node, ast.Name) and node.id in {"RPTC", "RCC", "HAC"}
    ]
    assert loaded == []
