"""Tooling guard for the one-query-lifecycle structure.

In the style of ``test_charge_spec.py``: source-level checks that fail
when a side channel between the cluster, the engine and the serving layer
grows back, when ``sql``/``try_sql`` fork again, or when
``ExecutionEngine.execute`` stops being four named steps.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
CLUSTER = SRC / "core" / "cluster.py"
ENGINE = SRC / "exec" / "engine.py"


def _functions(path: Path):
    return {
        node.name: node
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
    }


def _body_lines(function: ast.FunctionDef) -> int:
    """Lines of the body, docstring excluded."""
    body = function.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    return body[-1].end_lineno - body[0].lineno + 1


def _names(node: ast.AST):
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def _called_methods(function: ast.FunctionDef):
    return {
        node.func.attr
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "self"
    }


# -- no side channels --------------------------------------------------------


@pytest.mark.parametrize("needle", ["_adaptive_key", "last_partial", "hasattr(plan"])
def test_no_per_query_state_on_shared_objects(needle):
    hits = [
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if needle in path.read_text()
    ]
    assert hits == []


def test_the_engine_never_asks_whether_there_is_an_injector():
    assert "injector is" not in ENGINE.read_text()


def test_the_server_does_not_read_its_cache_hits_off_the_metrics_registry():
    assert 'counter("plan_cache.hits"' not in (SRC / "serve" / "server.py").read_text()


# -- one pipeline ------------------------------------------------------------


def test_sql_and_try_sql_are_thin_faces_of_one_method():
    functions = _functions(CLUSTER)
    for name in ("sql", "try_sql"):
        assert _body_lines(functions[name]) <= 15, name
        assert "_run_statement" in _called_methods(functions[name]), name


@pytest.mark.parametrize("kind", ["CreateView", "CreateTable", "Explain"])
def test_each_statement_kind_is_dispatched_once(kind):
    tested = [
        name
        for name, function in _functions(CLUSTER).items()
        if name not in ("parse_to_logical", "create_view")
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and kind in set(_names(node.args[1]))
    ]
    assert tested == ["_run_statement"]


@pytest.mark.parametrize("call", ["harvest_partial", "lookup", "observe"])
def test_the_adaptive_layer_is_entered_once(call):
    assert CLUSTER.read_text().count(f".{call}(") == 1


# -- one execution shape -----------------------------------------------------


def test_execute_is_four_named_steps():
    functions = _functions(ENGINE)
    execute = functions["execute"]
    assert execute.end_lineno - execute.lineno + 1 <= 45
    steps = {"_prepare", "_run_fragments", "_simulate", "_report"}
    assert steps <= _called_methods(execute)
    for name in steps | {"_route", "_build_task_graph", "_observers"}:
        step = functions[name]
        assert step.end_lineno - step.lineno + 1 <= 85, name


def test_the_fragment_loop_names_no_observer():
    loop = set(_names(_functions(ENGINE)["_run_fragments"]))
    assert not {n for n in loop if "midquery" in n.lower() or "sketch" in n.lower()}


def test_observers_are_attached_in_one_place():
    attaching = [
        name
        for name, function in _functions(ENGINE).items()
        if {"MidQueryController", "seam_harvest"} & set(_names(function))
    ]
    assert attaching == ["_observers"]


def test_the_engine_writes_no_attribute_outside_its_constructor():
    tree = ast.parse(ENGINE.read_text())
    engine = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "ExecutionEngine"
    )
    written = [
        (method.name, target.attr)
        for method in engine.body
        if isinstance(method, ast.FunctionDef) and method.name != "__init__"
        for node in ast.walk(method)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ]
    assert written == []


# -- one oracle --------------------------------------------------------------

DIFFERENTIAL = SRC / "verify" / "differential.py"


def test_the_reference_executor_is_constructed_in_one_function():
    constructing = [
        f"{path.relative_to(SRC)}:{name}"
        for path in SRC.rglob("*.py")
        if path != SRC / "verify" / "reference.py"
        for name, function in _functions(path).items()
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "ReferenceExecutor"
    ]
    assert constructing == ["verify/differential.py:oracle_detail"]
    for path in SRC.rglob("*.py"):
        if path.parent != SRC / "verify":
            assert "ReferenceExecutor(" not in path.read_text(), path


@pytest.mark.parametrize(
    "needle",
    ["SqlToRelConverter", "QueryPlanner", "ExecutionEngine", "fragment_plan"],
)
def test_the_differential_module_owns_no_pipeline(needle):
    assert needle not in DIFFERENTIAL.read_text()


def test_the_cluster_plans_in_one_place_and_never_forks_to_verify():
    text = CLUSTER.read_text()
    assert "_differential" not in text
    assert text.count("QueryPlanner(") == 1


def test_the_fault_layer_does_not_import_the_bench_layer():
    importing = [
        str(path.relative_to(SRC))
        for path in (SRC / "faults").rglob("*.py")
        if "repro.bench" in path.read_text()
    ]
    assert importing == []


# -- one producer per paper artefact ------------------------------------------

ROOT = SRC.parents[1]
READERS = sorted(
    path for name in ("benchmarks", "examples") for path in (ROOT / name).glob("*.py")
)


def _modules_mentioning(needle):
    return sorted(
        str(path.relative_to(ROOT))
        for path in list(SRC.rglob("*.py")) + READERS
        if SRC / "bench" / "tpch" not in path.parents
        and needle in path.read_text()
    )


@pytest.mark.parametrize("needle", ["IC_FAILING_QUERY_IDS", ".mean_gain_over("])
def test_the_aql_filter_and_the_gain_loop_are_written_once(needle):
    assert _modules_mentioning(needle) == ["src/repro/bench/reporting.py"]


@pytest.mark.parametrize(
    "needle",
    [
        # measuring a response-time matrix
        "measure_response_times", "measure_query", "ResponseTimeResult",
        # a private copy of PRESETS
        "SystemConfig.ic,", "SystemConfig.ic_plus,",
        # laying out a figure or Table 3 row
        "n/a", "-sites", "}@{",
    ],
)
def test_benchmarks_and_examples_only_read_artefacts(needle):
    assert READERS
    assert [p.name for p in READERS if needle in p.read_text()] == []


def test_the_cli_has_one_paper_command():
    functions = _functions(SRC / "cli.py")
    assert "cmd_paper" in functions
    assert [n for n in functions if n.startswith(("cmd_figure", "_print_"))] == []
