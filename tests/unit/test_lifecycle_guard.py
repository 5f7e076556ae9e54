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


def _callers(name):
    """``module:function`` (innermost) of every call of the bare name
    ``name`` in ``src/repro``."""
    found = set()

    def visit(node, module, where):
        if isinstance(node, ast.FunctionDef):
            where = node.name
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == name
        ):
            found.add(f"{module}:{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in SRC.rglob("*.py"):
        visit(ast.parse(path.read_text()), path.relative_to(SRC), "<module>")
    return sorted(found)


def test_statements_are_parsed_by_the_pipeline_alone():
    """A prepared statement is a stage of ``_run_statement``, not a second
    front end: no other function parses SQL text (``create_view`` is the
    typed DDL face the statement-kind dispatch guard exempts too)."""
    assert _callers("parse") == [
        "core/cluster.py:_run_statement",
        "core/cluster.py:create_view",
        "core/cluster.py:parse_to_logical",
    ]


def test_plans_are_fragmented_where_they_are_prepared():
    """The engine cuts a plan into fragments once, in ``_prepare``; only a
    mid-query re-plan cuts the new suffix it splices in."""
    assert _callers("fragment_plan") == [
        "adaptive/midquery.py:_replan",
        "exec/engine.py:_prepare",
    ]


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


# -- one paired-run harness for the evidence benches --------------------------

BENCH = SRC / "bench"
EVIDENCE = [
    BENCH / f"{name}.py"
    for name in ("adaptive", "colbench", "fedbench", "midquery", "sketchbench")
]
CLUSTER_LOADERS = {
    "load_dataset", "load_tpch_cluster", "load_ssb_cluster", "loader",
    "load_skewed_cluster", "load_skewed_tpch_cluster", "load_fedbench_cluster",
}


def _bench_modules_containing(needle):
    return sorted(
        str(path.relative_to(SRC))
        for path in BENCH.rglob("*.py")
        if needle in path.read_text()
    )


def test_one_bench_module_builds_a_cluster():
    assert _bench_modules_containing("IgniteCalciteCluster(") == ["bench/core.py"]
    assert (BENCH / "core.py").read_text().count("IgniteCalciteCluster(") == 1


def test_the_benches_ask_the_oracle_in_one_module():
    assert _bench_modules_containing("oracle_detail(") == ["bench/core.py"]


@pytest.mark.parametrize("needle", ["read_counters", "counter_deltas"])
def test_counters_are_sampled_one_way(needle):
    assert _modules_mentioning(needle) == []


@pytest.mark.parametrize(
    "path", EVIDENCE + sorted((ROOT / "benchmarks").glob("*.py")),
    ids=lambda path: path.name,
)
def test_no_bench_derives_its_own_treatment(path):
    """A treatment config is a ``paired_run`` argument, never a preset
    re-derived with ``.with_(`` next to its control."""
    assert ".with_(" not in path.read_text()


@pytest.mark.parametrize("path", EVIDENCE, ids=lambda path: path.name)
def test_no_evidence_function_loads_two_clusters(path):
    """Control and treatment are loaded by ``paired_run``: a function in an
    evidence bench loads at most one cluster itself."""
    for name, function in _functions(path).items():
        loads = [
            node
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in CLUSTER_LOADERS
        ]
        assert len(loads) <= 1, name


def test_only_the_simulator_reads_which_sites_are_down():
    """Everyone else asks ``WorkloadSimulator.alive_sites()`` and maps a
    dead site's work with ``faults.injector.failover_owner``."""
    reading = [
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if "._down" in path.read_text()
    ]
    assert reading == ["cluster/scheduler.py"]


# -- the cluster owns its state ------------------------------------------------

TESTS = ROOT / "tests"
#: The switches that give a cluster state which queries leave behind.
STATEFUL_FLAGS = (
    "plan_cache", "cardinality_feedback", "sketch_statistics", "midquery_reoptimization",
)


def _fixtures(path: Path):
    """``(fixture function, its decorator call)`` for every ``pytest.fixture(...)``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.FunctionDef):
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Call) and "fixture" in set(_names(decorator.func)):
                    yield node, decorator


def _keyword(call: ast.Call, name: str):
    return next(
        (k.value.value for k in call.keywords
         if k.arg == name and isinstance(k.value, ast.Constant)),
        None,
    )


def test_no_process_global_state_outside_obs():
    """Plan caches, feedback and sketches hang off their cluster: no weak-set
    of live objects and no rebound module global holds them."""
    offending = []
    for path in SRC.rglob("*.py"):
        if SRC / "obs" in path.parents:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            imported = (
                [alias.name for alias in node.names] if isinstance(node, ast.Import)
                else [node.module] if isinstance(node, ast.ImportFrom) else []
            )
            if isinstance(node, ast.Global) or "weakref" in imported:
                offending.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offending == []


def test_conftest_has_two_autouse_fixtures():
    autouse = [
        function.name
        for function, call in _fixtures(TESTS / "conftest.py")
        if _keyword(call, "autouse") is True
    ]
    assert autouse == ["_reset_metrics_registry", "_validate_every_executed_plan"]


def test_no_shared_fixture_builds_a_stateful_cluster():
    """Why the suite needs no adaptive or sketch reset: a cluster that
    outlives one test never has one of the stateful switches on."""
    offending = [
        f"{path.relative_to(TESTS)}:{function.name}"
        for path in TESTS.rglob("*.py")
        for function, call in _fixtures(path)
        if _keyword(call, "scope") in ("module", "class", "session")
        and any(flag in ast.get_source_segment(path.read_text(), function)
                for flag in STATEFUL_FLAGS)
    ]
    assert offending == []


def test_a_cluster_always_carries_an_injector():
    assert _modules_mentioning("fault_injector is") == []
