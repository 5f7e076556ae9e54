"""What a query costs the Python runtime beyond its rows.

Three overheads are kept off the row interpreter, and pinned here:

* **the cyclic collector** is paused while fragments run
  (``ExecutionEngine.execute``) and resumed — with the young collection
  the run made due — however the run ends — success, timeout, an injected fault, a
  mid-query splice, a nested execution — unless the caller had paused
  it already;
* **kernel compilation** happens once per generated source
  (``KernelBuilder.function``'s LRU): a second pass of the TPC-H set
  compiles nothing, constants stay per statement, and the LRU is bounded;
* **cyclic garbage**: a successful statement leaves none behind, so the
  rarer collections have nothing of its plans to hold.

The kernel count is a count of ``compile()`` calls made by
``repro.rel.expr``, taken by wrapping the builtin in that module.
"""

import builtins
import gc
import sys

import pytest

from helpers import make_company_cluster
from repro.bench.ssb import SSB_QUERIES, load_ssb_cluster
from repro.bench.tpch import QUERIES, load_tpch_cluster
from repro.common.config import PRESETS, SystemConfig
from repro.core.cluster import QueryStatus
from repro.exec import engine as engine_module
from repro.exec.physical import PhysProject
from repro.faults.injector import FragmentOom
from repro.obs.metrics import get_registry
from repro.rel import expr as expr_module
from repro.rel.expr import (
    TOTAL_ORDER,
    BinaryOp,
    ColRef,
    InList,
    Literal,
    compile_expr,
)

TPCH = [spec.sql for _, spec in sorted(QUERIES.items()) if not spec.disabled]
SSB = [spec.sql for _, spec in sorted(SSB_QUERIES.items()) if not spec.excluded]


@pytest.fixture
def collector():
    """Puts the collector back as the test found it, whatever the test
    did to it."""
    was = gc.isenabled()
    yield
    gc.enable() if was else gc.disable()


@pytest.fixture
def fresh_kernels(monkeypatch):
    """An empty code LRU and a log of the sources ``repro.rel.expr``
    compiles."""
    compiled = []

    def counting_compile(source, *args, **kwargs):
        compiled.append(source)
        return builtins.compile(source, *args, **kwargs)

    monkeypatch.setattr(expr_module, "_CODE", {})
    monkeypatch.setattr(expr_module, "compile", counting_compile, raising=False)
    return compiled


# -- the collector pause ---------------------------------------------------------


def _wrap_fragment_runs(monkeypatch, wrap):
    """Route every (fragment, site) run of either backend through
    ``wrap(run)``; ``_prepare`` looks both entries up at call time."""
    from repro.exec import columnar

    monkeypatch.setattr(engine_module, "execute_node", wrap(engine_module.execute_node))
    monkeypatch.setattr(columnar, "execute_columnar", wrap(columnar.execute_columnar))


def _success():
    return make_company_cluster(SystemConfig.ic_plus(4)), (
        "select e.name, s.amount from emp e, sales s "
        "where e.emp_id = s.emp_id and s.amount > 2500"
    ), QueryStatus.OK


def _ic_q21_timeout():
    config = SystemConfig.ic(4).with_(execution_backend="row")
    return load_tpch_cluster(config, 0.02), QUERIES[21].sql, QueryStatus.TIMED_OUT


def _fragment_oom():
    # Fragment 1 is the root, so fragment 0 runs before the kill.
    config = SystemConfig.ic_plus(4).with_(
        faults=(FragmentOom(fragment_id=1, at=0.0),), max_retries=0
    )
    return make_company_cluster(config), (
        "select region, count(*) from sales group by region"
    ), QueryStatus.FAILED_SITE


def _midquery_splice():
    config = SystemConfig.ic_plus(4).with_(midquery_reoptimization=True)
    return make_company_cluster(config, sales_skew=0.9), (
        "select t0.amount, t0.sale_id, t0.emp_id from sales t0 "
        "where t0.emp_id <> 1 order by t0.emp_id"
    ), QueryStatus.OK


SCENARIOS = {
    "success": _success,
    "ic_q21_timeout": _ic_q21_timeout,
    "fragment_oom": _fragment_oom,
    "midquery_splice": _midquery_splice,
}


@pytest.mark.parametrize("caller_paused", [False, True], ids=["enabled", "paused"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_the_collector_is_paused_while_fragments_run_and_restored(
    scenario, caller_paused, collector, monkeypatch
):
    cluster, sql, status = SCENARIOS[scenario]()
    seen = []

    def watched(run):
        def watching(node, site, ctx):
            seen.append(gc.isenabled())
            return run(node, site, ctx)

        return watching

    _wrap_fragment_runs(monkeypatch, watched)
    gc.disable() if caller_paused else gc.enable()
    outcome = cluster.try_sql(sql)
    assert outcome.status is status, outcome.error
    assert gc.isenabled() is not caller_paused
    assert seen and not any(seen)
    if scenario == "midquery_splice":
        assert get_registry().counter("midquery.replans") == 1


def test_a_nested_execution_leaves_the_outer_pause_in_place(collector, monkeypatch):
    outer = make_company_cluster(SystemConfig.ic_plus(4))
    inner = make_company_cluster(SystemConfig.ic(4))
    states = []

    def nesting(run):
        def nested(node, site, ctx):
            if not states:
                states.append(("before inner", gc.isenabled()))
                inner.sql("select count(*) from emp")
                states.append(("after inner", gc.isenabled()))
            return run(node, site, ctx)

        return nested

    _wrap_fragment_runs(monkeypatch, nesting)
    gc.enable()
    result = outer.sql("select count(*) from sales")
    assert result.rows == [(500,)]
    assert states == [("before inner", False), ("after inner", False)]
    assert gc.isenabled()


def test_a_raising_run_restores_the_collector(collector, monkeypatch):
    cluster = make_company_cluster(SystemConfig.ic_plus(4))

    def broken(run):
        def raising(node, site, ctx):
            raise RuntimeError("interpreter defect")

        return raising

    _wrap_fragment_runs(monkeypatch, broken)
    gc.enable()
    with pytest.raises(RuntimeError):
        cluster.sql("select count(*) from sales")
    assert gc.isenabled()


# -- one compile per kernel source -------------------------------------------------


def test_one_shape_shares_its_code_and_keeps_its_own_constants(fresh_kernels):
    below_3 = compile_expr(BinaryOp("<", ColRef(0), Literal(3)), test=True)
    below_5 = compile_expr(BinaryOp("<", ColRef(0), Literal(5)), test=True)
    assert below_3.__source__ == below_5.__source__
    assert below_3.__code__ is below_5.__code__
    assert len(fresh_kernels) == 1
    assert [below_3((4,)), below_5((4,))] == [False, True]
    in_ab = compile_expr(InList(ColRef(0), ("a", "b")), test=True)
    in_c = compile_expr(InList(ColRef(0), ("c",)), test=True)
    assert in_ab.__code__ is in_c.__code__
    assert [in_ab(("c",)), in_c(("c",))] == [False, True]


def test_statements_of_one_shape_return_their_own_rows(fresh_kernels):
    cluster = make_company_cluster(SystemConfig.ic_plus(4))
    sales = [row for part in cluster.store.table("sales").partitions for row in part]
    for threshold in (1000, 4000):
        got = cluster.sql(f"select sale_id from sales where amount > {threshold}")
        want = {row[0] for row in sales if row[2] > threshold}
        assert sorted(r[0] for r in got.rows) == sorted(want)
    for regions in (("north",), ("east", "west")):
        listed = ", ".join(f"'{r}'" for r in regions)
        got = cluster.sql(f"select sale_id from sales where region in ({listed})")
        want = {row[0] for row in sales if row[3] in regions}
        assert sorted(r[0] for r in got.rows) == sorted(want)
    # The second literal and the second IN list compiled nothing new.
    assert len(fresh_kernels) == len(set(fresh_kernels))


def test_a_total_order_kernel_gets_its_own_entry(fresh_kernels):
    condition = BinaryOp("<", ColRef(0), Literal(5))
    raw = compile_expr(condition, test=True)
    token = TOTAL_ORDER.set(True)
    try:
        total = compile_expr(condition, test=True)
    finally:
        TOTAL_ORDER.reset(token)
    assert raw.__source__ != total.__source__
    assert set(expr_module._CODE) == {raw.__source__, total.__source__}
    assert total(("a",)) is False
    with pytest.raises(TypeError):
        raw(("a",))


def test_the_code_lru_is_bounded(fresh_kernels, monkeypatch):
    monkeypatch.setattr(expr_module, "KERNEL_CODE_CACHE", 4)
    exprs = [BinaryOp("+", ColRef(i), Literal(1)) for i in range(10)]
    first = compile_expr(exprs[0])
    for e in exprs[1:]:
        compile_expr(e)
        compile_expr(exprs[0])  # keeps the first source recently used
    assert len(expr_module._CODE) == 4
    assert first.__source__ in expr_module._CODE
    assert len(fresh_kernels) == 10
    compile_expr(exprs[1])  # long evicted: compiled again
    assert len(fresh_kernels) == 11 and len(expr_module._CODE) == 4


def test_a_second_tpch_pass_compiles_no_kernel(fresh_kernels):
    """The paper's loop (IC, IC+, IC+M, row backend, no plan cache) builds
    every kernel anew each pass: 138 distinct sources at SF 0.02, each
    compiled once, and none on the second pass.  (A merge join runs the
    hash-join kernel, so it shares the hash joins' sources.)"""
    clusters = [
        load_tpch_cluster(PRESETS[system](4).with_(execution_backend="row"), 0.02)
        for system in ("IC", "IC+", "IC+M")
    ]
    passes = []
    for _ in range(2):
        fresh_kernels.clear()
        for cluster in clusters:
            for sql in TPCH:
                cluster.try_sql(sql)
        passes.append((len(fresh_kernels), len(set(fresh_kernels))))
    assert passes == [(138, 138), (0, 0)]


def test_a_plan_cached_columnar_warm_pass_compiles_no_kernel(fresh_kernels):
    config = PRESETS["IC+M"](4).with_(execution_backend="columnar", plan_cache=True)
    cluster = load_tpch_cluster(config, 0.02)
    for sql in TPCH:
        cluster.try_sql(sql)
    fresh_kernels.clear()
    for sql in TPCH:
        assert cluster.try_sql(sql).status is not QueryStatus.ERROR
    assert fresh_kernels == []


# -- no cyclic garbage -------------------------------------------------------------


@pytest.mark.parametrize("backend", ["row", "columnar"])
@pytest.mark.parametrize("system", ["IC", "IC+", "IC+M"])
@pytest.mark.parametrize(
    "load, queries",
    [(load_tpch_cluster, TPCH), (load_ssb_cluster, SSB)],
    ids=["tpch", "ssb"],
)
def test_a_successful_statement_leaves_no_cyclic_garbage(
    load, queries, system, backend, collector
):
    """Plans, fragments and the closures that build them are freed by
    reference counting; a failed statement keeps its traceback's cycles
    (collected, not counted)."""
    cluster = load(PRESETS[system](4).with_(execution_backend=backend), 0.02)
    cluster.try_sql(queries[0])  # first-use imports leave garbage of their own
    gc.disable()
    gc.collect()
    left = {}
    for number, sql in enumerate(queries):
        outcome = cluster.try_sql(sql)
        ok = outcome.ok
        del outcome
        found = gc.collect()
        if ok and found:
            left[number] = found
    assert left == {}


# -- a plan-cache hit derives nothing from its plan ---------------------------------


def _hit(cluster, sql):
    """Run ``sql`` until a run is served from the plan cache (feedback may
    evict a plan whose estimates were off and re-plan it first)."""
    registry = get_registry()
    for _ in range(4):
        hits = registry.counter("plan_cache.hits")
        assert cluster.try_sql(sql).status is QueryStatus.OK
        if registry.counter("plan_cache.hits") > hits:
            return
    pytest.fail(f"never served from the plan cache: {sql}")


@pytest.mark.parametrize("backend", ["row", "columnar"])
def test_a_cache_hit_walks_no_plan_and_projects_no_column_expression(
    backend, monkeypatch
):
    """What a run derives from its plan alone — operators, variant
    factors, one-site fragments, partition placement — is derived on the
    plan's first run and kept with its fragments; a cached repeat derives
    none of it again.  A projection of column references picks columns
    on the columnar backend: it never reaches ``eval_expr``."""
    from repro.exec import columnar, fragments, operators, physical
    from repro.exec.engine import ExecutionEngine
    from repro.verify import invariants

    # The suite-wide invariant net walks every executed plan: run bare.
    monkeypatch.setattr(ExecutionEngine, "execute", ExecutionEngine.execute.__wrapped__)
    config = PRESETS["IC+M"](4).with_(
        execution_backend=backend, plan_cache=True, cardinality_feedback=True
    )
    cluster = load_ssb_cluster(config, 0.01)
    for sql in SSB:
        _hit(cluster, sql)
    calls = []

    def count(module, name):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for module in (physical, fragments, invariants):
        count(module, "walk_physical")
    count(engine_module, "plan_variants")
    for module in (engine_module, operators):
        count(module, "failover_owner")
    projected = []
    evaluate = columnar.eval_expr

    def watched_eval(expr, batch, test=False):
        caller = sys._getframe(1)
        if caller.f_code is columnar._exec_project.__code__:
            projected.append(caller.f_locals["node"])
        return evaluate(expr, batch, test)

    monkeypatch.setattr(columnar, "eval_expr", watched_eval)
    handlers = columnar._HANDLERS if backend == "columnar" else operators._HANDLERS
    project = handlers[PhysProject]
    picks = []

    def watched_project(node, *args):
        picks.append(all(isinstance(e, ColRef) for e in node.exprs))
        return project(node, *args)

    monkeypatch.setitem(handlers, PhysProject, watched_project)
    for sql in SSB:
        _hit(cluster, sql)
    assert calls == []
    assert any(picks), "no projection of column references ran"
    assert not [
        node for node in projected if all(isinstance(e, ColRef) for e in node.exprs)
    ]
