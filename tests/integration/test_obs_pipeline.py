"""End-to-end observability pipeline tests.

The issue's acceptance scenario: EXPLAIN ANALYZE over TPC-H Q3 on a
4-site IC+M cluster reports per-operator actual and estimated rows, and
the emitted trace validates against the ``repro-trace/v1`` schema.  Plus
the disabled-by-default guarantees: with ``SystemConfig.tracing`` off no
spans are recorded, and the null tracer stays active.
"""

import json

import pytest

from repro.bench.tpch import QUERIES, load_tpch_cluster
from repro.common.config import SystemConfig
from repro.obs.metrics import get_registry
from repro.obs.trace import NULL_TRACER, get_tracer, validate_trace

pytestmark = pytest.mark.obs

SF = 0.05


def test_explain_analyze_q3_on_ic_plus_m_acceptance():
    config = SystemConfig.ic_plus_m(4).with_(tracing=True)
    cluster = load_tpch_cluster(config, SF)
    registry = get_registry()
    before = registry.snapshot()

    text = cluster.explain_analyze(QUERIES[3].sql)

    # per-operator estimated and actual rows, fragment by fragment
    assert "RootFragment" in text
    assert "Fragment #" in text
    annotated = [l for l in text.splitlines() if "actual rows=" in l]
    assert len(annotated) >= 5
    assert any("rows~" in line for line in annotated)
    assert all("q-err=" in line for line in annotated)

    # the trace artefact validates against the documented schema
    artefact = cluster.last_trace.to_dict(
        query="Q3",
        system=config.name,
        metrics=registry.delta_since(before),
    )
    assert validate_trace(artefact) == []
    json.loads(json.dumps(artefact))  # JSON-serialisable throughout
    (root,) = artefact["spans"]
    phases = [c["name"] for c in root["children"]]
    assert phases[0] == "parse"
    assert {"hep", "volcano-logical", "volcano-physical"} <= set(phases)
    assert phases[-1] == "execute"
    # execution dominated by per-fragment child spans
    execute = root["children"][-1]
    assert any(c["name"].startswith("fragment#") for c in execute["children"])

    # the metrics delta shows the query's row flows and exchange traffic
    metrics = artefact["metrics"]
    assert metrics["exec.queries"] == 1
    assert metrics["planner.queries_planned"] == 1
    assert any(name.startswith("operator.rows_out") for name in metrics)
    assert any(name.startswith("exchange.bytes") for name in metrics)
    assert any(
        name.startswith("fragment.mem_highwater_bytes") for name in metrics
    )


def test_no_spans_recorded_when_tracing_off():
    """SystemConfig.tracing defaults off: the null tracer swallows all."""
    config = SystemConfig.ic_plus_m(4)
    assert config.tracing is False
    cluster = load_tpch_cluster(config, SF)
    result = cluster.sql(QUERIES[6].sql)
    assert result.rows
    tracer = cluster.last_trace
    assert tracer is NULL_TRACER
    assert tracer.spans() == []
    assert tracer.roots == []
    assert tracer.clock == 0.0


def test_no_tracer_left_active_after_query():
    config = SystemConfig.ic_plus_m(4).with_(tracing=True)
    cluster = load_tpch_cluster(config, SF)
    cluster.sql(QUERIES[6].sql)
    assert get_tracer() is NULL_TRACER  # activation is scoped to the query


def test_each_query_gets_a_fresh_trace():
    config = SystemConfig.ic_plus_m(4).with_(tracing=True)
    cluster = load_tpch_cluster(config, SF)
    cluster.sql(QUERIES[6].sql)
    first = cluster.last_trace
    cluster.sql(QUERIES[6].sql)
    second = cluster.last_trace
    assert first is not second
    assert len(first.roots) == len(second.roots) == 1


def test_traces_are_deterministic_across_runs():
    def run():
        config = SystemConfig.ic_plus_m(4).with_(tracing=True)
        cluster = load_tpch_cluster(config, SF)
        cluster.sql(QUERIES[3].sql)
        return cluster.last_trace.to_dict(query="Q3", system="IC+M")

    assert run() == run()


def test_failed_queries_still_close_their_spans():
    config = SystemConfig.ic(4).with_(tracing=True)
    cluster = load_tpch_cluster(config, SF)
    outcome = cluster.try_sql(QUERIES[2].sql)  # IC exhausts its budget
    assert not outcome.ok
    tracer = cluster.last_trace
    (root,) = tracer.roots
    assert root.name == "query"
    assert validate_trace(tracer.to_dict(query="Q2", system="IC")) == []


def test_bench_harness_captures_per_query_metrics():
    from repro.bench.harness import measure_query

    cluster = load_tpch_cluster(SystemConfig.ic_plus(4), SF)
    cell = measure_query(cluster, "Q6", QUERIES[6].sql)
    assert cell.metrics["exec.queries"] == 1
    assert any(k.startswith("operator.rows_out") for k in cell.metrics)
