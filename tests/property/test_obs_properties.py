"""Property tests for the observability layer.

Two invariants over randomly generated queries (reusing the differential
harness's :class:`~repro.verify.generator.QueryGenerator`):

* **Row conservation** — inside a fragment, every operator's recorded
  input rows equal the sum of its children's recorded output rows.  The
  interpreter attributes each child's output to its calling operator, so
  any mismatch means rows were invented or dropped between operators.
* **Span well-nesting** — the trace of every query is a well-formed tree:
  children lie within their parent's interval and their summed durations
  never exceed the parent's (the clock is shared and monotonic).
"""

import pytest

from repro.bench.tpch import load_tpch_cluster
from repro.common.config import SystemConfig
from repro.obs.trace import validate_trace
from repro.verify.generator import QueryGenerator

pytestmark = pytest.mark.obs

QUERY_COUNT = 40


@pytest.fixture(scope="module")
def cluster():
    config = SystemConfig.ic_plus_m(4).with_(tracing=True)
    return load_tpch_cluster(config, 0.02)


@pytest.fixture(scope="module")
def generated_queries(cluster):
    generator = QueryGenerator(cluster.store, seed=11)
    return generator.queries(QUERY_COUNT)


def _executed_outcomes(cluster, queries):
    ran = 0
    for sql in queries:
        outcome = cluster.try_sql(sql)
        if not outcome.ok:
            continue
        ran += 1
        yield sql, outcome, cluster.last_trace
    # The generator only emits supported SQL; nearly everything must run.
    assert ran >= QUERY_COUNT * 3 // 4


def test_rows_in_equals_children_rows_out(cluster, generated_queries):
    """Conservation: parent rows_in == sum(child rows_out), per fragment."""
    checked = 0
    for sql, outcome, _ in _executed_outcomes(cluster, generated_queries):
        result = outcome.result
        for fragment in result.fragment_trees:
            for op in fragment.operators():
                if not op.inputs:
                    continue
                expected = sum(
                    result.operator_actuals[child.op_id].rows_out
                    for child in op.inputs
                )
                actual = result.operator_actuals[op.op_id].rows_in
                assert actual == expected, (
                    f"rows_in mismatch at {op._explain_self()} "
                    f"({actual} != {expected}) for: {sql}"
                )
                checked += 1
    assert checked > 0


def test_every_span_tree_is_well_nested(cluster, generated_queries):
    for sql, _, tracer in _executed_outcomes(cluster, generated_queries):
        artefact = tracer.to_dict(query=sql, system="IC+M")
        assert validate_trace(artefact) == [], sql
        for span in tracer.spans():
            child_total = 0.0
            for child in span.children:
                assert span.start <= child.start <= child.end <= span.end
                child_total += child.duration
            assert child_total <= span.duration + 1e-9, (
                f"children outlast parent {span.name!r} for: {sql}"
            )


def test_traced_queries_record_the_expected_phases(cluster, generated_queries):
    for sql, _, tracer in _executed_outcomes(cluster, generated_queries):
        (root,) = tracer.roots
        assert root.name == "query"
        names = [child.name for child in root.children]
        assert names[0] == "parse"
        assert "volcano-physical" in names
        assert names[-1] == "execute"


def test_rows_out_metric_matches_result(cluster, generated_queries):
    """The per-op rows_out counters sum to what the actuals recorded."""
    from repro.obs.metrics import get_registry

    registry = get_registry()
    for sql, outcome, _ in _executed_outcomes(cluster, generated_queries):
        pass  # counters accumulate across the loop
    total_metric = sum(
        value
        for name, value in registry.snapshot().items()
        if name.startswith("operator.rows_out")
    )
    assert total_metric > 0
