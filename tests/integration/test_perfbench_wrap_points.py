"""The benchmark's wrap points still bind to code that runs.

``perfbench/spans.py`` times layers from outside by swapping named
callables for wrappers; a wrap point that stops resolving — or resolves
to a name the query path no longer calls — makes its per-layer metric
read zero without failing anything.  This test fails instead: every
point must resolve, and one query per backend must pass through each
layer the lifecycle refactor moved code under.
"""

import sys
from pathlib import Path

import pytest

from repro.bench.tpch import QUERIES, load_tpch_cluster
from repro.common.config import PRESETS

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import spans  # noqa: E402

#: Layers one cache-missing SELECT on a plan-cache cluster passes through.
EXECUTED_LAYERS = (
    "sql.parse",
    "rel.sql2rel",
    "planner.plan",
    "adaptive.lookup",
    "adaptive.observe",
    "exec.execute",
    "exec.operators",
    "exec.fragment",
    "cluster.simulate",
)


@pytest.mark.parametrize(
    "module, path",
    sorted(
        {
            target
            for points in (spans.QUERY_POINTS, spans.SETUP_POINTS)
            for targets in points.values()
            for target in targets
        }
    ),
)
def test_every_wrap_point_resolves(module, path):
    assert spans._resolve(module, path) is not None


def test_one_query_passes_through_every_wrapped_layer(execution_backend):
    config = PRESETS["IC+M"](4).with_(
        execution_backend=execution_backend, plan_cache=True
    )
    cluster = load_tpch_cluster(config, 0.02)
    recorder = spans.SpanRecorder()
    with spans.traced(recorder, spans.QUERY_POINTS) as unresolved:
        outcome = cluster.try_sql(QUERIES[3].sql)
    assert outcome.ok and not outcome.plan_cached
    assert unresolved == []
    assert spans.installed_wrappers() == []
    recorded = {name for name, *_ in recorder.spans}
    assert [layer for layer in EXECUTED_LAYERS if layer not in recorded] == []
