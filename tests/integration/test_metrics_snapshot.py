"""The metrics registry after a fixed query sequence, pinned byte for byte.

The engine folds its exchange and operator counters into run-local totals
and publishes them once per run.  Which series exist and what they hold
must not depend on that: ``tests/golden/metrics-snapshot.json`` is the
``get_registry().snapshot()`` after

* every SSB query three times — cold, then re-planned or served from the
  plan cache (IC+M, cardinality feedback on) — on the row and on the
  columnar backend;
* one row-backend TPC-H query;
* IC's Q21 running past the runtime limit;
* a query whose second exchange drops its stream (``ExchangeDrop``);
* a mid-query re-plan that splices a new suffix in.

The failures publish what their completed routes shipped; the timeout
and the drop publish no operator counters.  To accept an intended change
of the emitted metrics, regenerate the file::

    PYTHONPATH=src python -m pytest tests/integration/test_metrics_snapshot.py \\
        --snapshot-update
"""

import json
from pathlib import Path

from helpers import make_company_cluster
from repro.bench.ssb import SSB_QUERIES, load_ssb_cluster
from repro.bench.tpch import QUERIES, load_tpch_cluster
from repro.common.config import PRESETS, SystemConfig
from repro.core.cluster import QueryStatus
from repro.faults.injector import ExchangeDrop
from repro.obs.metrics import get_registry

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "metrics-snapshot.json"

SSB = [spec.sql for _, spec in sorted(SSB_QUERIES.items())]


def _run_sequence() -> None:
    for backend in ("row", "columnar"):
        config = PRESETS["IC+M"](4).with_(
            execution_backend=backend, plan_cache=True, cardinality_feedback=True
        )
        cluster = load_ssb_cluster(config, 0.01)
        for sql in SSB:
            for _ in range(3):  # cold, re-planned on feedback, cached
                assert cluster.try_sql(sql).status is QueryStatus.OK
    row = SystemConfig.ic_plus(4).with_(execution_backend="row")
    assert load_tpch_cluster(row, 0.02).try_sql(QUERIES[3].sql).status is QueryStatus.OK
    timeout = load_tpch_cluster(SystemConfig.ic(4).with_(execution_backend="row"), 0.02)
    assert timeout.try_sql(QUERIES[21].sql).status is QueryStatus.TIMED_OUT
    dropping = make_company_cluster(
        SystemConfig.ic_plus(4).with_(faults=(ExchangeDrop(exchange_id=1, at=0.0),))
    )
    outcome = dropping.try_sql(
        "select e.dept_id, count(*) from emp e, sales s "
        "where e.emp_id = s.emp_id group by e.dept_id"
    )
    assert outcome.status is QueryStatus.FAILED_SITE, outcome.error
    splicing = make_company_cluster(
        SystemConfig.ic_plus(4).with_(midquery_reoptimization=True), sales_skew=0.9
    )
    outcome = splicing.try_sql(
        "select t0.amount, t0.sale_id, t0.emp_id from sales t0 "
        "where t0.emp_id <> 1 order by t0.emp_id"
    )
    assert outcome.status is QueryStatus.OK, outcome.error


def test_the_metrics_a_query_sequence_emits_are_pinned(snapshot_update):
    _run_sequence()
    registry = get_registry()
    assert registry.counter("midquery.replans") == 1
    assert any(name.startswith("exchange.rows") for name in registry.snapshot())
    text = json.dumps(registry.snapshot(), indent=1, sort_keys=True) + "\n"
    if snapshot_update:
        GOLDEN.write_text(text, encoding="utf-8")
    assert text == GOLDEN.read_text(encoding="utf-8")
