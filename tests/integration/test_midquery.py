"""Mid-query re-optimization: skew-focused differential tests.

The scenario under test: a filter on a Zipf-hot key makes the optimizer's
uniform-selectivity estimate wrong by two orders of magnitude, the static
plan ships the bloated intermediate the wrong way, and the mid-query
controller — checkpointing at the pipeline breaker where that intermediate
materializes — re-plans the un-executed suffix against the *true*
cardinality.  Every test here holds the re-optimizer to the differential
standard: whatever it does to the plan, the rows (including their order)
must be identical to the static run and to the single-node reference
oracle, and with the flag off the system must be byte-identical to a build
that has never heard of mid-query re-optimization.
"""

import difflib
import json
from pathlib import Path

import pytest

from helpers import make_company_cluster, naive_execute, normalise
from repro.bench.tpch import load_tpch_cluster
from repro.bench.midquery import (
    MIDQUERY_QUERIES,
    load_skewed_cluster,
    run_midquery_bench,
    validate_midquery_artefact,
)
from repro.common.config import SystemConfig
from repro.core.cluster import QueryStatus
from repro.faults.injector import ExchangeDrop, FragmentOom, SiteCrash
from repro.obs.metrics import get_registry, q_error
from repro.verify.reference import ReferenceExecutor

pytestmark = pytest.mark.midquery

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

THRESHOLD = 4.0
ADAPTIVE_KNOBS = dict(
    midquery_reoptimization=True,
    midquery_replan_q_error_threshold=THRESHOLD,
)


def _check_snapshot(name: str, actual: str, update: bool) -> None:
    path = GOLDEN_DIR / name
    if update:
        path.write_text(actual)
        return
    if not path.exists():
        pytest.fail(
            f"golden snapshot {name} missing — run with --snapshot-update"
        )
    expected = path.read_text()
    if actual != expected:
        diff = "\n".join(
            difflib.unified_diff(
                expected.splitlines(),
                actual.splitlines(),
                fromfile=f"golden/{name}",
                tofile="actual",
                lineterm="",
            )
        )
        pytest.fail(f"EXPLAIN ANALYZE drifted from golden snapshot:\n{diff}")


def _root_q_error(result) -> float:
    """q-error of the root fragment's root operator (the replanned part).

    ``max_q_error()`` is the wrong probe here: the *executed prefix* (the
    mis-estimated hot-key filter) stays in ``fragment_trees`` of both the
    static and the adaptive run, so its huge q-error masks the suffix
    improvement.  The root operator sits strictly above the checkpoint, so
    its estimate is the one the replan was allowed to fix.
    """
    root = result.fragment_trees[-1].root
    rows, _units, _rows_in = result.operator_actuals[root.op_id]
    return q_error(root.rows_est, rows)


def _reference_rows(cluster, sql: str):
    return ReferenceExecutor(cluster.store).execute(
        cluster.parse_to_logical(sql)
    )


class TestPinnedRegression:
    """The MQ1/IC+ scenario, pinned end to end at seed 7 / sf 1.0."""

    def test_skewed_join_triggers_replan_and_switches_plan(self):
        base = SystemConfig.ic_plus(4)
        static = load_skewed_cluster(base)
        adaptive = load_skewed_cluster(base.with_(**ADAPTIVE_KNOBS))
        sql = MIDQUERY_QUERIES["MQ1"]
        registry = get_registry()

        static_result = static.sql(sql)
        assert registry.counter("midquery.checkpoints") == 0

        adaptive_result = adaptive.sql(sql)
        assert registry.counter("midquery.checkpoints") >= 1
        assert registry.counter("midquery.triggers") >= 1
        assert registry.counter("midquery.replans") == 1
        assert registry.counter("midquery.plan_switches") == 1
        assert registry.counter("midquery.declined") == 0

        # Differential: same rows, same order, and both match the oracle.
        assert normalise(adaptive_result.rows, ordered=True) == normalise(
            static_result.rows, ordered=True
        )
        reference = _reference_rows(static, sql)
        assert normalise(adaptive_result.rows) == normalise(reference)

        # The replanned suffix is marked, the static plan is not.
        assert any(f.replanned for f in adaptive_result.fragment_trees)
        assert not any(f.replanned for f in static_result.fragment_trees)

        # The static estimate above the breaker was wrong past the
        # trigger threshold; the replanned suffix is nearly exact.
        static_q = _root_q_error(static_result)
        adaptive_q = _root_q_error(adaptive_result)
        assert static_q > THRESHOLD
        assert adaptive_q < THRESHOLD
        assert adaptive_q < static_q

        # Even after paying for re-planning ticks and shipping the
        # materialized intermediate, the adaptive run is faster.
        assert (
            adaptive_result.simulated_seconds
            < static_result.simulated_seconds
        )

    def test_spliced_suffix_keeps_no_stale_node_facts(self):
        """The splice numbers its receivers at birth (no in-place renumber),
        so every digest names the exchange the receiver really reads and
        every kept cumulative cost is what its inputs sum to."""
        from repro.exec.fragments import PhysReceiver
        from repro.verify.invariants import PlanValidator

        cluster = load_skewed_cluster(
            SystemConfig.ic_plus(4).with_(**ADAPTIVE_KNOBS)
        )
        result = cluster.sql(MIDQUERY_QUERIES["MQ1"])
        fragments = result.fragment_trees
        spliced = [f for f in fragments if f.replanned]
        assert spliced
        assert "cumulative-cost-consistent" not in {
            v.rule for v in PlanValidator().validate_fragments(spliced)
        }
        senders = [f.sender.exchange_id for f in fragments if f.sender]
        assert len(senders) == len(set(senders))
        # Operators too: the splice continues the query's numbering, so
        # prefix and suffix never share an accounting key.
        op_ids = [op.op_id for f in fragments for op in f.operators()]
        assert len(op_ids) == len(set(op_ids))
        assert set(op_ids) == set(result.operator_actuals)
        assert "operator-ids-unique" not in {
            v.rule for v in PlanValidator().validate_fragments(fragments)
        }
        receivers = [
            op
            for f in spliced
            for op in f.operators()
            if isinstance(op, PhysReceiver)
        ]
        assert receivers
        for op in receivers:
            assert op.digest().startswith(f"PReceiver(#{op.exchange_id})")

    def test_temp_tables_are_dropped_after_execution(self):
        base = SystemConfig.ic_plus(4).with_(**ADAPTIVE_KNOBS)
        cluster = load_skewed_cluster(base)
        cluster.sql(MIDQUERY_QUERIES["MQ1"])
        assert get_registry().counter("midquery.replans") == 1
        leaked = [
            name
            for name in cluster.store.table_names()
            if name.startswith("__mq_")
        ]
        assert leaked == []

    def test_a_replan_under_a_merging_receiver_keeps_the_order(
        self, execution_backend
    ):
        """Found by ``test_flag_matrix.py`` (seed 23): when the executed
        prefix feeds the root's *merging* receiver, the temp table holds
        the per-site sorted runs end to end and the suffix must re-sort."""
        config = SystemConfig.ic_plus(4).with_(
            midquery_reoptimization=True, execution_backend=execution_backend
        )
        cluster = make_company_cluster(config, sales_skew=0.9)
        result = cluster.sql(
            "select t0.amount, t0.sale_id, t0.emp_id from sales t0 "
            "where t0.emp_id <> 1 order by t0.emp_id"
        )
        assert get_registry().counter("midquery.replans") == 1
        keys = [row[2] for row in result.rows]
        assert len(keys) == 50 and keys == sorted(keys)

    def test_replan_is_visible_in_explain_analyze(self):
        base = SystemConfig.ic_plus(4).with_(**ADAPTIVE_KNOBS)
        cluster = load_skewed_cluster(base)
        text = cluster.explain_analyze(MIDQUERY_QUERIES["MQ1"])
        assert "[midquery replanned]" in text
        # The replanned suffix scans the materialized intermediate.
        assert "__mq_0" in text


class TestSkewSweep:
    """Seeded property sweep: every query, both backends, rows identical."""

    @pytest.mark.parametrize("name", sorted(MIDQUERY_QUERIES))
    @pytest.mark.parametrize("seed", [7, 11])
    def test_static_and_adaptive_rows_identical(
        self, name, seed, execution_backend
    ):
        base = SystemConfig.ic_plus(4).with_(
            execution_backend=execution_backend
        )
        static = load_skewed_cluster(base, scale_factor=0.5, seed=seed)
        adaptive = load_skewed_cluster(
            base.with_(**ADAPTIVE_KNOBS), scale_factor=0.5, seed=seed
        )
        sql = MIDQUERY_QUERIES[name]
        static_result = static.sql(sql)
        adaptive_result = adaptive.sql(sql)
        assert normalise(adaptive_result.rows, ordered=True) == normalise(
            static_result.rows, ordered=True
        )
        reference = _reference_rows(static, sql)
        assert normalise(adaptive_result.rows) == normalise(reference)

    def test_company_store_skew_knobs(self, execution_backend):
        # The reusable company fixture with its new skew knobs: 90% of
        # sales pile onto employee 1 and the region is a function of the
        # employee, so a region predicate correlates with the join key.
        base = SystemConfig.ic_plus(4).with_(
            execution_backend=execution_backend
        )
        static = make_company_cluster(
            base, sales_skew=0.9, correlated_regions=True
        )
        adaptive = make_company_cluster(
            base.with_(**ADAPTIVE_KNOBS),
            sales_skew=0.9,
            correlated_regions=True,
        )
        queries = (
            "SELECT s.sale_id, e.name, s.amount FROM sales s "
            "JOIN emp e ON s.emp_id = e.emp_id "
            "WHERE s.emp_id = 1 ORDER BY s.sale_id",
            "SELECT s.sale_id, e.name, s.region, s.amount FROM sales s "
            "JOIN emp e ON s.emp_id = e.emp_id "
            "WHERE s.emp_id = 1 AND s.region = 'south' "
            "ORDER BY s.sale_id",
        )
        for sql in queries:
            static_result = static.sql(sql)
            adaptive_result = adaptive.sql(sql)
            assert normalise(
                adaptive_result.rows, ordered=True
            ) == normalise(static_result.rows, ordered=True)
            oracle = naive_execute(
                adaptive.parse_to_logical(sql), adaptive.store
            )
            assert normalise(adaptive_result.rows) == normalise(oracle)

    def test_skew_knobs_off_is_byte_identical_data(self):
        from helpers import make_company_store

        plain = make_company_store()
        knobbed = make_company_store(
            dept_skew=0.0, sales_skew=0.0, correlated_regions=False
        )
        for name in plain.table_names():
            assert (
                plain.table(name).partitions
                == knobbed.table(name).partitions
            )


class TestFlagOff:
    """With the flag off (or the threshold unreachable) nothing changes."""

    def test_flag_off_leaves_no_midquery_footprint(self):
        base = SystemConfig.ic_plus(4)
        cluster = load_skewed_cluster(base)
        cluster.sql(MIDQUERY_QUERIES["MQ1"])
        registry = get_registry()
        assert registry.counter("midquery.checkpoints") == 0
        assert registry.counter("midquery.triggers") == 0
        assert registry.counter("midquery.replans") == 0
        assert not any(
            name.startswith("__mq_")
            for name in cluster.store.table_names()
        )

    def test_unreachable_threshold_matches_flag_off_exactly(self):
        # Flag on but the threshold never trips: checkpoints fire, nothing
        # else does, and the run is *identical* to flag-off — same rows in
        # the same order, same makespan, same work units, same plan text.
        base = SystemConfig.ic_plus(4)
        off = load_skewed_cluster(base)
        armed = load_skewed_cluster(
            base.with_(
                midquery_reoptimization=True,
                midquery_replan_q_error_threshold=float("inf"),
            )
        )
        sql = MIDQUERY_QUERIES["MQ1"]
        assert off.explain(sql) == armed.explain(sql)
        off_result = off.sql(sql)
        armed_result = armed.sql(sql)
        assert off_result.rows == armed_result.rows
        assert (
            off_result.simulated_seconds == armed_result.simulated_seconds
        )
        assert off_result.total_units == armed_result.total_units
        assert off_result.rows_shipped == armed_result.rows_shipped
        registry = get_registry()
        assert registry.counter("midquery.checkpoints") >= 1
        assert registry.counter("midquery.triggers") == 0
        assert registry.counter("midquery.replans") == 0

    def test_traced_flag_off_run_has_no_replan_spans(self):
        base = SystemConfig.ic_plus(4).with_(tracing=True)
        cluster = load_skewed_cluster(base)
        cluster.sql(MIDQUERY_QUERIES["MQ1"])
        artefact = json.dumps(
            cluster.last_trace.to_dict(query="MQ1", system="IC+")
        )
        assert "midquery-replan" not in artefact

    def test_fault_injected_run_never_replans(self):
        # Chaos replays must stay deterministic: under an injector the
        # engine executes the static plan even with the flag on.
        base = SystemConfig.ic_plus(4).with_(
            **ADAPTIVE_KNOBS,
            faults=(ExchangeDrop(exchange_id=-1, at=0.0),),
            max_retries=2,
        )
        cluster = load_skewed_cluster(base, scale_factor=0.5)
        outcome = cluster.try_sql(MIDQUERY_QUERIES["MQ2"])
        assert outcome.status is QueryStatus.FAILED_SITE
        registry = get_registry()
        assert registry.counter("midquery.checkpoints") == 0
        assert registry.counter("midquery.replans") == 0


class TestPartialHarvest:
    """Failed/shed queries still feed cardinality feedback (the fix)."""

    def test_faulted_attempt_harvests_completed_fragments(self):
        # OOM-kill the *root* fragment (#2 for MQ2): both producer
        # fragments complete before the attempt dies, so their actuals
        # are exactly what the partial harvest should capture.
        base = SystemConfig.ic_plus(4).with_(
            plan_cache=True,
            cardinality_feedback=True,
            faults=(FragmentOom(fragment_id=2, at=0.0),),
        )
        cluster = load_skewed_cluster(base, scale_factor=0.5)
        sql = MIDQUERY_QUERIES["MQ2"]

        first = cluster.try_sql(sql)
        assert first.status is QueryStatus.FAILED_SITE
        # The fragments that completed before the failure carried true
        # cardinalities into the feedback registry.
        assert len(cluster.adaptive.feedback) > 0
        assert (
            get_registry().counter("adaptive.feedback_partial_harvests")
            >= 1
        )

        # The one-shot drop is consumed; the resubmission completes and
        # still answers correctly.
        second = cluster.try_sql(sql, at=0.1)
        assert second.ok
        reference = _reference_rows(cluster, sql)
        assert normalise(second.result.rows) == normalise(reference)

    def test_deadline_timeout_harvests_completed_fragments(self):
        base = SystemConfig.ic_plus(4).with_(
            plan_cache=True,
            cardinality_feedback=True,
            query_deadline_seconds=1e-6,
        )
        cluster = load_skewed_cluster(base, scale_factor=0.5)
        outcome = cluster.try_sql(MIDQUERY_QUERIES["MQ2"])
        assert outcome.status is QueryStatus.TIMED_OUT
        assert outcome.result is None
        assert len(cluster.adaptive.feedback) > 0
        assert (
            get_registry().counter("adaptive.feedback_partial_harvests")
            >= 1
        )


    def test_a_query_that_never_ran_does_not_reharvest_the_previous_partial(self):
        # Attempt 1 loses exchange #1 after fragment #0 completed: one
        # partial harvest.  By t=10 every site is dead, so attempt 2
        # fails before executing anything — and must not feed attempt
        # 1's partial to feedback a second time.
        config = SystemConfig.ic_plus(4).with_(
            cardinality_feedback=True,
            faults=(ExchangeDrop(1, at=0.0),)
            + tuple(SiteCrash(site, at=5.0) for site in range(4)),
        )
        cluster = load_tpch_cluster(config, 0.02)
        sql = (
            "select c_mktsegment, count(*) from customer, orders "
            "where c_custkey = o_custkey group by c_mktsegment"
        )
        registry = get_registry()

        first = cluster.try_sql(sql, at=0.0)
        assert first.status is QueryStatus.FAILED_SITE
        assert registry.counter("adaptive.feedback_partial_harvests") == 1
        observations = registry.counter("adaptive.feedback_observations")
        assert observations >= 1

        second = cluster.try_sql(sql, at=10.0)
        assert second.status is QueryStatus.FAILED_SITE
        assert registry.counter("adaptive.feedback_partial_harvests") == 1
        assert registry.counter("adaptive.feedback_observations") == observations


class TestBenchArtefact:
    """The repro-bench midquery harness and its artefact gate."""

    def test_smoke_bench_produces_valid_artefact(self):
        report = run_midquery_bench(
            systems=("IC+",),
            scale_factor=0.5,
            sites=4,
            seed=7,
            threshold=THRESHOLD,
            query_ids=("MQ1", "MQ2"),
        )
        payload = report.to_dict()
        assert payload["schema"] == "repro-midquery/v1"
        assert validate_midquery_artefact(payload) == []
        assert report.total_replans >= 1
        assert all(q.results_match and q.oracle_match for q in report.queries)

    def test_artefact_gate_rejects_tampering(self):
        report = run_midquery_bench(
            systems=("IC+",),
            scale_factor=0.5,
            sites=4,
            seed=7,
            threshold=THRESHOLD,
            query_ids=("MQ1",),
        )
        payload = report.to_dict()
        payload["queries"][0]["results_match"] = False
        assert validate_midquery_artefact(payload)
        never_fired = report.to_dict()
        never_fired["total_replans"] = 0
        assert any(
            "never fired" in problem
            for problem in validate_midquery_artefact(never_fired)
        )


class TestGoldenPlans:
    """Pinned EXPLAIN ANALYZE of the replanned executions (seed 7)."""

    @pytest.mark.parametrize("name", ["MQ1", "MQ2", "MQ3"])
    def test_golden_midquery_analyze(self, name, snapshot_update):
        base = SystemConfig.ic_plus(4).with_(**ADAPTIVE_KNOBS)
        cluster = load_skewed_cluster(base)
        text = cluster.explain_analyze(MIDQUERY_QUERIES[name])
        assert "[midquery replanned]" in text
        _check_snapshot(
            f"{name}-IC+.midquery.analyze.txt", text + "\n", snapshot_update
        )
