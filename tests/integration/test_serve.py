"""Integration tests for the multi-tenant serving subsystem.

Covers the PR's acceptance criteria: the single-query regression pin
(serving one query at a time reproduces solo makespans bit-exactly),
seeded determinism of the whole pipeline, plan-cache hits under
repeated-template traffic, and the overload scenario (bounded queue,
REJECTED outcomes, priority tenants seeing lower p99 than best-effort
tenants at the same arrival rate).
"""

from collections import Counter

import pytest

from helpers import make_company_cluster
from repro.common.config import SystemConfig
from repro.common.constants import CORES_PER_SITE
from repro.core.cluster import QueryStatus
from repro.serve import (
    ClosedLoopArrivals,
    PoissonArrivals,
    QueryServer,
    QueryTemplate,
    ServeError,
    SloReport,
    TenantSpec,
    validate_slo_artefact,
)

pytestmark = pytest.mark.serve

TEMPLATES = (
    QueryTemplate("count", "SELECT COUNT(*) FROM emp"),
    QueryTemplate(
        "join",
        "SELECT d.dept_name, COUNT(*) FROM emp e "
        "JOIN dept d ON e.dept_id = d.dept_id GROUP BY d.dept_name",
    ),
)


def _config(**overrides):
    base = dict(plan_cache=True, cardinality_feedback=True)
    base.update(overrides)
    return SystemConfig.ic_plus(**base)


def _tenants(rate=2.0, priority_gap=False):
    return [
        TenantSpec(
            "gold",
            TEMPLATES,
            PoissonArrivals(rate=rate),
            priority=2 if priority_gap else 0,
        ),
        TenantSpec(
            "bronze", TEMPLATES, PoissonArrivals(rate=rate), priority=0
        ),
    ]


class TestRegressionPin:
    def test_first_query_at_t0_is_bit_identical_to_solo(self):
        """A query served at t=0 reproduces today's makespan bit-exactly."""
        config = _config(
            plan_cache=False,
            cardinality_feedback=False,
            serve_max_concurrent=1,
        )
        solo = make_company_cluster(config).try_sql(
            TEMPLATES[0].sql
        ).simulated_seconds
        # A zero-think closed loop puts its first arrival at exactly 0.0.
        tenants = [
            TenantSpec(
                "pin",
                TEMPLATES[:1],
                ClosedLoopArrivals(clients=1, mean_think_seconds=0.0),
            )
        ]
        server = QueryServer(make_company_cluster(config), tenants, seed=0)
        result = server.run(1.0)
        first = result.completed[0]
        assert first.arrival == 0.0
        assert first.queue_wait == 0.0
        assert first.execution_seconds == solo  # bit-identical, not approx

    def test_serialized_serving_reproduces_solo_makespans(self):
        """concurrency=1, admission off: execution == today's makespans.

        Two pins per served query: bit-identical to a solo simulation of
        the same task graph submitted at the same instant (the shared
        simulator adds zero perturbation), and equal to today's
        ``try_sql`` makespan up to float re-association across arrival
        offsets.
        """
        from repro.cluster.scheduler import simulate_makespan_with_faults

        # No plan cache: the pin compares against fresh solo planning.
        config = _config(
            plan_cache=False,
            cardinality_feedback=False,
            serve_max_concurrent=1,
        )
        cluster = make_company_cluster(config)
        reference = make_company_cluster(config)
        solo = {t.name: reference.try_sql(t.sql) for t in TEMPLATES}
        server = QueryServer(cluster, _tenants(rate=1.0), seed=11)
        result = server.run(8.0)
        completed = result.completed
        assert completed
        for record in completed:
            outcome = solo[record.template]
            assert record.execution_seconds == pytest.approx(
                outcome.simulated_seconds, rel=1e-9, abs=1e-9
            )
            if record.queue_wait == 0.0:
                at_offset, _ = simulate_makespan_with_faults(
                    outcome.result.task_graph,
                    config.sites,
                    CORES_PER_SITE,
                    at=record.dispatched,
                )
                assert record.execution_seconds == at_offset  # bit-identical

    def test_solo_query_has_zero_queue_wait(self):
        config = _config(serve_max_concurrent=1)
        cluster = make_company_cluster(config)
        server = QueryServer(
            cluster,
            [TenantSpec("t", TEMPLATES[:1], PoissonArrivals(rate=0.1))],
            seed=3,
        )
        result = server.run(30.0)
        assert result.completed
        # At 0.1 qps with ~10ms queries nothing ever queues.
        assert all(r.queue_wait == 0.0 for r in result.completed)
        assert all(
            r.latency == r.execution_seconds for r in result.completed
        )


class TestDeterminism:
    def _run(self, seed):
        cluster = make_company_cluster(_config())
        server = QueryServer(cluster, _tenants(), seed=seed)
        return server.run(10.0)

    def test_same_seed_bit_identical(self):
        a, b = self._run(7), self._run(7)
        key = lambda r: (
            r.tenant,
            r.request_id,
            r.template,
            r.status,
            r.arrival,
            r.latency,
            r.queue_wait,
            r.execution_seconds,
        )
        assert [key(r) for r in a.records] == [key(r) for r in b.records]
        ra, rb = SloReport.from_result(a), SloReport.from_result(b)
        assert ra.to_dict() == rb.to_dict()

    def test_different_seed_differs(self):
        a, b = self._run(7), self._run(8)
        assert [r.arrival for r in a.records] != [
            r.arrival for r in b.records
        ]


class TestPlanCacheUnderTraffic:
    def test_repeated_templates_hit_the_cache(self):
        cluster = make_company_cluster(_config())
        server = QueryServer(cluster, _tenants(rate=3.0), seed=5)
        result = server.run(10.0)
        report = SloReport.from_result(result)
        assert report.overall.cache_hits > 0
        assert report.overall.cache_hit_rate > 0.0
        # First execution of each (template, literal) pair misses.
        assert report.overall.cache_misses >= len(TEMPLATES)

    def test_cache_disabled_means_no_hits(self):
        cluster = make_company_cluster(
            _config(plan_cache=False, cardinality_feedback=False)
        )
        server = QueryServer(cluster, _tenants(rate=3.0), seed=5)
        report = SloReport.from_result(server.run(10.0))
        assert report.overall.cache_hits == 0


class TestOverload:
    def test_bounded_queue_rejections_and_priority_p99(self):
        """Overload: queue stays bounded, REJECTED appear, gold p99 < bronze."""
        config = _config(
            serve_policy="priority",
            serve_max_concurrent=1,
            serve_queue_depth=6,
        )
        cluster = make_company_cluster(config)
        server = QueryServer(
            cluster, _tenants(rate=60.0, priority_gap=True), seed=13
        )
        result = server.run(5.0)
        report = SloReport.from_result(result)
        statuses = Counter(r.status for r in result.records)
        assert statuses[QueryStatus.REJECTED] > 0
        assert result.max_queue_depth <= 6
        gold, bronze = report.tenant("gold"), report.tenant("bronze")
        assert gold.completed > 0 and bronze.completed > 0
        assert gold.p99_seconds < bronze.p99_seconds
        assert gold.mean_queue_wait_seconds < bronze.mean_queue_wait_seconds
        assert validate_slo_artefact(report.to_dict()) == []

    def test_shedding_drops_stale_requests(self):
        config = _config(
            serve_max_concurrent=1,
            serve_shed_wait_seconds=0.05,
        )
        cluster = make_company_cluster(config)
        server = QueryServer(cluster, _tenants(rate=40.0), seed=2)
        result = server.run(3.0)
        shed = [r for r in result.records if r.reject_reason == "shed"]
        assert shed
        assert all(r.status is QueryStatus.REJECTED for r in shed)

    def test_wfq_respects_weights_under_load(self):
        config = _config(serve_policy="wfq", serve_max_concurrent=1)
        cluster = make_company_cluster(config)
        tenants = [
            TenantSpec(
                "heavy", TEMPLATES, PoissonArrivals(rate=40.0), weight=3.0
            ),
            TenantSpec(
                "light", TEMPLATES, PoissonArrivals(rate=40.0), weight=1.0
            ),
        ]
        server = QueryServer(cluster, tenants, seed=21)
        report = SloReport.from_result(server.run(4.0))
        heavy, light = report.tenant("heavy"), report.tenant("light")
        # Equal offered load, 3:1 weights: heavy completes more and waits
        # less than light.
        assert heavy.completed > light.completed
        assert heavy.mean_queue_wait_seconds < light.mean_queue_wait_seconds


class TestClosedLoop:
    def test_think_time_clients_sustain_traffic(self):
        cluster = make_company_cluster(_config())
        tenants = [
            TenantSpec(
                "terminals",
                TEMPLATES,
                ClosedLoopArrivals(clients=3, mean_think_seconds=0.5),
            )
        ]
        server = QueryServer(cluster, tenants, seed=9)
        result = server.run(10.0)
        assert len(result.completed) > 3  # clients resubmitted after thinking
        clients = {r.request_id for r in result.records}
        assert len(clients) == len(result.records)  # fresh id per request
        # Closed loop: at most `clients` queries ever in flight.
        assert result.max_queue_depth <= 3


class TestServerGuards:
    def test_rejects_fault_injected_cluster(self):
        # A cluster-level fault schedule would bypass the plan cache and
        # double-inject faults; serving-layer crashes go through the
        # shared simulator instead.
        from repro.faults.injector import parse_fault

        config = _config().with_(faults=(parse_fault("kill-site", "0@t=1.0"),))
        cluster = make_company_cluster(config)
        with pytest.raises(ServeError):
            QueryServer(cluster, _tenants())

    def test_rejects_empty_tenancy_and_bad_duration(self):
        cluster = make_company_cluster(_config())
        with pytest.raises(ServeError):
            QueryServer(cluster, [])
        server = QueryServer(cluster, _tenants())
        with pytest.raises(ServeError):
            server.run(0.0)

    def test_planning_failures_are_recorded_not_raised(self):
        cluster = make_company_cluster(_config())
        tenants = [
            TenantSpec(
                "bad",
                (QueryTemplate("broken", "SELECT * FROM nowhere"),),
                PoissonArrivals(rate=2.0),
            )
        ]
        server = QueryServer(cluster, tenants, seed=1)
        result = server.run(5.0)
        assert result.records
        assert all(
            r.status is QueryStatus.ERROR and not r.succeeded
            for r in result.records
        )


class TestServeMetrics:
    def test_tenant_labelled_serving_metrics(self):
        from repro.obs.metrics import get_registry

        cluster = make_company_cluster(_config())
        server = QueryServer(cluster, _tenants(rate=2.0), seed=4)
        result = server.run(8.0)
        registry = get_registry()
        for tenant in ("gold", "bronze"):
            done = sum(
                1 for r in result.completed if r.tenant == tenant
            )
            assert registry.counter("serve.arrivals", tenant=tenant) >= done
            assert (
                registry.counter(
                    "serve.completed", tenant=tenant, status="ok"
                )
                == done
            )
            hist = registry.histogram("serve.latency", tenant=tenant)
            assert hist.count == done

    def test_trace_spans_when_enabled(self):
        cluster = make_company_cluster(_config())
        server = QueryServer(
            cluster, _tenants(rate=1.0), seed=6, record_traces=True
        )
        result = server.run(6.0)
        record = result.completed[0]
        names = [s.name for s in record.trace.spans()]
        assert names == ["request", "queued", "admitted", "execute"]
        root = record.trace.roots[0]
        assert root.attrs["tenant"] == record.tenant
        assert root.duration == pytest.approx(record.latency)
