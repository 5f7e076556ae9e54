"""Per-tenant metric attribution for the shared adaptive layer.

The plan cache and feedback registry are shared across tenants (one
entry per plan shape cluster-wide), but their metrics must say *whose*
query caused each hit/miss/eviction.  These tests run interleaved
tenant workloads through one cluster and check the label arithmetic —
and that DDL invalidation still clears the shared cache for everyone.
"""

import pytest

from helpers import make_company_cluster
from repro.common.config import SystemConfig
from repro.obs.metrics import get_registry, tenant_scope
from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import ColumnType
from repro.serve.server import QueryServer
from repro.serve.traffic import PoissonArrivals, QueryTemplate, TenantSpec

pytestmark = pytest.mark.serve

SQL = "SELECT COUNT(*) FROM emp"
OTHER_SQL = "SELECT COUNT(*) FROM dept"
JOIN_SQL = (
    "select e.name, s.amount from emp e, sales s where e.emp_id = s.emp_id"
)


def _cluster():
    return make_company_cluster(
        SystemConfig.ic_plus(plan_cache=True, cardinality_feedback=True)
    )


class TestTenantAttribution:
    def test_hits_attributed_to_the_tenant_that_caused_them(self):
        cluster = _cluster()
        registry = get_registry()
        # acme plans it cold (miss), then both tenants hit the shared entry.
        with tenant_scope("acme"):
            cluster.sql(SQL)
            cluster.sql(SQL)
        with tenant_scope("biz"):
            cluster.sql(SQL)
        assert registry.counter("plan_cache.misses", tenant="acme") == 1
        assert registry.counter("plan_cache.hits", tenant="acme") == 1
        assert registry.counter("plan_cache.misses", tenant="biz") == 0
        assert registry.counter("plan_cache.hits", tenant="biz") == 1

    def test_unscoped_queries_keep_unlabelled_series(self):
        cluster = _cluster()
        registry = get_registry()
        cluster.sql(SQL)
        cluster.sql(SQL)
        assert registry.counter("plan_cache.misses") == 1
        assert registry.counter("plan_cache.hits") == 1
        # No tenant-labelled series appeared.
        snapshot = registry.snapshot()
        assert not any(
            name.startswith("plan_cache") and "tenant=" in name
            for name in snapshot
        )

    def test_feedback_observations_carry_tenant_label(self):
        cluster = _cluster()
        with tenant_scope("acme"):
            cluster.sql(SQL)
        assert (
            get_registry().counter(
                "adaptive.feedback_observations", tenant="acme"
            )
            > 0
        )

    def test_contention_attribution_under_interleaved_serving(self):
        """Concurrent tenants: per-tenant hit counters sum to the truth."""
        cluster = _cluster()
        templates = (QueryTemplate("q", SQL),)
        tenants = [
            TenantSpec("acme", templates, PoissonArrivals(rate=4.0)),
            TenantSpec("biz", templates, PoissonArrivals(rate=4.0)),
        ]
        server = QueryServer(cluster, tenants, seed=17)
        result = server.run(6.0)
        registry = get_registry()
        for tenant in ("acme", "biz"):
            recorded_hits = sum(
                1
                for r in result.completed
                if r.tenant == tenant and r.cache_hit
            )
            assert (
                registry.counter("plan_cache.hits", tenant=tenant)
                == recorded_hits
            )
        total = registry.counter(
            "plan_cache.hits", tenant="acme"
        ) + registry.counter("plan_cache.hits", tenant="biz")
        assert total == sum(1 for r in result.completed if r.cache_hit)
        assert total > 0  # repeated-template traffic must actually hit

    def test_partial_harvests_carry_tenant_label(self):
        """Every query misses its deadline, and the completed prefix each
        one leaves feeds feedback on behalf of the tenant that sent it."""
        cluster = make_company_cluster(
            SystemConfig.ic_plus(
                cardinality_feedback=True, query_deadline_seconds=1e-6
            )
        )
        templates = (QueryTemplate("join", JOIN_SQL),)
        tenants = [
            TenantSpec(name, templates, PoissonArrivals(rate=2.0))
            for name in ("acme", "biz")
        ]
        result = QueryServer(cluster, tenants, seed=3).run(4.0)
        assert result.records and not result.completed
        registry = get_registry()
        for tenant in ("acme", "biz"):
            assert (
                registry.counter(
                    "adaptive.feedback_partial_harvests", tenant=tenant
                )
                >= 1
            )


class TestDdlInvalidation:
    def test_ddl_clears_the_shared_cache_for_all_tenants(self):
        cluster = _cluster()
        registry = get_registry()
        with tenant_scope("acme"):
            cluster.sql(SQL)
        with tenant_scope("biz"):
            cluster.sql(OTHER_SQL)
        assert len(cluster.adaptive.cache) == 2
        # DDL from a third tenant drops every tenant's entries.
        with tenant_scope("ops"):
            cluster.create_table(
                TableSchema(
                    "audit",
                    [Column("id", ColumnType.INTEGER)],
                    ["id"],
                ),
                [(1,)],
            )
        assert len(cluster.adaptive.cache) == 0
        assert (
            registry.counter("plan_cache.invalidations", tenant="ops") == 2
        )
        # Both tenants replan cold after the invalidation.
        with tenant_scope("acme"):
            cluster.sql(SQL)
        with tenant_scope("biz"):
            cluster.sql(OTHER_SQL)
        assert registry.counter("plan_cache.misses", tenant="acme") == 2
        assert registry.counter("plan_cache.misses", tenant="biz") == 2
