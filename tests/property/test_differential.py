"""Property tests: distributed execution == reference oracle.

Seeded random queries are generated per schema and every one must agree
with the single-node reference executor under all three system presets
(IC, IC+, IC+M), with zero invariant violations along the way.  Marked
``verify`` so the differential sweep can be selected (or deselected)
explicitly with ``-m verify``.
"""

import pytest

from helpers import make_company_cluster
from repro.common.config import PRESETS
from repro.verify.differential import differential_check
from repro.verify.generator import QueryGenerator, SSB_EXTRA_EDGES

SYSTEMS = ["IC", "IC+", "IC+M"]


def verified(system):
    return PRESETS[system](4).with_(verify_execution=True)


def run_sweep(cluster, count, extra_edges=()):
    """Checked (not skipped) queries of ``count`` generated over the
    cluster's own data, which is the same under every preset."""
    queries = QueryGenerator(
        cluster.store, seed=0, extra_edges=extra_edges
    ).queries(count)
    failures = []
    checked = 0
    for sql in queries:
        report = differential_check(sql, cluster)
        if report.skipped:
            continue
        checked += 1
        if not report.ok:
            failures.append(f"[{report.status}] {sql}\n{report.detail}")
    assert not failures, "\n\n".join(failures)
    return checked


@pytest.mark.verify
class TestCompanySchema:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_fifty_random_queries_agree(self, system):
        checked = run_sweep(make_company_cluster(verified(system)), 50)
        assert checked >= 45  # nearly nothing should be skipped


@pytest.mark.verify
class TestTpchSchema:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_twenty_random_queries_agree(self, system):
        from repro.bench.tpch import load_tpch_cluster

        checked = run_sweep(load_tpch_cluster(verified(system), 0.02), 20)
        assert checked >= 15


@pytest.mark.verify
class TestSsbSchema:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_fifteen_random_queries_agree(self, system):
        from repro.bench.ssb import load_ssb_cluster

        checked = run_sweep(
            load_ssb_cluster(verified(system), 0.02), 15, SSB_EXTRA_EDGES
        )
        assert checked >= 11
