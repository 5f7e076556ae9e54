"""Property: a wounded cluster still returns the oracle's answer.

For any single-site failure — any victim, any crash time, with or without
failover re-dispatch — a workload run with retries enabled must end with
every query answered and every answer equal (as a multiset) to the
single-node reference executor's.  This is the resilience layer's core
contract: graceful degradation means *degraded latency, identical rows*.
"""

import pytest

from helpers import make_company_cluster
from repro.common.config import SystemConfig
from repro.faults.chaos import run_chaos
from repro.faults.injector import SiteCrash

QUERIES = {
    "join-filter": (
        "select e.name, s.amount from emp e, sales s "
        "where e.emp_id = s.emp_id and s.amount > 1000"
    ),
    "group-by": (
        "select region, count(*), sum(amount) from sales "
        "group by region order by region"
    ),
    "three-way": (
        "select d.dept_name, count(*) from dept d, emp e, sales s "
        "where d.dept_id = e.dept_id and e.emp_id = s.emp_id "
        "group by d.dept_name order by d.dept_name"
    ),
}


@pytest.mark.chaos
@pytest.mark.verify
class TestSingleSiteFailureRecovery:
    @pytest.mark.parametrize("victim", [0, 1, 2, 3])
    @pytest.mark.parametrize("crash_at", [0.0, 0.0003, 0.05])
    @pytest.mark.parametrize("redispatch", [True, False])
    def test_recovered_rows_match_the_oracle(
        self, victim, crash_at, redispatch
    ):
        config = SystemConfig.ic_plus(4).with_(
            faults=(SiteCrash(site=victim, at=crash_at),),
            max_retries=2,
            failover_redispatch=redispatch,
        )
        report = run_chaos(
            make_company_cluster(config), QUERIES, seed=victim
        )
        assert report.availability == 1.0, report.to_text()
        assert report.oracle_clean, report.to_text()
        for record in report.records:
            assert record.succeeded
            assert record.oracle_ok

    def test_crashing_the_coordinator_site_promotes_a_survivor(self):
        # Site 0 hosts the root fragment; its death must not strand the
        # coordinator role.
        config = SystemConfig.ic_plus(4).with_(
            faults=(SiteCrash(site=0, at=0.0),), max_retries=1
        )
        report = run_chaos(make_company_cluster(config), QUERIES, seed=0)
        assert report.availability == 1.0
        assert report.oracle_clean
