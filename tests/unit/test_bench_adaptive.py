"""Unit tests for the adaptive benchmark driver (repro.bench.adaptive)."""

import pytest

from repro.bench.adaptive import default_workload, run_adaptive
from repro.common.config import SystemConfig

from helpers import make_company_cluster

pytestmark = pytest.mark.adaptive

WORKLOAD = {
    "count": "select dept_id, count(*) from emp group by dept_id",
    "join": "select e.name, s.amount from emp e, sales s "
            "where e.emp_id = s.emp_id and s.amount > 1000",
}


def company_loader(config, scale_factor):
    return make_company_cluster(config)


class TestRunAdaptive:
    def test_repeats_hit_the_cache(self):
        config = SystemConfig.ic_plus(
            4, plan_cache=True, cardinality_feedback=True
        )
        result = run_adaptive(company_loader, WORKLOAD, config, 1.0, repeats=3)
        assert result.rows_stable
        for measurement in result.measurements.values():
            assert measurement.first_ticks > 0
            # repeats are hits (or one replan): never more ticks than cold
            assert measurement.repeat_ticks <= measurement.first_ticks
            assert sum(measurement.cache_hits) >= 1
        assert result.total_repeat_ticks < result.total_first_ticks * 2

    def test_disabled_config_is_a_flat_baseline(self):
        config = SystemConfig.ic_plus(4)
        result = run_adaptive(company_loader, WORKLOAD, config, 1.0, repeats=2)
        assert result.rows_stable
        for measurement in result.measurements.values():
            assert sum(measurement.cache_hits) == 0
            assert measurement.budget_ticks[0] == measurement.budget_ticks[1]

    def test_to_text_renders_every_query(self):
        config = SystemConfig.ic_plus(4, plan_cache=True)
        result = run_adaptive(company_loader, WORKLOAD, config, 1.0, repeats=2)
        text = result.to_text()
        for name in WORKLOAD:
            assert name in text
        assert "rows stable across repeats: yes" in text

    def test_rejects_single_repeat(self):
        with pytest.raises(ValueError):
            run_adaptive(company_loader, WORKLOAD, SystemConfig.ic_plus(4), 1.0, 1)

    def test_rows_with_nulls_compare_without_raising(self):
        """Raw ``sorted()`` raised TypeError on a NULL next to an int."""
        workload = {
            "left": "select s.sale_id, e.emp_id from emp e left join sales s "
                    "on e.emp_id = s.emp_id and s.amount > 4000",
        }
        config = SystemConfig.ic_plus(4, plan_cache=True)
        result = run_adaptive(company_loader, workload, config, 1.0, repeats=2)
        assert result.rows_stable

    def test_a_failed_run_is_reported_by_status_not_as_a_divergence(self):
        workload = {"view": "create view v as select name from emp"}
        config = SystemConfig.ic_plus(4, plan_cache=True)
        result = run_adaptive(company_loader, workload, config, 1.0, repeats=2)
        assert result.rows_stable
        assert result.measurements["view"].failed == "unsupported"
        assert "unsupported" in result.to_text()


def test_default_workload_is_a_sorted_slice():
    pool = {"b": "2", "a": "1", "c": "3"}
    assert list(default_workload(pool, 2)) == ["a", "b"]
