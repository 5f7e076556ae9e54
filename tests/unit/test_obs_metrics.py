"""Unit tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    q_error,
    reset_registry,
)

pytestmark = pytest.mark.obs


def test_counters_accumulate_per_label_set():
    reg = MetricsRegistry()
    reg.inc("rows", 10, op="scan")
    reg.inc("rows", 5, op="scan")
    reg.inc("rows", 3, op="join")
    reg.inc("rows")  # unlabelled series is distinct
    assert reg.counter("rows", op="scan") == 15
    assert reg.counter("rows", op="join") == 3
    assert reg.counter("rows") == 1
    assert reg.counter("rows", op="absent") == 0


def test_label_order_does_not_matter():
    reg = MetricsRegistry()
    reg.inc("x", 1, a="1", b="2")
    reg.inc("x", 1, b="2", a="1")
    assert reg.counter("x", a="1", b="2") == 2
    assert list(reg.snapshot()) == ["x{a=1,b=2}"]


def test_gauges_last_write_and_high_water():
    reg = MetricsRegistry()
    reg.gauge_max("peak", 5.0)
    reg.gauge_max("peak", 2.0)
    reg.gauge_max("peak", 9.0)
    assert reg.gauge("peak") == 9.0
    assert reg.gauge("absent") is None


def test_histograms_summarise():
    reg = MetricsRegistry()
    for v in (2.0, 8.0, 5.0):
        reg.observe("latency", v, query="q1")
    summary = reg.histogram("latency", query="q1")
    assert summary.count == 3
    assert summary.total == 15.0
    assert summary.min == 2.0
    assert summary.max == 8.0
    assert summary.mean == 5.0
    assert reg.histogram("latency", query="other").count == 0


def test_snapshot_is_flat_sorted_and_expands_histograms():
    reg = MetricsRegistry()
    reg.inc("b.counter", 2)
    reg.gauge_max("a.gauge", 7.0, site="0")
    reg.observe("c.hist", 4.0)
    snap = reg.snapshot()
    assert list(snap) == sorted(snap)
    assert snap["b.counter"] == 2
    assert snap["a.gauge{site=0}"] == 7.0
    assert snap["c.hist_count"] == 1.0
    assert snap["c.hist_sum"] == 4.0
    assert snap["c.hist_min"] == 4.0
    assert snap["c.hist_max"] == 4.0


def test_delta_since_subtracts_counters_and_omits_unchanged():
    reg = MetricsRegistry()
    reg.inc("moved", 10)
    reg.inc("still", 1)
    before = reg.snapshot()
    reg.inc("moved", 7)
    reg.inc("fresh", 2)
    delta = reg.delta_since(before)
    assert delta["moved"] == 7
    assert delta["fresh"] == 2
    assert "still" not in delta


def test_delta_since_keeps_current_value_for_min_max():
    reg = MetricsRegistry()
    reg.observe("h", 5.0)
    before = reg.snapshot()
    reg.observe("h", 2.0)
    delta = reg.delta_since(before)
    assert delta["h_count"] == 1.0  # one new observation
    assert delta["h_sum"] == 2.0
    assert delta["h_min"] == 2.0  # point-in-time, not a difference
    assert "h_max" not in delta  # max did not change


def test_reset_clears_everything():
    reg = MetricsRegistry()
    reg.inc("c")
    reg.gauge_max("g", 1.0)
    reg.observe("h", 1.0)
    reg.reset()
    assert reg.snapshot() == {}


def test_q_error_definition():
    assert q_error(100, 100) == 1.0
    assert q_error(10, 100) == 10.0
    assert q_error(100, 10) == 10.0
    # both sides floored at one row
    assert q_error(0, 0) == 1.0
    assert q_error(0.2, 1) == 1.0
    assert q_error(5, 0) == 5.0


# -- registry isolation (the autouse conftest fixture) ------------------------
#
# This pair fails without the per-test reset: the first test writes to the
# process-wide registry, the second asserts it starts empty.  Order is
# file order, which pytest preserves.


def test_registry_leak_canary_writes():
    get_registry().inc("leak.canary", 41)
    assert get_registry().counter("leak.canary") == 41


def test_registry_leak_canary_sees_clean_registry():
    assert get_registry().counter("leak.canary") == 0
    assert get_registry().snapshot() == {}


def test_reset_registry_clears_global():
    get_registry().inc("x")
    reset_registry()
    assert get_registry().snapshot() == {}


# -- histogram percentiles (serving-layer SLO math) ---------------------------


def test_percentile_empty_histogram_raises():
    from repro.obs.metrics import HistogramSummary

    with pytest.raises(ValueError):
        HistogramSummary().percentile(0.5)


def test_percentile_rejects_out_of_range_q():
    from repro.obs.metrics import HistogramSummary

    summary = HistogramSummary()
    summary.observe(1.0)
    with pytest.raises(ValueError):
        summary.percentile(-0.01)
    with pytest.raises(ValueError):
        summary.percentile(1.01)


def test_percentile_single_sample_is_that_sample():
    from repro.obs.metrics import HistogramSummary

    summary = HistogramSummary()
    summary.observe(3.25)
    for q in (0.0, 0.5, 0.99, 1.0):
        assert summary.percentile(q) == 3.25


def test_percentile_q0_and_q1_are_min_and_max():
    from repro.obs.metrics import HistogramSummary

    summary = HistogramSummary()
    for v in (5.0, 1.0, 9.0, 3.0):
        summary.observe(v)
    assert summary.percentile(0.0) == 1.0
    assert summary.percentile(1.0) == 9.0


def test_percentile_linear_interpolation():
    from repro.obs.metrics import HistogramSummary

    summary = HistogramSummary()
    for v in (10.0, 20.0, 30.0, 40.0):
        summary.observe(v)
    # position = 0.5 * 3 = 1.5 -> halfway between 20 and 30.
    assert summary.percentile(0.5) == pytest.approx(25.0)
    assert summary.percentile(0.25) == pytest.approx(17.5)


def test_percentile_insertion_order_irrelevant():
    from repro.obs.metrics import HistogramSummary

    a, b = HistogramSummary(), HistogramSummary()
    for v in (3.0, 1.0, 2.0):
        a.observe(v)
    for v in (1.0, 2.0, 3.0):
        b.observe(v)
    assert a.percentile(0.75) == b.percentile(0.75)


def test_histogram_count_tracks_observations():
    from repro.obs.metrics import HistogramSummary

    summary = HistogramSummary()
    assert summary.count == 0
    summary.observe(1.0)
    summary.observe(2.0)
    assert summary.count == 2


# -- tenant attribution scopes ------------------------------------------------


def test_tenant_labels_empty_outside_scope():
    from repro.obs.metrics import current_tenant, tenant_labels

    assert tenant_labels() == {}
    assert current_tenant() is None


def test_tenant_scope_attaches_label():
    from repro.obs.metrics import current_tenant, tenant_labels, tenant_scope

    with tenant_scope("acme"):
        assert current_tenant() == "acme"
        assert tenant_labels() == {"tenant": "acme"}
    assert tenant_labels() == {}


def test_tenant_scopes_nest_innermost_wins():
    from repro.obs.metrics import current_tenant, tenant_scope

    with tenant_scope("outer"):
        with tenant_scope("inner"):
            assert current_tenant() == "inner"
        assert current_tenant() == "outer"


def test_tenant_scope_none_is_noop():
    from repro.obs.metrics import current_tenant, tenant_scope

    with tenant_scope(None):
        assert current_tenant() is None




def test_tenant_scope_pops_when_the_block_raises():
    from repro.obs.metrics import current_tenant, tenant_scope

    with pytest.raises(RuntimeError):
        with tenant_scope("acme"):
            raise RuntimeError("request failed")
    assert current_tenant() is None
