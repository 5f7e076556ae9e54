"""Unit tests for the admission controller and its policies."""

import pytest

from repro.bench.serve import build_tenants, run_serve_bench
from repro.obs.metrics import get_registry
from repro.serve.admission import (
    REASON_QUEUE_FULL,
    REASON_SHED,
    AdmissionController,
    AdmissionError,
)
from repro.serve.traffic import (
    PoissonArrivals,
    QueryRequest,
    QueryTemplate,
    TenantSpec,
    TrafficError,
)

pytestmark = pytest.mark.serve

TEMPLATES = (QueryTemplate("q", "SELECT 1"),)


def _tenant(name, priority=0, weight=1.0, slots=0):
    return TenantSpec(
        name=name,
        templates=TEMPLATES,
        arrivals=PoissonArrivals(rate=1.0),
        priority=priority,
        weight=weight,
        slots=slots,
    )


def _request(tenant, rid, arrival=0.0):
    return QueryRequest(
        tenant=tenant.name,
        request_id=rid,
        template="q",
        sql="SELECT 1",
        arrival=arrival,
        priority=tenant.priority,
        weight=tenant.weight,
    )


class TestValidation:
    def test_unknown_policy(self):
        with pytest.raises(AdmissionError):
            AdmissionController([_tenant("a")], policy="lifo")

    def test_negative_caps(self):
        with pytest.raises(AdmissionError):
            AdmissionController([_tenant("a")], queue_depth=-1)
        with pytest.raises(AdmissionError):
            AdmissionController([_tenant("a")], shed_wait_seconds=-0.5)

    @pytest.mark.parametrize(
        "caps",
        [dict(queue_depth=-1), dict(max_concurrent=-1), dict(shed_wait_seconds=-0.5)],
        ids=["queue_depth", "max_concurrent", "shed_wait"],
    )
    def test_serve_bench_rejects_caps_before_loading(self, caps):
        """Bad caps fail before a single cluster is loaded."""
        loads = []
        with pytest.raises(AdmissionError):
            run_serve_bench(
                lambda config, sf: loads.append((config, sf)),
                ["IC", "IC+"], 0.02, [_tenant("a")], duration=1.0, **caps,
            )
        assert loads == []

    def test_unknown_tenant_rejected(self):
        ctrl = AdmissionController([_tenant("a")])
        ghost = _tenant("ghost")
        with pytest.raises(AdmissionError):
            ctrl.offer(_request(ghost, 1), now=0.0)

    def test_finish_without_admit(self):
        tenant = _tenant("a")
        ctrl = AdmissionController([tenant])
        with pytest.raises(AdmissionError):
            ctrl.finish(_request(tenant, 1))


class TestBoundedQueue:
    def test_rejects_beyond_depth(self):
        tenant = _tenant("a")
        ctrl = AdmissionController([tenant], queue_depth=2)
        assert ctrl.offer(_request(tenant, 1), 0.0)
        assert ctrl.offer(_request(tenant, 2), 0.0)
        assert not ctrl.offer(_request(tenant, 3), 0.0)
        assert len(ctrl) == 2
        assert ctrl.max_queue_depth == 2
        registry = get_registry()
        assert registry.counter("serve.offered", tenant="a") == 3
        assert (
            registry.counter(
                "serve.rejected", tenant="a", reason=REASON_QUEUE_FULL
            )
            == 1
        )

    def test_zero_depth_is_unbounded(self):
        tenant = _tenant("a")
        ctrl = AdmissionController([tenant], queue_depth=0)
        for rid in range(50):
            assert ctrl.offer(_request(tenant, rid), 0.0)
        assert len(ctrl) == 50


class TestShedding:
    def test_sheds_overdue_requests(self):
        tenant = _tenant("a")
        ctrl = AdmissionController([tenant], shed_wait_seconds=1.0)
        ctrl.offer(_request(tenant, 1, arrival=0.0), 0.0)
        ctrl.offer(_request(tenant, 2, arrival=1.8), 1.8)
        shed = ctrl.shed(now=2.0)
        assert [r.request_id for r in shed] == [1]
        assert len(ctrl) == 1
        assert (
            get_registry().counter(
                "serve.rejected", tenant="a", reason=REASON_SHED
            )
            == 1
        )

    def test_no_shed_when_disabled(self):
        tenant = _tenant("a")
        ctrl = AdmissionController([tenant])
        ctrl.offer(_request(tenant, 1, arrival=0.0), 0.0)
        assert ctrl.shed(now=100.0) == []


class TestFifoPolicy:
    def test_arrival_order(self):
        a, b = _tenant("a"), _tenant("b")
        ctrl = AdmissionController([a, b], policy="fifo")
        ctrl.offer(_request(b, 1), 0.0)
        ctrl.offer(_request(a, 2), 0.0)
        assert ctrl.admit(0.0).request_id == 1
        assert ctrl.admit(0.0).request_id == 2
        assert ctrl.admit(0.0) is None


class TestPriorityPolicy:
    def test_highest_priority_first(self):
        gold, free = _tenant("gold", priority=5), _tenant("free", priority=0)
        ctrl = AdmissionController([gold, free], policy="priority")
        ctrl.offer(_request(free, 1), 0.0)
        ctrl.offer(_request(gold, 2), 0.0)
        ctrl.offer(_request(free, 3), 0.0)
        ctrl.offer(_request(gold, 4), 0.0)
        order = [ctrl.admit(0.0).request_id for _ in range(4)]
        assert order == [2, 4, 1, 3]


class TestWfqPolicy:
    def test_service_shares_follow_weights(self):
        heavy = _tenant("heavy", weight=3.0)
        light = _tenant("light", weight=1.0)
        ctrl = AdmissionController(
            [heavy, light], policy="wfq", max_concurrent=0
        )
        for rid in range(12):
            ctrl.offer(_request(heavy, 100 + rid), 0.0)
            ctrl.offer(_request(light, 200 + rid), 0.0)
        admitted = [ctrl.admit(0.0).request_id for _ in range(8)]
        heavy_share = sum(1 for rid in admitted if rid < 200)
        # 3:1 weights => ~6 of the first 8 admissions go to `heavy`.
        assert heavy_share == 6


class TestConcurrencyCaps:
    def test_global_cap(self):
        tenant = _tenant("a")
        ctrl = AdmissionController([tenant], max_concurrent=2)
        for rid in range(3):
            ctrl.offer(_request(tenant, rid), 0.0)
        first = ctrl.admit(0.0)
        second = ctrl.admit(0.0)
        assert first and second
        assert ctrl.admit(0.0) is None  # at the cap
        ctrl.finish(first)
        assert ctrl.admit(0.0) is not None

    def test_tenant_slots_allow_overtaking(self):
        a, b = _tenant("a", slots=1), _tenant("b")
        ctrl = AdmissionController([a, b], policy="fifo")
        ctrl.offer(_request(a, 1), 0.0)
        ctrl.offer(_request(a, 2), 0.0)
        ctrl.offer(_request(b, 3), 0.0)
        assert ctrl.admit(0.0).request_id == 1
        # a's second request is blocked by its slot cap; b overtakes.
        assert ctrl.admit(0.0).request_id == 3
        assert ctrl.admit(0.0) is None

    def test_tenant_slots_come_from_the_spec(self):
        capped, uncapped = _tenant("a", slots=1), _tenant("b")  # 0 = uncapped
        ctrl = AdmissionController([capped, uncapped])
        for rid, spec in enumerate((capped, capped, uncapped, uncapped)):
            ctrl.offer(_request(spec, rid), 0.0)
        assert [ctrl.admit(0.0).request_id for _ in range(3)] == [0, 2, 3]
        assert ctrl.admit(0.0) is None
        with pytest.raises(TrafficError):
            _tenant("c", slots=-1)

    def test_build_tenants_caps_every_tenant(self):
        specs = build_tenants({"q": "SELECT 1"}, tenants=3, slots=2)
        assert [spec.slots for spec in specs] == [2, 2, 2]
        assert {spec.slots for spec in build_tenants({"q": "SELECT 1"})} == {0}


class TestDeterminism:
    def test_equal_rank_breaks_on_sequence_then_tenant(self):
        a, b = _tenant("a"), _tenant("b")
        ctrl = AdmissionController([a, b], policy="priority")
        ctrl.offer(_request(a, 1), 0.0)
        ctrl.offer(_request(b, 2), 0.0)
        # Same priority: earlier offer wins.
        assert ctrl.admit(0.0).request_id == 1
