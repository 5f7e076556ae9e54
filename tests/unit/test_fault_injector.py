"""Unit tests for the deterministic fault injector."""

import pytest

from repro.common.errors import ExecutionError
from repro.faults.injector import (
    ANY,
    ExchangeDelay,
    ExchangeDrop,
    FaultInjector,
    FragmentOom,
    SiteCrash,
    SiteSlowdown,
    parse_fault,
    random_schedule,
)
from repro.storage.table import failover_owner


class TestParseFault:
    def test_kill_site_with_time(self):
        assert parse_fault("kill-site", "2@t=0.5") == SiteCrash(site=2, at=0.5)

    def test_kill_site_defaults_to_time_zero(self):
        assert parse_fault("kill-site", "3") == SiteCrash(site=3, at=0.0)

    def test_slow_site_parses_factor(self):
        assert parse_fault("slow-site", "1x4@t=0.2") == SiteSlowdown(
            site=1, factor=4.0, at=0.2
        )

    def test_slow_site_requires_factor(self):
        with pytest.raises(ExecutionError):
            parse_fault("slow-site", "1@t=0.2")

    def test_delay_exchange_factor_is_seconds(self):
        assert parse_fault("delay-exchange", "0x0.5@t=0.1") == ExchangeDelay(
            exchange_id=0, delay_seconds=0.5, at=0.1
        )

    def test_drop_exchange_wildcard(self):
        assert parse_fault("drop-exchange", "-1") == ExchangeDrop(
            exchange_id=ANY, at=0.0
        )

    def test_oom_fragment(self):
        assert parse_fault("oom-fragment", "2@t=1.5") == FragmentOom(
            fragment_id=2, at=1.5
        )

    @pytest.mark.parametrize("bad", ["", "abc", "2@t=", "x4", "2@0.5"])
    def test_garbage_rejected(self, bad):
        with pytest.raises(ExecutionError):
            parse_fault("kill-site", bad)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExecutionError):
            parse_fault("melt-cpu", "1")


class TestFailoverOwner:
    def test_alive_primary_keeps_ownership(self):
        assert failover_owner(5, 4, [0, 1, 2, 3]) == 5 % 4

    def test_dead_primary_fails_over_deterministically(self):
        alive = [0, 2, 3]  # site 1 died
        assert failover_owner(1, 4, alive) == alive[1 % 3]

    def test_every_partition_lands_on_a_survivor(self):
        alive = [0, 3]
        for partition in range(32):
            assert failover_owner(partition, 4, alive) in alive

    def test_copartitioned_tables_stay_colocated(self):
        # Scans and hash routing share this function: equal partition
        # numbers must map to the same site whatever the failure pattern.
        for alive in ([0, 1, 3], [2], [1, 2]):
            for partition in range(16):
                a = failover_owner(partition, 4, alive)
                b = failover_owner(partition, 4, alive)
                assert a == b

    def test_no_survivors_raises(self):
        with pytest.raises(ExecutionError):
            failover_owner(0, 4, [])


class TestSiteLiveness:
    def test_dead_sites_respects_time(self):
        injector = FaultInjector([SiteCrash(1, at=0.5), SiteCrash(2, at=2.0)])
        assert injector.dead_sites(0.0) == frozenset()
        assert injector.dead_sites(0.5) == {1}
        assert injector.dead_sites(3.0) == {1, 2}

    def test_alive_sites_complements_dead(self):
        injector = FaultInjector([SiteCrash(0, at=0.0)])
        assert injector.alive_sites(4, 0.0) == [1, 2, 3]

    def test_scheduler_events_sorted_by_time(self):
        injector = FaultInjector(
            [SiteSlowdown(0, 2.0, at=1.0), SiteCrash(3, at=0.25)]
        )
        events = injector.scheduler_events()
        assert events == [
            (0.25, "crash", (3,)),
            (1.0, "slow", (0, 2.0)),
        ]

    def test_one_shot_faults_are_not_scheduler_events(self):
        injector = FaultInjector([ExchangeDrop(0), FragmentOom(1)])
        assert injector.scheduler_events() == []


class TestOneShotFaults:
    def test_drop_fires_exactly_once(self):
        injector = FaultInjector([ExchangeDrop(exchange_id=7, at=0.0)])
        assert injector.take_exchange_drop(7, at=0.0)
        assert not injector.take_exchange_drop(7, at=0.0)

    def test_drop_waits_for_its_time(self):
        injector = FaultInjector([ExchangeDrop(exchange_id=7, at=1.0)])
        assert not injector.take_exchange_drop(7, at=0.5)
        assert injector.take_exchange_drop(7, at=1.0)

    def test_drop_wildcard_matches_any_exchange(self):
        injector = FaultInjector([ExchangeDrop(exchange_id=ANY)])
        assert injector.take_exchange_drop(42, at=0.0)
        assert not injector.take_exchange_drop(43, at=0.0)

    def test_oom_is_one_shot_per_spec(self):
        injector = FaultInjector(
            [FragmentOom(fragment_id=2), FragmentOom(fragment_id=2)]
        )
        assert injector.take_fragment_oom(2, at=0.0)
        assert injector.take_fragment_oom(2, at=0.0)  # second spec
        assert not injector.take_fragment_oom(2, at=0.0)

    def test_mismatched_id_does_not_consume(self):
        injector = FaultInjector([FragmentOom(fragment_id=2)])
        assert not injector.take_fragment_oom(3, at=0.0)
        assert injector.take_fragment_oom(2, at=0.0)

    def test_reset_rearms_consumed_faults(self):
        injector = FaultInjector([ExchangeDrop(exchange_id=ANY)])
        assert injector.take_exchange_drop(0, at=0.0)
        injector.reset()
        assert injector.take_exchange_drop(0, at=0.0)


class TestExchangeDelay:
    def test_delays_sum_and_filter_by_exchange(self):
        injector = FaultInjector(
            [
                ExchangeDelay(exchange_id=1, delay_seconds=0.5),
                ExchangeDelay(exchange_id=ANY, delay_seconds=0.25),
                ExchangeDelay(exchange_id=2, delay_seconds=9.0),
            ]
        )
        assert injector.exchange_delay_seconds(1, at=0.0) == pytest.approx(0.75)
        assert injector.exchange_delay_seconds(3, at=0.0) == pytest.approx(0.25)

    def test_delay_not_active_before_its_time(self):
        injector = FaultInjector([ExchangeDelay(1, 0.5, at=2.0)])
        assert injector.exchange_delay_seconds(1, at=1.0) == 0.0


class TestComposition:
    def test_fault_free_cluster_carries_the_empty_schedule(self):
        from repro.core.cluster import IgniteCalciteCluster

        injector = IgniteCalciteCluster.ic_plus(4).fault_injector
        assert injector.schedule == ()
        assert injector.alive_sites(4, 0.0) == [0, 1, 2, 3]

    def test_cluster_injector_wraps_the_config_schedule(self):
        from repro.core.cluster import IgniteCalciteCluster

        cluster = IgniteCalciteCluster.ic_plus(4, faults=(SiteCrash(1, 0.5),))
        assert cluster.fault_injector.dead_sites(1.0) == {1}

    def test_random_schedule_is_deterministic(self):
        a = random_schedule(seed=7, sites=4, horizon_seconds=2.0, crashes=2)
        b = random_schedule(seed=7, sites=4, horizon_seconds=2.0, crashes=2)
        assert a == b

    def test_random_schedule_keeps_sites_alive(self):
        schedule = random_schedule(
            seed=3, sites=4, horizon_seconds=1.0, crashes=10, keep_alive=2
        )
        crashed = {s.site for s in schedule if isinstance(s, SiteCrash)}
        assert len(crashed) <= 2
