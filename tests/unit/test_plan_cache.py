"""Unit tests for the LRU plan cache (repro.adaptive.cache)."""

import pytest

from repro.adaptive.cache import CacheEntry, PlanCache
from repro.obs.metrics import get_registry

pytestmark = pytest.mark.adaptive


def entry(plan="plan"):
    return CacheEntry(logical="logical", plan=plan)


def served(cache, sql):
    """What the pipeline runs for ``sql``: the cached plan or None."""
    return cache.serve(cache.lookup(sql))


class TestLookup:
    def test_miss_then_hit(self):
        cache = PlanCache(4)
        assert served(cache, "k") is None
        cache.store("k", entry())
        assert served(cache, "k") == "plan"
        registry = get_registry()
        assert registry.counter("plan_cache.misses") == 1.0
        assert registry.counter("plan_cache.hits") == 1.0

    def test_another_text_is_another_entry(self):
        cache = PlanCache(4)
        cache.store("where x > 5", entry("five"))
        assert served(cache, "where x > 6") is None
        cache.store("where x > 6", entry("six"))
        assert served(cache, "where x > 5") == "five"
        assert served(cache, "where x > 6") == "six"
        assert len(cache) == 2

    def test_every_hit_is_counted(self):
        cache = PlanCache(4)
        cache.store("k", entry())
        cache.store("j", entry())
        served(cache, "k")
        served(cache, "k")
        served(cache, "j")
        assert get_registry().counter("plan_cache.hits") == 3.0

    def test_peek_is_silent(self):
        cache = PlanCache(4)
        cache.store("k", entry())
        cache.peek("k")
        registry = get_registry()
        assert registry.counter("plan_cache.hits") == 0.0
        assert registry.counter("plan_cache.misses") == 0.0

    def test_a_dropped_plan_keeps_its_statement(self):
        cache = PlanCache(4)
        cache.store("k", entry())
        cache.peek("k").plan = None  # what a feedback replan does
        found = cache.lookup("k")
        assert found.logical == "logical"
        assert cache.serve(found) is None
        assert get_registry().counter("plan_cache.misses") == 1.0


class TestEviction:
    def test_lru_eviction_over_capacity(self):
        cache = PlanCache(2)
        cache.store("a", entry())
        cache.store("b", entry())
        cache.lookup("a")  # a is now most recently used
        cache.store("c", entry())  # evicts b
        assert cache.peek("b") is None
        assert cache.peek("a") is not None
        assert cache.peek("c") is not None
        assert get_registry().counter("plan_cache.evictions") == 1.0

    def test_clear_counts_invalidations(self):
        cache = PlanCache(4)
        cache.store("a", entry())
        cache.store("b", entry())
        cache.store("c", entry(plan=None))  # no plan left to invalidate
        cache.clear()
        assert len(cache) == 0
        assert get_registry().counter("plan_cache.invalidations") == 2.0

    def test_restore_same_key_replaces(self):
        cache = PlanCache(2)
        cache.store("a", entry(plan="old"))
        cache.store("a", entry(plan="new"))
        assert len(cache) == 1
        assert cache.peek("a").plan == "new"
