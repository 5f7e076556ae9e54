"""Oracle property test: what a plan node keeps == what recursion gives.

Physical nodes derive their cumulative cost, exchange flag, leaf partition
sites and digest once.  Over seeded random queries on three schemas and
all three presets, every node of every plan — and of the plan's fragments,
which are ``copy()`` clones — must hold exactly the value the recursive
reference definitions in :mod:`helpers` compute: costs compared as
``float.hex``, so a re-ordered floating-point sum cannot pass.
"""

import pytest

from helpers import (
    make_company_store,
    reference_digest,
    reference_distribution_factor,
    reference_expr_digest,
    reference_has_exchange,
    reference_leaf_partition_sites,
    reference_total_cost,
)
from repro.common.config import PRESETS
from repro.common.errors import ReproError
from repro.cost.model import distribution_factor
from repro.exec.fragments import fragment_plan
from repro.exec.physical import walk_physical
from repro.planner.volcano import QueryPlanner
from repro.rel.expr import Expr
from repro.rel.logical import walk
from repro.rel.sql2rel import SqlToRelConverter
from repro.sql.parser import parse
from repro.verify.generator import QueryGenerator, SSB_EXTRA_EDGES

SYSTEMS = ["IC", "IC+", "IC+M"]


def cost_bits(cost):
    return tuple(
        float(part).hex()
        for part in (cost.cpu, cost.memory, cost.io, cost.network, cost.value)
    )


def expressions_of(node):
    for value in vars(node).values():
        values = value if isinstance(value, tuple) else (value,)
        for item in values:
            if isinstance(item, Expr):
                yield item


def assert_facts_match(root, where):
    for node in walk_physical(root):
        label = f"{where}: {type(node).__name__}"
        assert cost_bits(node.total_cost()) == cost_bits(
            reference_total_cost(node)
        ), label
        assert node.has_exchange == reference_has_exchange(node), label
        assert node.leaf_partition_sites == reference_leaf_partition_sites(
            node
        ), label
        assert distribution_factor(node) == reference_distribution_factor(
            node
        ), label
        assert node.digest() == reference_digest(node), label


def sweep(store, queries, system):
    config = PRESETS[system](store.site_count)
    planned = 0
    for sql in queries:
        try:
            logical = SqlToRelConverter(store.catalog).convert(parse(sql))
            for node in walk(logical):
                for expr in expressions_of(node):
                    assert expr.digest() == reference_expr_digest(expr), sql
            plan = QueryPlanner(store, config).plan(logical)
        except ReproError:
            continue  # IC's planning failures are another test's subject
        planned += 1
        assert_facts_match(plan, sql)
        for fragment in fragment_plan(plan):
            assert_facts_match(fragment.root, f"fragment of {sql}")
    return planned


@pytest.mark.verify
@pytest.mark.parametrize("system", SYSTEMS)
class TestCachedFactsEqualRecursion:
    def test_company(self, system):
        store = make_company_store(sites=4)
        queries = QueryGenerator(store, seed=3).queries(40)
        assert sweep(store, queries, system) >= 35

    def test_tpch(self, system):
        from repro.bench.tpch import load_tpch_cluster

        store = load_tpch_cluster(PRESETS["IC+"](4), 0.02).store
        queries = QueryGenerator(store, seed=3, max_joins=3).queries(20)
        assert sweep(store, queries, system) >= 15

    def test_ssb(self, system):
        from repro.bench.ssb import load_ssb_cluster

        store = load_ssb_cluster(PRESETS["IC+"](4), 0.02).store
        queries = QueryGenerator(
            store, seed=3, extra_edges=SSB_EXTRA_EDGES, max_joins=3
        ).queries(20)
        assert sweep(store, queries, system) >= 15
