"""Physical planning prices every alternative and builds only the winner.

``PhysicalPlanner._winner`` weighs each alternative of a memo group with
its enforcers priced arithmetically, and join alternatives are records
that become nodes only when they win.  Three things pin that down:

* a differential against the eager search it replaced
  (:func:`helpers.eager_winner`, which builds every alternative and every
  enforcer): for every TPC-H and SSB query under IC, IC+ and IC+M the
  outcome, the EXPLAIN text, the root's cumulative cost to the bit and
  the budget ticks are identical, and every record that wins carries the
  traits and cost of the node built from it, bit for bit;
* a construction ledger: planning one SSB star join builds a small
  fraction of the nodes the eager search built, over the same memo;
* records hold data, never the planner, so a finished planner is freed
  by reference counting (a cycle kept memos alive until the cycle
  collector ran, which raised peak RSS).
"""

import gc
import weakref

from helpers import eager_winner
from repro.bench.ssb import SSB_QUERIES, load_ssb_cluster
from repro.bench.tpch import QUERIES, load_tpch_cluster
from repro.common.config import PRESETS
from repro.common.errors import PlanningTimeoutError, ReproError
from repro.exec.physical import PhysNode
from repro.planner import physical as physical_planner
from repro.planner.physical import PhysicalPlanner
from repro.planner.volcano import QueryPlanner

SYSTEMS = ("IC", "IC+", "IC+M")
SITES = 4
SCALE_FACTOR = 0.05

_COST_PARTS = ("cpu", "memory", "io", "network", "value")


def _cost_bits(cost):
    return tuple(float(getattr(cost, part)).hex() for part in _COST_PARTS)


def _plan(cluster, sql: str) -> dict:
    planner = QueryPlanner(cluster.store, cluster.config, sketches=cluster.sketches)
    try:
        plan = planner.plan(cluster.parse_to_logical(sql))
    except PlanningTimeoutError as exc:
        return {"status": type(exc).__name__, "ticks": exc.spent}
    except ReproError as exc:
        return {"status": type(exc).__name__}
    return {
        "status": "ok",
        "ticks": planner.last_budget_spent,
        "explain": plan.explain(),
        "total_cost": _cost_bits(plan.total_cost()),
    }


def _cells():
    workloads = (
        ("tpch", load_tpch_cluster, {
            spec.name: spec.sql for _, spec in sorted(QUERIES.items())
        }),
        ("ssb", load_ssb_cluster, {
            qid: spec.sql for qid, spec in sorted(SSB_QUERIES.items())
        }),
    )
    for workload, load, queries in workloads:
        for system in SYSTEMS:
            cluster = load(PRESETS[system](SITES), SCALE_FACTOR)
            for name, sql in queries.items():
                yield f"{workload}/{name}/{system}", cluster, sql


def _checked_build(mismatches):
    """``_Alternative.build`` that compares each record with its node."""
    build = physical_planner._Alternative.build

    def checked(record):
        fresh = record._node is None
        node = build(record)
        if fresh:
            want = (
                record.width, record.distribution, record.collation,
                record.has_exchange, record.leaf_partition_sites,
                float(record.rows_est).hex(), _cost_bits(record.self_cost),
                _cost_bits(record.total_cost()),
            )
            got = (
                node.width, node.distribution, node.collation,
                node.has_exchange, node.leaf_partition_sites,
                float(node.rows_est).hex(), _cost_bits(node.self_cost),
                _cost_bits(node.total_cost()),
            )
            if want != got:
                mismatches.append((type(node).__name__, want, got))
        return node

    return checked


def test_priced_search_matches_the_eager_oracle(monkeypatch):
    cells = list(_cells())
    mismatches = []
    with monkeypatch.context() as patch:
        patch.setattr(
            physical_planner._Alternative, "build", _checked_build(mismatches)
        )
        priced = {key: _plan(cluster, sql) for key, cluster, sql in cells}
    assert mismatches == []
    assert sum(cell["status"] == "ok" for cell in priced.values()) > 60

    monkeypatch.setattr(PhysicalPlanner, "_winner", eager_winner)
    eager = {key: _plan(cluster, sql) for key, cluster, sql in cells}
    moved = sorted(key for key in priced if priced[key] != eager[key])
    assert moved == [], f"{len(moved)} cell(s) differ from the eager search"


#: Planning EXPLAIN SSB Q2.3 on IC+M (8 sites, sf 0.05): the memo the
#: search fills, and the most nodes it may build doing so.  The eager
#: search built 2,018 nodes over the same memo.
Q23_MEMO = {"winners": 144, "groups": 32, "alternatives": 558}
Q23_NODE_CEILING = 250


def test_star_join_builds_only_winners(monkeypatch):
    cluster = load_ssb_cluster(PRESETS["IC+M"](8), SCALE_FACTOR)
    built = []
    memos = []
    init = PhysNode.__init__
    plan = PhysicalPlanner.plan

    def counting_init(node, *args, **kwargs):
        built.append(type(node).__name__)
        init(node, *args, **kwargs)

    def recording_plan(planner, root):
        result = plan(planner, root)
        memos.append({
            "winners": len(planner._memo),
            "groups": len(planner._groups),
            "alternatives": sum(len(a) for a in planner._groups.values()),
        })
        return result

    monkeypatch.setattr(PhysNode, "__init__", counting_init)
    monkeypatch.setattr(PhysicalPlanner, "plan", recording_plan)
    outcome = cluster.try_sql("EXPLAIN " + SSB_QUERIES["Q2.3"].sql)
    assert outcome.ok, outcome
    assert memos == [Q23_MEMO]
    assert len(built) <= Q23_NODE_CEILING, (
        f"{len(built)} nodes built planning SSB Q2.3"
    )


def test_a_finished_planner_is_freed_without_the_cycle_collector(monkeypatch):
    """Records hold data, never the planner: nothing the planner keeps
    points back at it, so dropping it frees the memo at once."""
    cluster = load_ssb_cluster(PRESETS["IC+M"](SITES), SCALE_FACTOR)
    planners = []
    init = PhysicalPlanner.__init__

    def tracking_init(planner, *args, **kwargs):
        init(planner, *args, **kwargs)
        planners.append(weakref.ref(planner))

    monkeypatch.setattr(PhysicalPlanner, "__init__", tracking_init)
    gc.disable()
    try:
        planner = QueryPlanner(cluster.store, cluster.config)
        planner.plan(cluster.parse_to_logical(SSB_QUERIES["Q2.3"].sql))
        assert planners and all(ref() is None for ref in planners)
    finally:
        gc.enable()
