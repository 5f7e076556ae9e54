"""ROADMAP 4(a), adapter-layout axis: every layout joins to the oracle's rows.

Two 120-row tables joined on their affinity key, each side on every
adapter (native, columnfile, remote) and partitioned or replicated,
crossed with both backends and with a site dead from t=0 — 144 cells,
every one under ``verify_execution`` and held to the exact join.

The planner lets a ``hash[affinity]`` scan satisfy a hash requirement on
the same key (Table 1), so a co-located join is only sound when every
partitioned table keeps partition ``p`` where exchanges route ``p``.
The remote adapter used to park all its partitions on one gateway site:
fault-free, remote ⋈ native returned a quarter of its rows (30 of 120
at four sites) without an error.
"""

import itertools

import pytest

from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import ColumnType
from repro.common.config import PRESETS
from repro.core.cluster import IgniteCalciteCluster
from repro.faults.injector import SiteCrash

pytestmark = [pytest.mark.federation, pytest.mark.verify]

ROWS = 120
SITES = 4
LAYOUTS = [
    (adapter, replicated)
    for adapter in ("native", "columnfile", "remote")
    for replicated in (False, True)
]
PAIRS = list(itertools.product(LAYOUTS, LAYOUTS))
FAULTS = {"fault-free": (), "site1-dead": (SiteCrash(1, at=0.0),)}


def _layout_id(layout):
    adapter, replicated = layout
    return f"{adapter}-{'replicated' if replicated else 'partitioned'}"


def _table(name, layout):
    adapter, replicated = layout
    return TableSchema(
        name,
        [Column("k", ColumnType.INTEGER), Column("v", ColumnType.VARCHAR)],
        ["k"],
        replicated=replicated,
        adapter=adapter,
    )


def join_cluster(left, right, backend, faults):
    """A ``SITES``-site IC+ cluster holding ``l`` and ``r`` (keys
    ``0..ROWS-1``) on the given layouts, every query oracle-checked."""
    config = PRESETS["IC+"](
        SITES,
        execution_backend=backend,
        faults=faults,
        failover_redispatch=True,
        verify_execution=True,
    )
    cluster = IgniteCalciteCluster(config)
    for name, layout in (("l", left), ("r", right)):
        cluster.create_table(
            _table(name, layout), [(k, f"{name}{k}") for k in range(ROWS)]
        )
    return cluster


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("backend", ["row", "columnar"])
@pytest.mark.parametrize(
    "left,right", PAIRS, ids=[f"{_layout_id(a)}-x-{_layout_id(b)}" for a, b in PAIRS]
)
def test_affinity_key_join_returns_every_row(left, right, backend, fault):
    cluster = join_cluster(left, right, backend, FAULTS[fault])
    outcome = cluster.try_sql("select l.k, r.v from l join r on l.k = r.k")
    assert outcome.succeeded, outcome.error
    assert sorted(outcome.result.rows) == [(k, f"r{k}") for k in range(ROWS)]
