"""Adapter pushdown rules: absorb work into capable storage adapters.

The Calcite adapter convention (and Bodo's ``SnowflakeFilter`` /
``SnowflakeSort`` pattern): a source that can evaluate predicates, return
column subsets, or cap row counts advertises the capability, and a Hep pass
rewrites ``Filter(Scan)`` / ``Project(Scan)`` / ``Sort(Scan)`` shapes so the
work rides inside the :class:`~repro.rel.logical.LogicalTableScan` itself.
The native in-memory engine declines every capability, so native-only plans
are untouched and keep their historical digests byte-for-byte.

Soundness notes:

* a pushed filter references the table's *original* full-width row and the
  adapter applies it before projecting, so filter and project pushdown
  compose in either order;
* limit pushdown only fires for key-less sorts (a bare LIMIT) and the
  engine-side Sort/Limit is always retained — the per-partition prefix cap
  is an over-approximation the final Limit trims, never a correctness
  transfer;
* every rule returns ``None`` once its work is absorbed, which is what
  makes the pass converge under the HepPlanner's fixpoint loop.
"""

from __future__ import annotations

from typing import List, Optional

from repro.rel import expr as rex
from repro.rel.expr import make_conjunction
from repro.rel.logical import (
    LogicalFilter,
    LogicalProject,
    LogicalSort,
    LogicalTableScan,
    RelNode,
    walk,
)
from repro.planner.rules import Rule
from repro.storage.store import DataStore


def _adapter_for(store: DataStore, scan: LogicalTableScan):
    """The adapter instance backing ``scan``'s table, or None."""
    if not store.has_table(scan.table):
        return None
    return store.table(scan.table).adapter


def has_federated_scan(store: DataStore, tree: RelNode) -> bool:
    """Whether any scan in ``tree`` reads through a non-native adapter.

    Lets the planner skip the pushdown pass (and its budget charges)
    entirely for native-only queries, keeping their planning traces
    identical to the pre-adapter engine.
    """
    for node in walk(tree):
        if not isinstance(node, LogicalTableScan):
            continue
        adapter = _adapter_for(store, node)
        if adapter is not None and adapter.name != "native":
            return True
    return False


class AdapterFilterPushdown(Rule):
    """Filter over Scan -> Scan with the predicate absorbed at the source."""

    name = "AdapterFilterPushdown"

    def __init__(self, store: DataStore):
        self._store = store

    def apply(self, node: RelNode) -> Optional[RelNode]:
        if not isinstance(node, LogicalFilter):
            return None
        scan = node.input
        if not isinstance(scan, LogicalTableScan):
            return None
        if scan.pushed_project is not None:
            # The filter's column indexes would address the projected
            # subset, not the original row the adapter evaluates against.
            return None
        adapter = _adapter_for(self._store, scan)
        if adapter is None or not adapter.supports_filter_pushdown:
            return None
        merged = make_conjunction(
            [c for c in (scan.pushed_filter, node.condition) if c is not None]
        )
        return LogicalTableScan(
            scan.table,
            scan.alias,
            scan.column_names,
            pushed_filter=merged,
            pushed_project=None,
            pushed_fetch=scan.pushed_fetch,
        )


class AdapterProjectPushdown(Rule):
    """Project over Scan -> Scan returning only the referenced columns.

    The scan's output becomes the referenced subset (keeping the original
    ``alias.column`` field names, so statistics tracing still resolves);
    the Project is retained with its column references remapped to subset
    positions — it still computes expressions and names the result set.
    """

    name = "AdapterProjectPushdown"

    def __init__(self, store: DataStore):
        self._store = store

    def apply(self, node: RelNode) -> Optional[RelNode]:
        if not isinstance(node, LogicalProject):
            return None
        scan = node.input
        if not isinstance(scan, LogicalTableScan):
            return None
        if scan.pushed_project is not None:
            return None
        adapter = _adapter_for(self._store, scan)
        if adapter is None or not adapter.supports_project_pushdown:
            return None
        used = sorted(
            {r for e in node.exprs for r in rex.references(e)}
        )
        if not used or len(used) >= scan.width:
            return None
        new_scan = LogicalTableScan(
            scan.table,
            scan.alias,
            [scan.column_names[i] for i in used],
            pushed_filter=scan.pushed_filter,
            pushed_project=used,
            pushed_fetch=scan.pushed_fetch,
        )
        position = {original: slot for slot, original in enumerate(used)}
        exprs = [rex.remap_refs(e, lambda i: position[i]) for e in node.exprs]
        return LogicalProject(new_scan, exprs, node.fields)


class AdapterLimitPushdown(Rule):
    """Key-less Sort with fetch over Scan -> per-partition prefix cap.

    Only a bare LIMIT qualifies: with sort keys the source would have to
    order rows before cutting, which the adapters do not model.  The Sort
    node stays (it still enforces the exact row count and offset); the cap
    merely lets the adapter stop reading early.  Because a Project is 1:1
    row-preserving, the cap also pushes through one ``Sort(Project(Scan))``
    step — the shape every ``SELECT cols FROM t LIMIT n`` converts to.
    """

    name = "AdapterLimitPushdown"

    def __init__(self, store: DataStore):
        self._store = store

    def apply(self, node: RelNode) -> Optional[RelNode]:
        if not isinstance(node, LogicalSort):
            return None
        if node.sort_keys or node.fetch is None:
            return None
        project = None
        scan = node.input
        if isinstance(scan, LogicalProject):
            project = scan
            scan = project.input
        if not isinstance(scan, LogicalTableScan):
            return None
        if scan.pushed_fetch is not None:
            return None
        adapter = _adapter_for(self._store, scan)
        if adapter is None or not adapter.supports_limit_pushdown:
            return None
        new_scan: RelNode = LogicalTableScan(
            scan.table,
            scan.alias,
            scan.column_names,
            pushed_filter=scan.pushed_filter,
            pushed_project=scan.pushed_project,
            pushed_fetch=node.fetch + (node.offset or 0),
        )
        if project is not None:
            new_scan = LogicalProject(
                new_scan, project.exprs, project.fields
            )
        return node.copy([new_scan])


def adapter_pushdown_rules(store: DataStore) -> List[Rule]:
    """The Hep rule group for the adapter pushdown pass.

    Filter before project: a filter absorbed first keeps its original
    column indexes; once a project narrows the scan the filter rule
    (soundly) declines.
    """
    return [
        AdapterFilterPushdown(store),
        AdapterProjectPushdown(store),
        AdapterLimitPushdown(store),
    ]
