"""Per-cluster lifecycle of the statistics sketches.

One :class:`SketchRegistry` hangs off each
:class:`~repro.core.cluster.IgniteCalciteCluster` whose config enables
``sketch_statistics``.  It owns two tiers of sketches:

* **Table-level** — per base-table column, a
  :class:`~repro.stats.sketches.HyperLogLog` (distinct count), a
  :class:`~repro.stats.sketches.CountMinSketch` (value frequency) and a
  :class:`~repro.stats.sketches.FastAGMSSketch` (join size), built
  lazily on first consultation by streaming the table's partitions.
  The three sketches share one keyed base hash per value, and every
  sketch in the registry shares one seed — which is what lets the AGMS
  sketch of *any* column be inner-producted with any other to answer an
  equi-join size.  The cache is keyed by the identity of the stored
  :class:`~repro.storage.table.TableData`, so DDL that replaces a table
  (or a mid-query temp reusing a name) can never serve stale sketches.

* **Operator-level** — per (operator signature, output column), an HLL
  refreshed online: the execution engine hands over the rows crossing
  each non-root fragment seam (the same materialization points the
  PR-5 :class:`~repro.adaptive.feedback.FeedbackRegistry` taps), and
  the registry keys them with the same
  :func:`~repro.adaptive.signature.operator_signature` scheme so the
  estimator finds the sketch again when pricing the matching logical
  operator.  Eligibility reuses the feedback rules — broadcast seams
  and per-partition limits are skipped because their concatenated rows
  over-count the semantic output.

Composition contract: sketch estimates feed the *statistical* side of
the estimator only.  Feedback actuals are consulted first in
:meth:`~repro.stats.estimator.Estimator.row_count` and therefore always
win — a sketch refines the guess, never overrides an observation.

Invalidation: DDL flows through the cluster's existing adaptive
invalidation hook (``_invalidate_plans``), which calls
:meth:`SketchRegistry.invalidate` — wiping both tiers.  The identity
check on table sketches additionally self-heals any path that mutates
the store without DDL (mid-query temp tables).
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, List, Optional, Tuple

from repro.exec.fragments import SeamObserver, exchange_producers
from repro.exec.operators import stream_rows
from repro.obs.metrics import get_registry
from repro.stats.sketches import (
    DEFAULT_SEED,
    CountMinSketch,
    FastAGMSSketch,
    HyperLogLog,
    value_hash,
)

#: Rows harvested into operator-level sketches per fragment seam, at
#: most.  Truncation can only *under*-estimate an intermediate's
#: distinct count, which the estimator's min-clamps tolerate.
MAX_SEAM_ROWS = 50_000

#: Live registries, tracked so the test suite can wipe online-refreshed
#: operator sketches between tests without keeping registries alive.
_LIVE_REGISTRIES: "weakref.WeakSet[SketchRegistry]" = weakref.WeakSet()


def reset_sketch_state() -> None:
    """Clear every live registry's operator-level sketches (test hook).

    Table-level sketches are pure functions of immutable loaded data and
    carry no cross-test state; only the online-harvested operator tier
    depends on which queries ran before.
    """
    for registry in list(_LIVE_REGISTRIES):
        registry.invalidate()


class ColumnSketches:
    """The three sketches summarising one base-table column."""

    __slots__ = ("hll", "cms", "agms")

    def __init__(self, seed: int):
        self.hll = HyperLogLog(seed=seed)
        self.cms = CountMinSketch(seed=seed)
        self.agms = FastAGMSSketch(seed=seed)

    def add_hash(self, h: int) -> None:
        self.hll.add_hash(h)
        self.cms.add_hash(h)
        self.agms.add_hash(h)


class SketchRegistry:
    """Table- and operator-level sketches for one cluster."""

    def __init__(self, store, seed: int = DEFAULT_SEED):
        self._store = store
        self.seed = seed
        #: table name -> (id of the TableData sketched, column -> sketches,
        #: non-null row count per column is carried by cms.total).
        self._tables: Dict[str, Tuple[int, Dict[str, ColumnSketches], int]] = {}
        #: (operator signature, column index) -> online-refreshed HLL.
        self._operators: Dict[Tuple[str, int], HyperLogLog] = {}

    @staticmethod
    def from_config(config, store) -> Optional["SketchRegistry"]:
        if not getattr(config, "sketch_statistics", False):
            return None
        registry = SketchRegistry(store)
        _LIVE_REGISTRIES.add(registry)
        return registry

    # -- table-level sketches ----------------------------------------------

    def table_sketches(
        self, table: str
    ) -> Optional[Dict[str, ColumnSketches]]:
        """The per-column sketch sets for ``table``, building on demand."""
        try:
            data = self._store.table(table)
        except Exception:
            return None
        name = table.lower()
        cached = self._tables.get(name)
        if cached is not None and cached[0] == id(data):
            return cached[1]
        columns = self._build_table(data)
        self._tables[name] = (id(data), columns, data.row_count)
        return columns

    def _build_table(self, data) -> Dict[str, ColumnSketches]:
        """Stream every partition once, one base hash per value shared by
        all three sketches of its column."""
        names = [n.lower() for n in data.schema.column_names]
        columns = {n: ColumnSketches(self.seed) for n in names}
        sets = [columns[n] for n in names]
        seed = self.seed
        for partition in data.partitions:
            for row in partition:
                for i, value in enumerate(row):
                    if value is None:
                        continue
                    sets[i].add_hash(value_hash(value, seed))
        get_registry().inc("sketch.table_builds")
        return columns

    def _column(self, table: str, column: str) -> Optional[ColumnSketches]:
        columns = self.table_sketches(table)
        if columns is None:
            return None
        return columns.get(column.lower())

    def table_distinct(self, table: str, column: str) -> Optional[float]:
        """HLL distinct-count estimate for one base-table column."""
        sketches = self._column(table, column)
        if sketches is None:
            return None
        return max(1.0, sketches.hll.estimate())

    def equality_fraction(
        self, table: str, column: str, literal: object
    ) -> Optional[float]:
        """CMS-estimated fraction of the table's rows equal to ``literal``.

        This is what replaces the uniformity assumption ``1/NDV``: on a
        skewed column the hot key's true frequency is orders of magnitude
        above ``1/NDV``, and CMS reads it directly (over-estimating by at
        most ``2 * rows / width`` per hash row w.h.p.).
        """
        sketches = self._column(table, column)
        if sketches is None:
            return None
        rows = float(self._store.table(table).row_count)
        if rows <= 0:
            return None
        return min(1.0, sketches.cms.estimate(literal) / rows)

    def join_inner_product(
        self,
        left_table: str,
        left_column: str,
        right_table: str,
        right_column: str,
    ) -> Optional[float]:
        """AGMS equi-join size estimate between two base columns."""
        left = self._column(left_table, left_column)
        right = self._column(right_table, right_column)
        if left is None or right is None:
            return None
        return max(0.0, left.agms.join_size(right.agms))

    # -- operator-level sketches (online refresh) ---------------------------

    def seam_harvest(self) -> "SeamHarvest":
        """The observer that refreshes this registry from one execution."""
        return SeamHarvest(self)

    def harvest(self, fragments, captures: Iterable[Tuple]) -> int:
        """Refresh operator HLLs from one execution's fragment seams.

        ``fragments`` is the full executed fragment list (supplying the
        exchange-id -> source-root resolver that lets signatures descend
        across fragment boundaries); ``captures`` the per-site
        ``(fragment, output)`` pairs a :class:`SeamHarvest` collected at
        each non-root seam, outputs still in the backend's own form.
        Returns the number of fragments harvested.
        """
        from repro.adaptive.signature import is_harvestable, operator_signature

        producers = exchange_producers(fragments)
        #: fragment id -> (fragment, its per-site outputs), in seam order
        by_fragment: Dict[int, Tuple] = {}
        for fragment, out in captures:
            entry = by_fragment.setdefault(fragment.fragment_id, (fragment, []))
            entry[1].append(out)
        harvested = 0
        for fragment, outputs in by_fragment.values():
            root = fragment.root
            if not is_harvestable(root):
                continue
            signature = operator_signature(root, producers.get)
            if signature is None:
                continue
            remaining = MAX_SEAM_ROWS
            sketches: Dict[int, HyperLogLog] = {}
            for out in outputs:
                if remaining <= 0:
                    break
                site_rows = stream_rows(out)
                for row in site_rows[:remaining]:
                    for column, value in enumerate(row):
                        if value is None:
                            continue
                        hll = sketches.get(column)
                        if hll is None:
                            hll = self._operators.setdefault(
                                (signature, column),
                                HyperLogLog(seed=self.seed),
                            )
                            sketches[column] = hll
                        hll.add(value)
                remaining -= len(site_rows)
            if sketches:
                harvested += 1
        if harvested:
            get_registry().inc("sketch.seam_refreshes", harvested)
        return harvested

    def operator_distinct(self, node, column: int) -> Optional[float]:
        """Online HLL distinct estimate for one operator output column."""
        if not self._operators:
            return None
        from repro.adaptive.signature import operator_signature

        signature = operator_signature(node)
        if signature is None:
            return None
        hll = self._operators.get((signature, column))
        if hll is None:
            return None
        get_registry().inc("sketch.operator_hits")
        return max(1.0, hll.estimate())

    # -- invalidation -------------------------------------------------------

    def invalidate(self) -> None:
        """DDL hook: stored data changed, so every sketch is suspect."""
        self._tables.clear()
        self._operators.clear()


class SeamHarvest(SeamObserver):
    """One execution's sketch refresh: holds each non-root seam's per-site
    output and hands them to the registry only once the run has
    succeeded."""

    def __init__(self, registry: SketchRegistry):
        self._registry = registry
        self._captures: List[Tuple] = []

    def capture(self, fragment, site: int, out) -> None:
        self._captures.append((fragment, out))

    def finish(self, fragments) -> None:
        if self._captures:
            self._registry.harvest(fragments, self._captures)
