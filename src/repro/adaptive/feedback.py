"""The cardinality feedback registry.

After a query executes, the per-operator actual row counts carried by
:class:`~repro.exec.engine.ExecutionResult` are harvested into this
registry, keyed by the canonical operator signature
(:func:`repro.adaptive.signature.operator_signature`).  On the next
planning of an operator with the same signature the estimator uses the
observed cardinality instead of its statistical guess
(:meth:`repro.stats.estimator.Estimator.row_count`).

Harvesting is conservative — an observation is only recorded when the
summed per-site actual equals the operator's semantic output size:

* broadcast operators are skipped (every site holds a full copy, so the
  sum over-counts by the site count);
* per-partition limits (``PhysSort`` with FETCH / ``PhysLimit`` not on
  the single-site root) are skipped — each partition emits up to FETCH
  rows, which says nothing about the query-level limit;
* MAP-phase aggregates are skipped (partial states, not result rows) —
  the REDUCE half carries the semantic group count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.adaptive.signature import is_harvestable, operator_signature
from repro.exec.fragments import exchange_producers
from repro.obs.metrics import get_registry, tenant_labels


@dataclass
class FeedbackEntry:
    """Latest observed cardinality for one operator signature."""

    rows: float
    observations: int = 1


class FeedbackRegistry:
    """Observed operator cardinalities, keyed by operator signature."""

    def __init__(self):
        self._entries: Dict[str, FeedbackEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    # -- recording ---------------------------------------------------------

    def record(self, signature: str, rows: float) -> None:
        rows = max(0.0, float(rows))
        entry = self._entries.get(signature)
        if entry is None:
            self._entries[signature] = FeedbackEntry(rows)
        else:
            entry.rows = rows
            entry.observations += 1

    def harvest(self, fragment_trees, operator_actuals) -> int:
        """Record every eligible operator actual of the executed
        ``fragment_trees`` (``operator_actuals``: op_id -> actuals).

        Returns the number of observations recorded.
        """
        # Executed fragment trees replace exchanges with receiver leaves;
        # the resolver lets signatures descend across those seams into
        # the source fragment, so a join above an exchange still keys by
        # its real children rather than an opaque receiver digest.
        producers = exchange_producers(fragment_trees)
        recorded = 0
        for fragment in fragment_trees:
            for op in fragment.operators():
                actual = operator_actuals.get(op.op_id)
                if actual is None or not is_harvestable(op):
                    continue
                signature = operator_signature(op, producers.get)
                if signature is None:
                    continue
                self.record(signature, float(actual.rows_out))
                recorded += 1
        if recorded:
            get_registry().inc("adaptive.feedback_observations", recorded, **tenant_labels())
        return recorded

    # -- consumption -------------------------------------------------------

    def lookup(self, signature: str) -> Optional[float]:
        entry = self._entries.get(signature)
        return entry.rows if entry is not None else None

    def row_override(self, node) -> Optional[float]:
        """Observed output cardinality for ``node``, if any.

        Called by the estimator with *logical* nodes during planning; the
        signature scheme guarantees a match with the physical operators
        the observation came from.
        """
        signature = operator_signature(node)
        if signature is None:
            return None
        return self.lookup(signature)

    def clear(self) -> None:
        self._entries.clear()
