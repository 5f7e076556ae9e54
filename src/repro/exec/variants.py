"""Variant fragments: multithreaded execution plans (Section 5.3).

Algorithm 3 duplicates a fragment into ``n`` variant fragments (VFs), one
per thread.  Sources (base-relation scans and receivers) become *splitters*
(each variant processes every n-th tuple) or *duplicators* (each variant
sees all tuples — required for the left input of a join so partitions
combine correctly).  Root fragments and fragments containing a *reduction
operator* (single-phase or REDUCE aggregates) are skipped.

The engine executes each fragment once per site for correctness and uses
the classification produced here to model the per-variant elapsed time:

* source operators read the whole partition in every variant (Section
  5.3.2: "the entire partition is read in all threads"), so their units do
  not shrink, and each row pays a small splitter check;
* operators downstream of a splitter process ``1/n`` of the data;
* operators downstream of a duplicator process everything in each variant.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.exec.fragments import Fragment, PhysReceiver
from repro.rel.logical import JoinType
from repro.exec.physical import (
    PhysAggregateBase,
    PhysIndexScan,
    PhysJoinBase,
    PhysNode,
    PhysTableScan,
    PhysValues,
)

#: Per-operator scaling classes.
SOURCE = "source"      # full read in every variant
SPLIT = "split"        # processes 1/n of the rows per variant
DUPLICATE = "duplicate"  # processes all rows in every variant

_SOURCE_TYPES = (PhysTableScan, PhysIndexScan, PhysReceiver, PhysValues)


class VariantPlan:
    """The outcome of Algorithm 3 for one fragment."""

    def __init__(self, scaling: Dict[int, str]):
        #: op_id -> SOURCE | SPLIT | DUPLICATE
        self.scaling = scaling

    def factor(self, node: PhysNode, variants: int) -> float:
        """Elapsed-units multiplier for ``node`` in one of ``variants``."""
        kind = self.scaling.get(node.op_id, SPLIT)
        if kind == SPLIT:
            return 1.0 / variants
        return 1.0


def plan_variants(fragment: Fragment) -> Optional[VariantPlan]:
    """Run Algorithm 3's classification; None means the fragment is skipped.

    Mirrors the paper's VFC procedure: root fragments are never split, a
    reduction operator raises (-> fragment skipped), exactly one input of
    every join continues in splitter mode while the other is duplicated,
    and every source takes the mode that reaches it.

    Which join input splits follows the paper's stated rationale — the
    side that is "more often a base relation scan that benefits from the
    dynamic sub-partitioning":

    * inner joins split the input whose subtree reads more source rows
      (duplicating the small shipped side costs little; splitting the
      local scan side is where the win lives);
    * semi/anti/left joins must split the *left* input and duplicate the
      right: a split right side would let the same left row match (or
      miss) in several variants, duplicating or fabricating output rows —
      the "partitions may not be properly combined" hazard Section 5.3.1
      guards against.
    """
    if fragment.is_root:
        return None
    scaling: Dict[int, str] = {}

    def source_rows(node: PhysNode) -> float:
        if isinstance(node, _SOURCE_TYPES):
            return node.rows_est
        return sum(source_rows(child) for child in node.inputs)

    def classify(node: PhysNode, mode: str) -> bool:
        """Returns False when a reduction operator forbids variants."""
        if isinstance(node, _SOURCE_TYPES):
            scaling[node.op_id] = SOURCE
            return True
        if isinstance(node, PhysAggregateBase) and node.is_reduction:
            return False
        if isinstance(node, PhysJoinBase):
            scaling[node.op_id] = mode
            if node.join_type is JoinType.INNER:
                left_heavy = source_rows(node.inputs[0]) >= source_rows(
                    node.inputs[1]
                )
            else:
                left_heavy = True
            split_child = node.inputs[0] if left_heavy else node.inputs[1]
            dup_child = node.inputs[1] if left_heavy else node.inputs[0]
            if not classify(dup_child, DUPLICATE):
                return False
            return classify(split_child, mode)
        scaling[node.op_id] = mode
        return all(classify(child, mode) for child in node.inputs)

    splits = classify(fragment.root, SPLIT)
    del classify, source_rows  # recursive closures and their cells form cycles: break them
    return VariantPlan(scaling) if splits else None
