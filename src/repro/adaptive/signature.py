"""Deterministic operator signatures: the feedback key.

An operator signature (:func:`operator_signature`) keys the feedback
registry.  It must match across the logical and physical operator
families so a cardinality observed on an executed ``PhysHashJoin`` can be
found again when the estimator prices the corresponding ``LogicalJoin``.
The normalisation rules:

- cardinality-preserving wrappers are peeled: exchanges, projections,
  and sorts without FETCH never change row counts;
- filters key on the *sorted set* of canonical conjunct digests over
  the child signature, so conjunct order does not matter, and an index
  range scan contributes the predicate it absorbed — carried verbatim
  as ``PhysIndexScan.bound_condition``, never rebuilt from the bounds —
  so the pushed-down shape matches the logical ``Filter(Scan)`` it came
  from whichever way that predicate was spelled (``g = 3``, ``3 = g``,
  ``g >= 3 AND g <= 3``);
- inner joins are commutative: the orientation is canonicalised by
  ordering the child signatures, swapping key pairs and remapping
  residual references when needed (this makes the commuted H* hash
  join match its logical join);
- two-phase aggregations key on the *semantic* aggregate: the REDUCE
  operator descends through the gather exchange to the MAP half to
  recover the original group keys and child (the MAP half itself is
  not harvested — its output is partial states, not result rows).

Operator signatures keep literal values: a feedback override is only
trustworthy for the exact predicate that was executed.  A signature is a
function of the operator tree alone: no catalog or store is consulted.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.exec.physical import (
    AggPhase,
    PhysAggregateBase,
    PhysExchange,
    PhysFilter,
    PhysIndexScan,
    PhysJoinBase,
    PhysLimit,
    PhysMergeJoin,
    PhysHashJoin,
    PhysNode,
    PhysProject,
    PhysSort,
    PhysTableScan,
    PhysValues,
)
from repro.rel import expr as rex
from repro.rel.expr import BinaryOp, Expr, Literal
from repro.rel.logical import (
    JoinType,
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalProject,
    LogicalSort,
    LogicalTableScan,
    LogicalValues,
    RelNode,
)


def operator_signature(node: RelNode, resolve=None) -> Optional[str]:
    """Canonical semantic signature of one operator, or None.

    None means "do not key feedback on this operator": wrappers
    (exchange / receiver / project / fetch-less sort) would duplicate
    their child's key with actuals distorted by distribution, and
    MAP-phase aggregates emit partial states rather than result rows.

    ``resolve`` maps an exchange id to the fragment producing it
    (``exec.fragments.exchange_producers(fragments).get``) so signatures
    of executed fragment trees (where exchanges appear as
    :class:`~repro.exec.fragments.PhysReceiver` leaves) descend across
    fragment boundaries; planning-side trees do not need it.
    """
    return _OperatorSignatures(resolve).signature(node)


def is_harvestable(op: PhysNode) -> bool:
    """Whether ``op``'s per-site actuals sum to its semantic output size
    (the eligibility rule of the feedback and the sketch harvest): not for
    broadcast operators, whose every site holds a full copy, nor for
    per-partition limits anywhere but on the single-site root."""
    distribution = getattr(op, "distribution", None)
    if distribution is None or distribution.is_broadcast:
        return False
    if isinstance(op, (PhysLimit, PhysSort)) and not _is_wrapper(op):
        return distribution.is_single
    return True


class _OperatorSignatures:
    def __init__(self, resolve=None):
        self._resolve = resolve

    def signature(self, node: RelNode) -> Optional[str]:
        if _is_wrapper(node) or _is_receiver(node):
            return None
        if isinstance(node, (PhysValues, LogicalValues)):
            return None
        if isinstance(node, PhysAggregateBase) and node.phase is AggPhase.MAP:
            return None
        return self._node_sig(node)

    def _peel(self, node: RelNode) -> RelNode:
        """Skip cardinality-preserving wrappers and fragment seams."""
        while True:
            if _is_wrapper(node):
                node = node.inputs[0]
            elif _is_receiver(node) and self._resolve is not None:
                producer = self._resolve(node.exchange_id)
                if producer is None:
                    return node
                node = producer.root
            else:
                return node

    def _node_sig(self, node: RelNode) -> str:
        node = self._peel(node)
        if isinstance(node, (LogicalFilter, PhysFilter)) or (
            isinstance(node, PhysIndexScan) and node.is_range_scan
        ):
            return self._filter_sig(node)
        if isinstance(node, (LogicalTableScan, PhysTableScan, PhysIndexScan)):
            return f"S({node.table}/{node.alias})"
        if isinstance(node, (LogicalJoin, PhysJoinBase)):
            return self._join_sig(node)
        if isinstance(node, (LogicalAggregate, PhysAggregateBase)):
            return self._aggregate_sig(node)
        if isinstance(node, (PhysSort, LogicalSort, PhysLimit)):
            # A sort that survives _peel carries FETCH/OFFSET: limit
            # semantics.  Offset-free nodes keep the historical L(fetch)
            # form so existing feedback keys stay valid.
            extra = f",o{node.offset}" if node.offset is not None else ""
            return f"L({node.fetch}{extra})|{self._node_sig(node.inputs[0])}"
        if isinstance(node, (LogicalValues, PhysValues)):
            return f"V({len(node.rows)})"
        # Unknown operator kinds (incl. unresolvable receivers): verbatim
        # digest — deterministic, never matched cross-family; safe, just
        # no feedback for the subtree.
        return f"X({node.digest()})"

    # -- filters ------------------------------------------------------------

    def _filter_sig(self, node: RelNode) -> str:
        """Filter keyed by the full conjunct set applied above the source.

        Consecutive filters collapse, and an index range scan below
        contributes the predicate it absorbed — so ``PhysFilter(residual,
        PhysIndexScan)`` matches the ``LogicalFilter(Scan)`` the pushdown
        started from.
        """
        conjuncts: List[Expr] = []
        current = self._peel(node)
        while isinstance(current, (LogicalFilter, PhysFilter)):
            conjuncts.extend(rex.split_conjunction(current.condition))
            current = self._peel(current.inputs[0])
        if isinstance(current, PhysIndexScan) and current.is_range_scan:
            conjuncts.extend(rex.split_conjunction(current.bound_condition))
            base = f"S({current.table}/{current.alias})"
        else:
            base = self._node_sig(current)
        return f"F{sorted(_canonical_conjunct(c) for c in conjuncts)}|{base}"

    # -- joins --------------------------------------------------------------

    def _join_sig(self, node: RelNode) -> str:
        join_type: JoinType = node.join_type
        left, right = node.inputs[0], node.inputs[1]
        left_sig = self._node_sig(left)
        right_sig = self._node_sig(right)
        pairs, residual = _join_parts(node)

        if join_type is JoinType.INNER and right_sig < left_sig:
            # Canonical orientation: order inner-join children by
            # signature (the commuted H* hash join then keys like the
            # logical join it implements).  Pairs are
            # (index-in-left-input, index-in-right-input), so the swap is
            # a pure pair flip; residual refs address the combined row
            # and must be remapped across the seam.
            left_width, right_width = left.width, right.width
            pairs = [(rk, lk) for lk, rk in pairs]
            residual = [
                rex.remap_refs(
                    c,
                    lambda i: i + right_width
                    if i < left_width
                    else i - left_width,
                )
                for c in residual
            ]
            left_sig, right_sig = right_sig, left_sig

        pair_txt = sorted(f"{lk}={rk}" for lk, rk in pairs)
        res_txt = sorted(_canonical_conjunct(c) for c in residual)
        return (
            f"J({join_type.value}, {pair_txt}, {res_txt})"
            f"|{left_sig}|{right_sig}"
        )

    # -- aggregates ---------------------------------------------------------

    def _aggregate_sig(self, node: RelNode) -> str:
        if isinstance(node, PhysAggregateBase) and node.phase is AggPhase.REDUCE:
            # The REDUCE half's group keys are positional over the MAP
            # output; descend through the gather exchange to the MAP half
            # to recover the semantic keys and the real child.  (No MAP
            # below is a degenerate shape, keyed as a single phase.)
            below = self._peel(node.input)
            if isinstance(below, PhysAggregateBase) and below.phase is AggPhase.MAP:
                node = below
        calls = ", ".join(c.digest() for c in node.agg_calls)
        child = self._node_sig(node.inputs[0])
        return f"A({list(node.group_keys)}, [{calls}])|{child}"


def _is_wrapper(node: RelNode) -> bool:
    """Never changes a row count: exchange, projection, fetch-less sort."""
    if isinstance(node, (PhysSort, LogicalSort)):
        return node.fetch is None and node.offset is None
    return isinstance(node, (PhysExchange, PhysProject, LogicalProject))


def _is_receiver(node: RelNode) -> bool:
    """Duck-typed: execution-only receiver leaves carry an exchange id."""
    return hasattr(node, "exchange_id") and not node.inputs


def _canonical_conjunct(conjunct: Expr) -> str:
    """Digest with ``lit op col`` mirrored to ``col op lit``."""
    sarg = rex.column_vs_literal(conjunct)
    if sarg is None or sarg[0] is conjunct.left:
        return conjunct.digest()  # already canonical: the kept digest
    column, op, value = sarg
    return BinaryOp(op, column, Literal(value)).digest()


def _join_parts(node: RelNode) -> Tuple[List[Tuple[int, int]], List[Expr]]:
    """(equi pairs, residual conjuncts), pairs relative to each input."""
    if isinstance(node, (PhysMergeJoin, PhysHashJoin)):
        return list(node.pairs), rex.split_conjunction(node.residual)
    left_width = node.inputs[0].width
    return rex.extract_equi_keys(node.condition, left_width)
