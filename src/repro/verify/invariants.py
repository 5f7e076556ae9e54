"""Structural invariants of optimised physical plans.

The paper's central lesson (Sections 4.1-4.2) is that a composable
planner can silently produce catastrophic plans: a degenerate join-size
estimate and a miscompared exchange cost both slipped through because
nothing checked the plan the optimiser emitted.  :class:`PlanValidator`
is the standing guard against that class of defect: it walks every
post-optimization physical plan (and, when available, its fragmented
form) and asserts the structural contract the planner and fragmenter are
supposed to uphold:

* **Schema consistency** — every operator's ``fields``/``width`` derive
  correctly from its inputs, and every expression/key/collation index is
  in range.
* **Trait consistency** — merge joins and sort-based aggregates actually
  receive sorted inputs; exchanges never target the planner-internal ANY
  distribution; merging receivers only merge streams their producing
  fragment sorts.
* **Cost sanity** — every ``rows_est`` and ``self_cost`` is finite and
  non-negative (the Section 4.1 estimate bug pinned join cardinality at
  1; a NaN/negative estimate is the same failure mode one step worse).
* **Fragment wiring** — exactly one root fragment; every non-root
  fragment has exactly one sender; sender/receiver exchange ids pair up
  bijectively; ``child_ids`` agree with the receivers actually present;
  no exchange operator survives fragmentation; every operator carries
  an ``op_id`` and neither an id nor a node object occurs twice (all
  execution accounting is keyed by it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.common.errors import PlanInvariantError
from repro.exec.fragments import Fragment, PhysReceiver, fragment_plan
from repro.exec.physical import (
    DEGRADED_HASH_KEY,
    PhysAggregateBase,
    PhysExchange,
    PhysFilter,
    PhysJoinBase,
    PhysLimit,
    PhysMergeJoin,
    PhysNode,
    PhysProject,
    PhysSort,
    PhysSortAggregate,
    walk_physical,
)
from repro.rel.expr import Expr, references
from repro.rel.traits import Collation, Distribution, DistributionType, satisfies


@dataclass(frozen=True)
class Violation:
    """One broken invariant, attributed to an operator or fragment."""

    rule: str
    where: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.where}: {self.detail}"


class PlanValidator:
    """Checks a physical plan (and its fragments) against the invariants.

    ``validate_plan`` / ``validate_fragments`` return the violations found;
    ``check`` raises :class:`PlanInvariantError` if there are any.
    """

    # -- entry points -------------------------------------------------------

    def check(
        self, plan: PhysNode, fragments: Optional[Sequence[Fragment]] = None
    ) -> None:
        violations = self.validate_plan(plan)
        if fragments is None:
            fragments = fragment_plan(plan)
        violations += self.validate_fragments(fragments)
        if violations:
            lines = "\n".join(str(v) for v in violations)
            raise PlanInvariantError(
                f"{len(violations)} plan invariant violation(s):\n{lines}",
                violations,
            )

    def validate_plan(self, plan: PhysNode) -> List[Violation]:
        """Node-level invariants over the (pre-fragmentation) plan tree."""
        violations: List[Violation] = []
        for node in walk_physical(plan):
            self._check_node(node, violations)
        # The result of a query is served from one site; the root's
        # distribution must allow execution at the coordinator alone.
        if not satisfies(plan.distribution, Distribution.single()):
            violations.append(
                Violation(
                    "root-distribution",
                    self._name(plan),
                    f"plan root distribution {plan.distribution} cannot be "
                    "served from a single site",
                )
            )
        return violations

    def validate_fragments(
        self, fragments: Sequence[Fragment]
    ) -> List[Violation]:
        """Fragment-level invariants: senders, receivers, wiring."""
        violations: List[Violation] = []
        roots = [f for f in fragments if f.is_root]
        if len(roots) != 1:
            violations.append(
                Violation(
                    "single-root-fragment",
                    "fragments",
                    f"expected exactly one root fragment, found {len(roots)}",
                )
            )

        fragment_ids = set()
        op_ids = set()
        nodes = set()  # id(node): one object under two keys is one cell
        senders: Dict[int, Fragment] = {}  # exchange id -> producing fragment
        for fragment in fragments:
            where = f"fragment #{fragment.fragment_id}"
            if fragment.fragment_id in fragment_ids:
                violations.append(
                    Violation("fragment-id-unique", where, "duplicate id")
                )
            fragment_ids.add(fragment.fragment_id)
            for node in fragment.operators():
                self._check_node(node, violations)
                op_id = getattr(node, "op_id", None)
                if op_id is None or op_id in op_ids or id(node) in nodes:
                    detail = f"{self._name(node)}: op_id {op_id} missing or reused"
                    violations.append(
                        Violation("operator-ids-unique", where, detail)
                    )
                op_ids.add(op_id)
                nodes.add(id(node))
                if isinstance(node, PhysExchange):
                    violations.append(
                        Violation(
                            "no-exchange-after-fragmentation",
                            where,
                            "exchange operator survived fragmentation",
                        )
                    )
            if fragment.is_root:
                continue
            sender = fragment.sender
            if sender.exchange_id in senders:
                violations.append(
                    Violation(
                        "sender-exchange-unique",
                        where,
                        f"exchange #{sender.exchange_id} has two senders",
                    )
                )
            senders[sender.exchange_id] = fragment
            if sender.target.type is DistributionType.ANY:
                violations.append(
                    Violation(
                        "sender-target-concrete",
                        where,
                        "sender targets the planner-internal ANY distribution",
                    )
                )
            if not fragment.root.collation.satisfies(sender.merge_collation):
                violations.append(
                    Violation(
                        "merge-collation-provided",
                        where,
                        f"sender merges on {sender.merge_collation} but the "
                        f"fragment root provides {fragment.root.collation}",
                    )
                )

        # Receiver side of the wiring: every receiver consumes exactly one
        # sender, every sender feeds exactly one receiver (a bijection),
        # and child_ids mirror the receivers actually present.
        consumed: Dict[int, int] = {}  # exchange id -> consuming fragment
        for fragment in fragments:
            where = f"fragment #{fragment.fragment_id}"
            producer_ids: List[int] = []
            for node in fragment.operators():
                if not isinstance(node, PhysReceiver):
                    continue
                producer = senders.get(node.exchange_id)
                if producer is None:
                    violations.append(
                        Violation(
                            "receiver-has-sender",
                            where,
                            f"receiver consumes unknown exchange "
                            f"#{node.exchange_id}",
                        )
                    )
                    continue
                if node.exchange_id in consumed:
                    violations.append(
                        Violation(
                            "receiver-exchange-unique",
                            where,
                            f"exchange #{node.exchange_id} has two receivers",
                        )
                    )
                consumed[node.exchange_id] = fragment.fragment_id
                producer_ids.append(producer.fragment_id)
                sender = producer.sender
                if node.distribution != sender.target:
                    violations.append(
                        Violation(
                            "receiver-distribution-matches-sender",
                            where,
                            f"receiver #{node.exchange_id} declares "
                            f"{node.distribution} but the sender ships "
                            f"{sender.target}",
                        )
                    )
                if node.collation != sender.merge_collation:
                    violations.append(
                        Violation(
                            "receiver-collation-matches-sender",
                            where,
                            f"receiver #{node.exchange_id} merges on "
                            f"{node.collation} but the sender declares "
                            f"{sender.merge_collation}",
                        )
                    )
                if tuple(node.fields) != tuple(producer.root.fields):
                    violations.append(
                        Violation(
                            "receiver-schema-matches-sender",
                            where,
                            f"receiver #{node.exchange_id} fields differ "
                            "from the producing fragment root's",
                        )
                    )
            if sorted(producer_ids) != sorted(fragment.child_ids):
                violations.append(
                    Violation(
                        "child-ids-match-receivers",
                        where,
                        f"child_ids={sorted(fragment.child_ids)} but "
                        f"receivers consume fragments {sorted(producer_ids)}",
                    )
                )
        for exchange_id, producer in senders.items():
            if exchange_id not in consumed:
                violations.append(
                    Violation(
                        "sender-has-receiver",
                        f"fragment #{producer.fragment_id}",
                        f"exchange #{exchange_id} is never consumed",
                    )
                )
        return violations

    # -- per-node checks ----------------------------------------------------

    def _check_node(self, node: PhysNode, out: List[Violation]) -> None:
        where = self._name(node)

        def fail(rule: str, detail: str) -> None:
            out.append(Violation(rule, where, detail))

        # Cost sanity.
        if not math.isfinite(node.rows_est) or node.rows_est < 0:
            fail("rows-est-sane", f"rows_est={node.rows_est!r}")
        cost = node.self_cost.value
        if not math.isfinite(cost) or cost < 0:
            fail("self-cost-sane", f"self_cost={node.self_cost!r}")
        # The cumulative cost a node keeps is its self cost plus its
        # inputs' cumulative costs, summed in that order — a clone that
        # kept its original's total, or a node edited behind ``costed()``,
        # fails here.
        summed = node.self_cost
        for child in node.inputs:
            summed = summed + child.total_cost()
        if node.total_cost() != summed:
            fail(
                "cumulative-cost-consistent",
                f"keeps {node.total_cost()!r}, inputs sum to {summed!r}",
            )

        # Trait indexes stay inside the operator's own schema.
        for key, _ in node.collation.keys:
            if not 0 <= key < node.width:
                fail("collation-in-range", f"collation key {key} out of range")
        if node.distribution.is_hash:
            for key in node.distribution.keys:
                if key != DEGRADED_HASH_KEY and not 0 <= key < node.width:
                    fail(
                        "distribution-keys-in-range",
                        f"hash key {key} out of range for width {node.width}",
                    )

        # Schema derivation per operator family.
        if isinstance(node, (PhysFilter, PhysLimit, PhysSort, PhysExchange)):
            if tuple(node.fields) != tuple(node.inputs[0].fields):
                fail("schema-preserved", "fields differ from the input's")
        if isinstance(node, PhysFilter):
            self._check_refs(node.condition, node.inputs[0].width, fail)
        if isinstance(node, PhysProject):
            if len(node.exprs) != node.width:
                fail(
                    "project-arity",
                    f"{len(node.exprs)} exprs for {node.width} fields",
                )
            for expr in node.exprs:
                self._check_refs(expr, node.inputs[0].width, fail)
        if isinstance(node, PhysJoinBase):
            left, right = node.inputs
            expected = (
                left.width + right.width
                if node.join_type.projects_right
                else left.width
            )
            if node.width != expected:
                fail(
                    "join-width",
                    f"width {node.width}, expected {expected} for "
                    f"{node.join_type.value} join",
                )
            if node.condition is not None:
                self._check_refs(
                    node.condition, left.width + right.width, fail
                )
            pairs = getattr(node, "pairs", ())
            for lk, rk in pairs:
                if not 0 <= lk < left.width:
                    fail("join-keys-in-range", f"left key {lk} out of range")
                if not 0 <= rk < right.width:
                    fail("join-keys-in-range", f"right key {rk} out of range")
            if isinstance(node, PhysMergeJoin):
                need_left = Collation(tuple((lk, True) for lk, _ in pairs))
                need_right = Collation(tuple((rk, True) for _, rk in pairs))
                if not left.collation.satisfies(need_left):
                    fail(
                        "merge-join-sorted-input",
                        f"left input collation {left.collation} does not "
                        f"satisfy {need_left}",
                    )
                if not right.collation.satisfies(need_right):
                    fail(
                        "merge-join-sorted-input",
                        f"right input collation {right.collation} does not "
                        f"satisfy {need_right}",
                    )
        if isinstance(node, PhysAggregateBase):
            child = node.inputs[0]
            if node.width != len(node.group_keys) + len(node.agg_calls):
                fail(
                    "aggregate-width",
                    f"width {node.width}, expected "
                    f"{len(node.group_keys) + len(node.agg_calls)}",
                )
            for key in node.group_keys:
                if not 0 <= key < child.width:
                    fail(
                        "aggregate-keys-in-range",
                        f"group key {key} out of range",
                    )
            for call in node.agg_calls:
                if call.arg is not None:
                    self._check_refs(call.arg, child.width, fail)
            if isinstance(node, PhysSortAggregate) and node.group_keys:
                need = Collation(tuple((k, True) for k in node.group_keys))
                if not child.collation.satisfies(need):
                    fail(
                        "sort-aggregate-sorted-input",
                        f"input collation {child.collation} does not "
                        f"satisfy {need}",
                    )
        if isinstance(node, PhysSort):
            for key, _ in node.keys:
                if not 0 <= key < node.inputs[0].width:
                    fail("sort-keys-in-range", f"sort key {key} out of range")
        if isinstance(node, PhysExchange):
            if node.distribution.type is DistributionType.ANY:
                fail(
                    "exchange-target-concrete",
                    "exchange targets the planner-internal ANY distribution",
                )
            if node.collation.is_sorted and not node.inputs[
                0
            ].collation.satisfies(node.collation):
                fail(
                    "merge-collation-provided",
                    f"merging exchange on {node.collation} over input "
                    f"sorted {node.inputs[0].collation}",
                )

    def _check_refs(self, expr: Expr, width: int, fail) -> None:
        bad = [i for i in references(expr) if not 0 <= i < width]
        if bad:
            fail(
                "expr-refs-in-range",
                f"column refs {sorted(bad)} out of range for width {width}",
            )

    @staticmethod
    def _name(node: PhysNode) -> str:
        return f"{type(node).__name__}[{', '.join(node.fields[:4])}"\
            f"{', ...' if len(node.fields) > 4 else ''}]"


def validate_execution_result(result) -> List[Violation]:
    """Post-execution invariants over an ``ExecutionResult``.

    Guards the ``ExecutionResult.row_count`` vs ``FragmentStats.rows_out``
    drift: the root fragment executes exactly once (at the coordinator)
    and serves the result, so its recorded ``rows_out`` must equal
    ``len(result.rows)``.  A drift means per-operator actuals and the
    result rows came from different executions — the PR-2 class of
    accounting bug.
    """
    violations: List[Violation] = []
    root = next((f for f in result.fragment_trees if f.is_root), None)
    if root is None:
        return violations
    stats = next(
        (s for s in result.fragments if s.fragment_id == root.fragment_id),
        None,
    )
    if stats is None:
        violations.append(
            Violation(
                "root-fragment-has-stats",
                f"fragment #{root.fragment_id}",
                "no FragmentStats recorded for the root fragment",
            )
        )
    elif stats.rows_out != len(result.rows):
        violations.append(
            Violation(
                "root-rows-out-matches-result",
                f"fragment #{root.fragment_id}",
                f"root fragment rows_out={stats.rows_out} but the result "
                f"has {len(result.rows)} row(s)",
            )
        )
    return violations


def check_execution_result(result) -> None:
    """Raise :class:`PlanInvariantError` on any result-level violation."""
    violations = validate_execution_result(result)
    if violations:
        lines = "\n".join(str(v) for v in violations)
        raise PlanInvariantError(
            f"{len(violations)} execution-result invariant violation(s):"
            f"\n{lines}",
            violations,
        )

