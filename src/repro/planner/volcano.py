"""The cost-based (Volcano) optimisation stage.

Reproduces both behaviours Section 4.3 describes:

* **Single-phase (baseline IC)** — all 52 rules, logical permutations
  (JoinCommuteRule, JoinPushThroughJoinRule) interleaved with physical
  enumeration.  "Calcite could generate as many possible plans as the
  Cartesian product of logical and physical possibilities, leading to an
  impossible number of alternatives to explore."  The reproduction charges
  the planning budget with that product before planning:

      space = permutations(inner joins) * joins * options_per_join
              * cycle_multiplier

  where the cycle multiplier grows when the query's equi-predicate classes
  contain *redundant* connections (a class linking k relations supplies
  k-1 spanning edges; any surplus over a spanning tree of the join graph
  means the same subplan can be derived along multiple predicate paths,
  which is precisely what multiplies memo alternatives in real optimisers).
  On TPC-H this exhausts the budget for exactly Q2, Q5 and Q9 — the three
  queries the paper reports as failing to produce execution plans — while
  tree-shaped joins like Q7/Q8 plan fine.  The baseline performs **no**
  join reordering (its plans are "often not fully optimized").

* **Two-phase (IC+)** — a logical phase (the Hep passes) followed by a
  physical phase.  The two permutation rules live in the physical phase
  and are disabled when the query has more than three nested joins or more
  than four join operations (thresholds from the paper, chosen to target
  the failing queries).  When enabled, the planner enumerates connected
  left-deep join orders per join component and keeps the cheapest
  physically-costed alternative.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.common.config import SystemConfig
from repro.cost.model import CostModel
from repro.exec.physical import PhysNode
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.planner.adapter_rules import (
    adapter_pushdown_rules,
    has_federated_scan,
)
from repro.planner.budget import PlanningBudget
from repro.planner.hep import HepPlanner
from repro.planner.physical import PhysicalPlanner, Requirement
from repro.planner.rules import stage_one_passes
from repro.rel import expr as rex
from repro.rel.expr import ColRef, Expr, make_conjunction
from repro.rel.logical import (
    JoinType,
    LogicalFilter,
    LogicalJoin,
    LogicalProject,
    RelNode,
    column_origin,
    count_joins,
    max_nested_joins,
    scans_in,
    walk,
)
from repro.stats.estimator import Estimator
from repro.storage.store import DataStore

#: Cap on enumerated join orders per component (keeps planning bounded).
MAX_JOIN_ORDERS = 400

#: Section 4.3: past 3 nested joins or 4 joins the join-permutation rules
#: are disabled in the physical phase (the paper's thresholds).
MAX_NESTED_JOINS_FOR_PERMUTATION = 3
MAX_JOINS_FOR_PERMUTATION = 4

#: Multiplier base for redundant equi-graph connections (see module doc).
CYCLE_BLOWUP = 15.0

#: Physical options per join: algorithms x distribution mappings.
BASELINE_OPTIONS_PER_JOIN = 6      # {NLJ, merge} x {single, broadcast, hash}
IMPROVED_OPTIONS_PER_JOIN = 12     # + hash join, + fully distributed mappings


class QueryPlanner:
    """Runs the full two-stage optimisation pipeline for one query."""

    def __init__(
        self,
        store: DataStore,
        config: SystemConfig,
        feedback=None,
        sketches=None,
    ):
        self.store = store
        self.config = config
        self.estimator = Estimator(
            store,
            config.fixed_join_estimation,
            feedback=feedback,
            sketches=sketches,
        )
        self.cost_model = CostModel(config)
        #: Budget ticks the most recent :meth:`plan` call consumed; the
        #: plan cache records this as what a future hit saves.
        self.last_budget_spent: int = 0

    def plan(self, logical: RelNode) -> PhysNode:
        budget = PlanningBudget()
        tracer = get_tracer()
        # --- Stage 1: the three HepPlanner passes (Section 3.2.1). ---
        tree = logical
        with tracer.span("hep") as span:
            for rules in stage_one_passes(
                self.config.filter_correlate_rule,
                self.config.join_condition_simplification,
            ):
                tree = HepPlanner(rules, budget).optimize(tree)
            # Adapter pushdown (Hep pass 4): only when a scan actually
            # reads through a non-native adapter, so native-only queries
            # keep their historical budget charges and rule traces.
            if has_federated_scan(self.store, tree):
                tree = HepPlanner(
                    adapter_pushdown_rules(self.store), budget
                ).optimize(tree)
            tracer.advance(budget.spent)
            span.attrs["budget_spent"] = max(0, budget.spent)
        # --- Stage 2: cost-based optimisation. ---
        physical = PhysicalPlanner(
            self.store, self.config, self.estimator, self.cost_model, budget
        )
        with tracer.span("volcano-logical") as span:
            before = budget.spent
            if self.config.two_phase_optimization:
                tree = self._physical_phase_reorder(tree, physical, budget)
            else:
                self._charge_single_phase_space(tree, budget)
            tracer.advance(budget.spent - before)
            span.attrs["budget_spent"] = max(0, budget.spent - before)
        with tracer.span("volcano-physical") as span:
            before = budget.spent
            plan = physical.plan(tree)
            tracer.advance(budget.spent - before)
            span.attrs["budget_spent"] = max(0, budget.spent - before)
        self.last_budget_spent = budget.spent
        get_registry().inc("planner.queries_planned")
        get_registry().observe("planner.budget_spent", budget.spent)
        return plan

    # ------------------------------------------------------------------
    # Baseline: single-phase search-space accounting
    # ------------------------------------------------------------------

    def _charge_single_phase_space(
        self, tree: RelNode, budget: PlanningBudget
    ) -> None:
        inner_joins = sum(
            1
            for n in walk(tree)
            if isinstance(n, LogicalJoin) and n.join_type is JoinType.INNER
        )
        total_joins = count_joins(tree)
        if total_joins == 0:
            return
        excess = _redundant_equi_connections(tree)
        permutations = math.factorial(min(inner_joins, 10))
        cycle_multiplier = (1.0 + CYCLE_BLOWUP * excess) ** 2
        space = (
            permutations
            * total_joins
            * BASELINE_OPTIONS_PER_JOIN
            * cycle_multiplier
        )
        budget.charge(int(min(space, budget.limit + budget.spent + 1)))

    # ------------------------------------------------------------------
    # IC+: physical phase with conditional permutation rules
    # ------------------------------------------------------------------

    def _physical_phase_reorder(
        self, tree: RelNode, physical: PhysicalPlanner, budget: PlanningBudget
    ) -> RelNode:
        joins = count_joins(tree)
        nested = max_nested_joins(tree)
        permutations_enabled = (
            nested <= MAX_NESTED_JOINS_FOR_PERMUTATION
            and joins <= MAX_JOINS_FOR_PERMUTATION
        )
        if not permutations_enabled:
            return tree
        reorderer = JoinOrderEnumerator(physical, self.estimator, budget)
        return reorderer.reorder(tree)


# ---------------------------------------------------------------------------
# Join-order enumeration (JoinCommute + JoinPushThroughJoin equivalent)
# ---------------------------------------------------------------------------


class JoinOrderEnumerator:
    """Enumerates connected left-deep orders per inner-join component."""

    def __init__(
        self,
        physical: PhysicalPlanner,
        estimator: Estimator,
        budget: PlanningBudget,
    ):
        self._physical = physical
        self._est = estimator
        self._budget = budget

    def reorder(self, node: RelNode) -> RelNode:
        if isinstance(node, LogicalJoin) and node.join_type is JoinType.INNER:
            return self._reorder_component(node)
        new_inputs = [self.reorder(child) for child in node.inputs]
        return node.copy(new_inputs)

    # -- component machinery -----------------------------------------------------

    def _reorder_component(self, root: LogicalJoin) -> RelNode:
        inputs, conjuncts = self._flatten(root)
        inputs = [self.reorder(i) for i in inputs]
        if len(inputs) < 2:
            return root
        offsets = _offsets(inputs)
        edges = self._equi_edges(inputs, offsets, conjuncts)
        orders = self._connected_orders(len(inputs), edges)
        original = tuple(range(len(inputs)))
        if original not in orders:
            orders.insert(0, original)
        get_registry().inc("planner.join_orders_enumerated", len(orders))
        owned = [(c, _owners(offsets, c)) for c in conjuncts]
        best_tree: Optional[RelNode] = None
        best_cost = math.inf
        for order in orders:
            self._budget.charge(1)
            candidate = self._build_order(inputs, offsets, owned, order)
            plan = self._physical.implement(candidate, Requirement.any())
            cost = plan.total_cost().value
            if cost < best_cost:
                best_cost = cost
                best_tree = candidate
        assert best_tree is not None
        return best_tree

    def _flatten(
        self, root: LogicalJoin
    ) -> Tuple[List[RelNode], List[Expr]]:
        """Flatten a left-deep inner-join chain into inputs + conjuncts.

        Conjunct column indexes are valid for the concatenation of the
        flattened inputs (a property of left-deep trees: the left subtree
        always occupies a prefix of the combined row).
        """
        inputs: List[RelNode] = []
        conjuncts: List[Expr] = []

        def descend(node: RelNode) -> None:
            if (
                isinstance(node, LogicalJoin)
                and node.join_type is JoinType.INNER
            ):
                descend(node.left)
                inputs.append(node.right)
                if node.condition is not None:
                    conjuncts.extend(rex.split_conjunction(node.condition))
                return
            inputs.append(node)

        descend(root)
        del descend  # a recursive closure and its own cell form a cycle: break it
        return inputs, conjuncts

    def _equi_edges(
        self,
        inputs: Sequence[RelNode],
        offsets: Sequence[int],
        conjuncts: Sequence[Expr],
    ) -> Set[Tuple[int, int]]:
        edges: Set[Tuple[int, int]] = set()
        for conjunct in conjuncts:
            touched = _owners(offsets, conjunct)
            if len(touched) == 2:
                a, b = sorted(touched)
                edges.add((a, b))
        return edges

    def _connected_orders(
        self, count: int, edges: Set[Tuple[int, int]]
    ) -> List[Tuple[int, ...]]:
        """All left-deep orders that never introduce an avoidable cross
        join, capped at :data:`MAX_JOIN_ORDERS`."""
        adjacency: Dict[int, Set[int]] = {i: set() for i in range(count)}
        for a, b in edges:
            adjacency[a].add(b)
            adjacency[b].add(a)
        orders: List[Tuple[int, ...]] = []

        def extend(sequence: List[int], used: Set[int]) -> None:
            if len(orders) >= MAX_JOIN_ORDERS:
                return
            if len(sequence) == count:
                orders.append(tuple(sequence))
                return
            connected = [
                i
                for i in range(count)
                if i not in used and adjacency[i] & used
            ]
            candidates = connected or [
                i for i in range(count) if i not in used
            ]
            for index in candidates:
                sequence.append(index)
                used.add(index)
                extend(sequence, used)
                sequence.pop()
                used.remove(index)

        for start in range(count):
            extend([start], {start})
            if len(orders) >= MAX_JOIN_ORDERS:
                break
        del extend  # a recursive closure and its own cell form a cycle: break it
        return orders

    def _build_order(
        self,
        inputs: Sequence[RelNode],
        offsets: Sequence[int],
        owned: Sequence[Tuple[Expr, Set[int]]],
        order: Sequence[int],
    ) -> RelNode:
        """Rebuild a left-deep tree for ``order`` and restore the original
        output column order with a projection.  ``owned`` pairs each
        conjunct with the inputs it references (the same for every order)."""
        new_offsets: Dict[int, int] = {}
        position = 0
        for input_index in order:
            new_offsets[input_index] = position
            position += inputs[input_index].width

        def remap(global_index: int) -> int:
            owner = _input_of(offsets, global_index)
            local = global_index - offsets[owner]
            return new_offsets[owner] + local

        remaining = [(rex.remap_refs(c, remap), owners) for c, owners in owned]
        tree: RelNode = inputs[order[0]]
        present: Set[int] = {order[0]}
        for input_index in order[1:]:
            present.add(input_index)
            right = inputs[input_index]
            applicable = [
                expr for expr, owners in remaining if owners <= present
            ]
            remaining = [
                (expr, owners)
                for expr, owners in remaining
                if not owners <= present
            ]
            tree = LogicalJoin(
                tree, right, make_conjunction(applicable), JoinType.INNER
            )
        leftovers = [expr for expr, _ in remaining]
        if leftovers:
            tree = LogicalFilter(tree, make_conjunction(leftovers))
        total_width = sum(i.width for i in inputs)
        restore = [ColRef(remap(g)) for g in range(total_width)]
        names = [
            field
            for input_node in inputs
            for field in input_node.fields
        ]
        if list(order) == sorted(order) and all(
            isinstance(e, ColRef) and e.index == i
            for i, e in enumerate(restore)
        ):
            return tree
        return LogicalProject(tree, restore, names)


def _offsets(inputs: Sequence[RelNode]) -> List[int]:
    offsets = []
    position = 0
    for node in inputs:
        offsets.append(position)
        position += node.width
    return offsets


def _input_of(offsets: Sequence[int], global_index: int) -> int:
    """The input whose column range contains ``global_index``."""
    return max(0, bisect_right(offsets, global_index) - 1)


def _owners(offsets: Sequence[int], conjunct: Expr) -> Set[int]:
    """The inputs a conjunct references."""
    return {_input_of(offsets, r) for r in rex.references(conjunct)}


# ---------------------------------------------------------------------------
# Equi-class redundancy analysis (baseline explosion criterion)
# ---------------------------------------------------------------------------


def _redundant_equi_connections(tree: RelNode) -> int:
    """Surplus equi-graph connections over a spanning forest.

    Trace every equi-join column to its originating base-table scan
    (:func:`repro.rel.logical.column_origin`), build equivalence classes
    over (scan, column) pairs, and count how many class-supplied
    connections exceed what a spanning forest of the scans needs.  A
    surplus means the same join subgraph is derivable along multiple
    predicate paths — the redundancy that multiplies alternatives in the
    optimiser's memo.
    """
    scans = scans_in(tree)
    if len(scans) < 3:
        return 0

    def origin(node: RelNode, column: int) -> Optional[Tuple[int, int]]:
        # Keyed by the scan *node*: one table under one alias in two
        # subquery scopes is two scans with one digest.
        found = column_origin(node, column)
        if found is None:
            return None
        scan, position = found
        return next(i for i, s in enumerate(scans) if s is scan), position

    # Union-find over (scan, column) pairs via the equi conjuncts.
    parent: Dict[Tuple[int, int], Tuple[int, int]] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for node in walk(tree):
        if not isinstance(node, LogicalJoin) or node.condition is None:
            continue
        pairs, _ = rex.extract_equi_keys(node.condition, node.left.width)
        for lk, rk in pairs:
            left_origin = origin(node.left, lk)
            right_origin = origin(node.right, rk)
            if left_origin is not None and right_origin is not None:
                union(left_origin, right_origin)

    # Group columns by class; count class connections vs spanning forest.
    classes: Dict[Tuple[int, int], Set[int]] = {}
    for column in list(parent):
        classes.setdefault(find(column), set()).add(column[0])

    scan_parent = list(range(len(scans)))

    def scan_find(x: int) -> int:
        while scan_parent[x] != x:
            scan_parent[x] = scan_parent[scan_parent[x]]
            x = scan_parent[x]
        return x

    connections = 0
    for members in classes.values():
        if len(members) < 2:
            continue
        connections += len(members) - 1
        anchor = next(iter(members))
        for other in members:
            ra, rb = scan_find(anchor), scan_find(other)
            if ra != rb:
                scan_parent[ra] = rb
    components = len({scan_find(i) for i in range(len(scans))})
    spanning = len(scans) - components
    return max(0, connections - spanning)
