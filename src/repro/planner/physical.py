"""Physical planning: trait-driven implementation of a logical tree.

This is the trait-propagation half of the VolcanoPlanner (Sections 3.2.2,
5.1): every logical operator is implemented by one or more physical
operators; join operators additionally choose a *distribution mapping*
(Table 2, plus the Section 5.1.1 fully-distributed mapping) and a join
algorithm (nested-loop / merge, plus the Section 5.1.2 hash join).  When a
child's distribution does not satisfy the requirement (Table 1), an
exchange enforcer is inserted.

The planner is a memoised dynamic program with Calcite's two levels.  A
*group* (Calcite's ``RelSet``) is a logical digest; the un-enforced
physical alternatives of a join, aggregate or sort do not depend on what
the parent requires, so they are made once per group — a join's as
priced records (:class:`_Alternative`), not nodes.  A *winner*
(``RelSubset``) belongs to a (group, requirement) pair: the enforcers the
requirement needs are priced on every alternative, and only the cheapest
is built, enforced.  Pricing sums costs in the order the built nodes'
``costed()`` sums them, so the choice and the cost bits are the ones
building every alternative would give.  Each winner sought and each
join/aggregate alternative weighed charges one tick against the planning
budget, which is how single-phase optimisation over large join search
spaces exhausts Calcite's limits (Section 4.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import PlannerError
from repro.cost.model import Cost, CostModel, distribution_factor
from repro.exec.physical import (
    DEGRADED_HASH_KEY,
    AggPhase,
    CostedSubtree,
    PhysExchange,
    PhysFilter,
    PhysHashAggregate,
    PhysHashJoin,
    PhysIndexScan,
    PhysLimit,
    PhysMergeJoin,
    PhysNestedLoopJoin,
    PhysNode,
    PhysProject,
    PhysSort,
    PhysSortAggregate,
    PhysTableScan,
    PhysValues,
    passthrough,
    project_traits,
)
from repro.planner.budget import PlanningBudget
from repro.rel import expr as rex
from repro.rel.expr import ColRef, make_conjunction
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
from repro.rel.traits import Collation, Distribution, EMPTY_COLLATION, satisfies
from repro.stats.estimator import Estimator
from repro.storage.store import DataStore


class ReqKind(enum.Enum):
    ANY = "any"
    SINGLE = "single"
    BROADCAST = "broadcast"
    HASH = "hash"
    #: Any hash distribution — "stay partitioned wherever you are".
    ANY_HASH = "any_hash"


@dataclass(frozen=True)
class Requirement:
    """A distribution (and optional collation) requirement on a subtree."""

    kind: ReqKind = ReqKind.ANY
    keys: Tuple[int, ...] = ()
    collation: Collation = EMPTY_COLLATION
    #: The distribution an enforcing exchange should produce (``None`` for
    #: ANY, which needs no enforcement; ANY_HASH falls back to its keys).
    target: Optional[Distribution] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if self.kind is ReqKind.SINGLE:
            target = Distribution.single()
        elif self.kind is ReqKind.BROADCAST:
            target = Distribution.broadcast()
        elif self.kind is ReqKind.ANY:
            target = None
        else:
            target = Distribution.hash(self.keys)
        object.__setattr__(self, "target", target)

    @staticmethod
    def any() -> "Requirement":
        return _ANY_REQ

    @staticmethod
    def single(collation: Collation = EMPTY_COLLATION) -> "Requirement":
        if collation is EMPTY_COLLATION:
            return _SINGLE_REQ
        return Requirement(ReqKind.SINGLE, (), collation)

    @staticmethod
    def broadcast() -> "Requirement":
        return _BROADCAST_REQ

    @staticmethod
    def hash(keys: Sequence[int]) -> "Requirement":
        return Requirement(ReqKind.HASH, tuple(keys))

    @staticmethod
    def any_hash(fallback_keys: Sequence[int]) -> "Requirement":
        return Requirement(ReqKind.ANY_HASH, tuple(fallback_keys))

    def distribution_satisfied(self, dist: Distribution) -> bool:
        if self.kind is ReqKind.ANY:
            return True
        if self.kind is ReqKind.ANY_HASH:
            return dist.is_hash
        return satisfies(dist, self.target)


_ANY_REQ = Requirement()
_SINGLE_REQ = Requirement(ReqKind.SINGLE)
_BROADCAST_REQ = Requirement(ReqKind.BROADCAST)


#: The self costs of the exchange and the sort a plan needs under one
#: requirement; ``None`` for an enforcer it does not need.
_Enforcers = Tuple[Optional[Cost], Optional[Cost]]
_NO_ENFORCERS: _Enforcers = (None, None)


class _Alternative(CostedSubtree):
    """A priced join alternative that is not a node yet: the operator
    class ``make``, its parameters and inputs (nodes or alternatives), the
    traits the node will carry and, derived as the node derives them, its
    costs.  :meth:`build` makes the node, once, when it wins.  It holds
    data, never the planner, so a finished memo is freed by reference
    counting rather than by the cycle collector."""

    __slots__ = (
        "make", "params", "inputs", "width", "distribution", "collation",
        "has_exchange", "leaf_partition_sites",
        "_rows_est", "_self_cost", "_total_cost", "_node",
    )

    def __init__(
        self, make, params: tuple, inputs: tuple, width: int,
        distribution: Distribution, collation: Collation,
        rows_est: float, self_cost: Cost,
    ):
        self.make, self.params, self.inputs = make, params, inputs
        self.width = width
        self.distribution, self.collation = distribution, collation
        self._node: Optional[PhysNode] = None
        self._derive()
        self.costed(rows_est, self_cost)

    def build(self) -> PhysNode:
        node = self._node
        if node is None:
            inputs = [_built(child) for child in self.inputs]
            node = self._node = self.make(*inputs, *self.params).costed(
                self._rows_est, self._self_cost
            )
        return node


def _built(plan) -> PhysNode:
    return plan.build() if isinstance(plan, _Alternative) else plan


class PhysicalPlanner:
    """Implements logical trees as costed physical plans."""

    def __init__(
        self,
        store: DataStore,
        config: SystemConfig,
        estimator: Estimator,
        cost_model: CostModel,
        budget: PlanningBudget,
    ):
        self._store = store
        self._config = config
        self._est = estimator
        self._cost = cost_model
        self._budget = budget
        #: (group, requirement) -> winner.
        self._memo: Dict[Tuple[str, Requirement], PhysNode] = {}
        #: group -> un-enforced alternatives: an aggregate's or a sort's
        #: nodes, a join's records.
        self._groups: Dict[str, list] = {}

    # -- entry point -------------------------------------------------------------

    def plan(self, root: RelNode) -> PhysNode:
        """Produce the final physical plan; results flow to a single site."""
        return self.implement(root, Requirement.single())

    # -- core dispatch -------------------------------------------------------------

    def implement(self, node: RelNode, req: Requirement) -> PhysNode:
        key = (node.digest(), req)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        self._budget.charge(1)
        if isinstance(node, LogicalTableScan):
            plan = self._implement_scan(node, req)
        elif isinstance(node, LogicalFilter):
            plan = self._implement_filter(node, req)
        elif isinstance(node, LogicalProject):
            plan = self._implement_project(node, req)
        elif isinstance(node, LogicalJoin):
            plan = self._winner(
                node, self._join_alternatives, req, charge_each=True
            )
        elif isinstance(node, LogicalAggregate):
            plan = self._winner(
                node, self._aggregate_alternatives, req, charge_each=True
            )
        elif isinstance(node, LogicalSort):
            plan = self._winner(
                node, self._sort_alternatives, req, charge_each=False
            )
        elif isinstance(node, LogicalValues):
            plan = self._implement_values(node, req)
        else:
            raise PlannerError(f"no physical implementation for {node!r}")
        self._memo[key] = plan
        return plan

    # -- enforcers ---------------------------------------------------------------------

    def _enforcers(self, plan, req: Requirement, memo: dict) -> _Enforcers:
        """The self costs of the exchange and the sort that make ``plan``
        (a node or a record) satisfy ``req``, kept in ``memo`` for one
        requirement: enforcers neither drop rows nor change the schema, so
        the costs depend on the plan only through this key."""
        exchange = not req.distribution_satisfied(plan.distribution)
        wanted = req.collation
        sort = wanted.is_sorted and not plan.collation.satisfies(wanted)
        if not (exchange or sort):
            return _NO_ENFORCERS
        rows, width, df = plan.rows_est, plan.width, distribution_factor(plan)
        key = (rows, width, df, exchange, sort)
        costs = memo.get(key)
        if costs is None:
            sites = self._target_site_count(req.target) if exchange else 0
            costs = memo[key] = (
                self._cost.exchange(rows, width, sites, df) if exchange else None,
                # A sort above an exchange sees the whole relation (df 1).
                self._cost.sort(rows, width, 1.0 if exchange else df)
                if sort
                else None,
            )
        return costs

    def _enforce(
        self, plan: PhysNode, req: Requirement,
        costs: Optional[_Enforcers] = None,
    ) -> PhysNode:
        """Build the enforcers ``costs`` prices (by default, whatever
        ``req`` needs) on top of ``plan``."""
        exchange_cost, sort_cost = costs or self._enforcers(plan, req, {})
        result = plan
        rows = plan.rows_est
        wanted = req.collation
        if exchange_cost is not None:
            # A merging exchange keeps an order the requirement wants.
            merge = (
                plan.collation
                if wanted.is_sorted and plan.collation.satisfies(wanted)
                else EMPTY_COLLATION
            )
            result = PhysExchange(result, req.target, merge).costed(
                rows, exchange_cost
            )
        if sort_cost is not None:
            result = PhysSort(result, wanted.keys).costed(rows, sort_cost)
        return result

    def _target_site_count(self, dist: Distribution) -> int:
        if dist.is_single:
            return 1
        return self._store.site_count

    def _cheapest(self, candidates: list, req: Requirement) -> PhysNode:
        """Price ``req``'s enforcers on every candidate (a node or a
        record) and build only the first of least cumulative cost."""
        if not candidates:
            raise PlannerError("no physical candidates produced")
        memo: dict = {}
        best = costs = None
        least = 0.0
        for plan in candidates:
            exchange_cost, sort_cost = enforcers = self._enforcers(plan, req, memo)
            # Summed as the built nodes will sum it: self cost, then input.
            total = plan.total_cost()
            if exchange_cost is not None:
                total = exchange_cost + total
            if sort_cost is not None:
                total = sort_cost + total
            if best is None or total.value < least:  # the first strict minimum
                best, costs, least = plan, enforcers, total.value
        return self._enforce(_built(best), req, costs)

    def _winner(
        self, node: RelNode, build, req: Requirement, charge_each: bool
    ) -> PhysNode:
        """The cheapest alternative of ``node``'s group under ``req``.  The
        group is made by ``build(node)`` the first time it is met;
        ``charge_each`` bills one tick per alternative weighed."""
        digest = node.digest()
        alternatives = self._groups.get(digest)
        if alternatives is None:
            alternatives = self._groups[digest] = build(node)
        if charge_each:
            self._budget.charge(len(alternatives))
        return self._cheapest(alternatives, req)

    # -- scans --------------------------------------------------------------------------

    def _implement_scan(self, node: LogicalTableScan, req: Requirement) -> PhysNode:
        data = self._store.table(node.table)
        native = _native_distribution(data.schema, node.pushed_project)
        sites = data.partition_site_count()
        rows = self._est.row_count(node)
        adapter = data.adapter
        if adapter is not None and adapter.name != "native":
            # Adapter sources read the full base relation (CPU/IO) but ship
            # only what survives pushdown (network).
            scan_cost = self._cost.scan(
                float(data.row_count), len(node.fields), sites,
                adapter_costs=adapter.costs, out_rows=rows,
            )
        else:
            scan_cost = self._cost.scan(rows, len(node.fields), sites)
        table_scan = PhysTableScan(
            node.table, node.alias, node.fields, native, sites,
            pushed_filter=node.pushed_filter,
            pushed_project=node.pushed_project,
            pushed_fetch=node.pushed_fetch,
        ).costed(rows, scan_cost)
        candidates = [table_scan]
        # Engine-side index scans read the in-memory mirror and would not
        # honour adapter-pushed work, so they only compete on plain scans.
        if req.collation.is_sorted and not node.has_pushdown:
            index_name = self._matching_index(data.schema, req.collation)
            if index_name is not None:
                index_scan = self._index_scan(node, data, index_name, rows)
                candidates.append(index_scan)
        return self._cheapest(candidates, req)

    def _index_scan(
        self, scan: LogicalTableScan, data, index_name: str, rows: float,
        **bounds,
    ) -> PhysIndexScan:
        """A costed index-ordered scan of a plain (un-pushed) table scan.

        Index scans pay a small per-row indirection premium but deliver
        order for free.
        """
        schema = data.schema
        sites = data.partition_site_count()
        keys = tuple(
            (schema.column_index(c), True)
            for c in schema.indexes[index_name].columns
        )
        return PhysIndexScan(
            scan.table, scan.alias, scan.fields, index_name,
            _native_distribution(schema), Collation(keys), sites, **bounds,
        ).costed(rows, self._cost.index_scan(rows, sites))

    def _matching_index(self, schema, collation: Collation) -> Optional[str]:
        """An index whose key order provides the requested collation."""
        wanted = collation.keys
        if any(not asc for _, asc in wanted):
            return None
        for name, index_def in schema.indexes.items():
            positions = tuple(schema.column_index(c) for c in index_def.columns)
            if positions[: len(wanted)] == tuple(k for k, _ in wanted):
                return name
            if tuple(k for k, _ in wanted)[: len(positions)] == positions:
                return name
        return None

    # -- filter / project ------------------------------------------------------------------

    def _implement_filter(self, node: LogicalFilter, req: Requirement) -> PhysNode:
        # Filters preserve distribution and collation: push the requirement
        # through so enforcement happens below the (row-reducing) filter
        # only when that is genuinely necessary; also consider filtering
        # before exchanging (usually far cheaper).
        candidates: List[PhysNode] = []
        for child_req in self._pass_through_reqs(req):
            child = self.implement(node.input, child_req)
            filt = PhysFilter(child, node.condition).costed(
                self._est.row_count(node),
                self._cost.filter(child.rows_est, distribution_factor(child)),
            )
            candidates.append(filt)
        range_scan = self._try_index_range(node)
        if range_scan is not None:
            candidates.append(range_scan)
        return self._cheapest(candidates, req)

    def _try_index_range(self, node: LogicalFilter) -> Optional[PhysNode]:
        """A sargable predicate over a base-table scan becomes a bounded
        index scan plus a residual filter (index range pushdown)."""
        scan = node.input
        if not isinstance(scan, LogicalTableScan):
            return None
        if scan.has_pushdown:
            # A pushed scan's output no longer matches the base schema's
            # column positions; index ranges only apply to plain scans.
            return None
        data = self._store.table(scan.table)
        schema = data.schema
        bounds: Dict[int, Dict[str, Tuple[object, bool]]] = {}
        conjuncts = rex.split_conjunction(node.condition)
        bound_exprs: Dict[int, List[object]] = {}
        for conjunct in conjuncts:
            sarg = _sargable_bound(conjunct)
            if sarg is None:
                continue
            column, kind, value, inclusive = sarg
            entry = bounds.setdefault(column, {})
            # Keep the first bound per side; correctness only needs a
            # superset, so extra conjuncts simply stay in the residual.
            if kind == "eq":
                if "lo" not in entry and "hi" not in entry:
                    entry["lo"] = entry["hi"] = (value, True)
                    bound_exprs.setdefault(column, []).append(conjunct)
            elif kind not in entry:
                entry[kind] = (value, inclusive)
                bound_exprs.setdefault(column, []).append(conjunct)
        for index_name, index_def in schema.indexes.items():
            leading = schema.column_index(index_def.columns[0])
            entry = bounds.get(leading)
            if not entry:
                continue
            low, low_inc = entry.get("lo", (None, True))
            high, high_inc = entry.get("hi", (None, True))
            used = bound_exprs.get(leading, [])
            bound_condition = make_conjunction(list(used))
            scanned = max(
                1.0,
                self._est.row_count(scan)
                * self._est.selectivity(bound_condition, scan),
            )
            result: PhysNode = self._index_scan(
                scan, data, index_name, scanned,
                low=low, high=high,
                low_inclusive=low_inc, high_inclusive=high_inc,
                bound_condition=bound_condition,
            )
            residual = make_conjunction(
                [c for c in conjuncts if not any(c is u for u in used)]
            )
            if residual is not None:
                result = PhysFilter(result, residual).costed(
                    self._est.row_count(node),
                    self._cost.filter(scanned, distribution_factor(result)),
                )
            return result
        return None

    def _pass_through_reqs(self, req: Requirement) -> List[Requirement]:
        """Requirements to try on a transparent operator's input: the
        original requirement (enforce below) and ANY (enforce above)."""
        reqs = [req]
        if req.kind is not ReqKind.ANY:
            reqs.append(Requirement(ReqKind.ANY, (), req.collation))
        return reqs

    def _implement_project(self, node: LogicalProject, req: Requirement) -> PhysNode:
        child = self.implement(node.input, Requirement.any())
        project = PhysProject(child, node.exprs, node.fields).costed(
            child.rows_est,
            self._cost.project(
                child.rows_est, node.width, distribution_factor(child)
            ),
        )
        return self._enforce(project, req)

    # -- joins ---------------------------------------------------------------------------------

    def _join_alternatives(self, node: LogicalJoin) -> List[_Alternative]:
        """Every distribution mapping x join algorithm, priced but neither
        enforced nor built."""
        left_width, right_width = node.left.width, node.right.width
        width, join_type = node.width, node.join_type
        pairs, residual_list = rex.extract_equi_keys(node.condition, left_width)
        residual = make_conjunction(residual_list)
        rows = self._est.row_count(node)
        if pairs:
            # What the equi-join alternatives of every mapping share: the
            # merge join's sorted inputs, and H*'s commuted keys, residual
            # and projection back to the join's column order.
            left_sorted = Requirement(
                ReqKind.ANY, (), Collation(tuple((lk, True) for lk, _ in pairs))
            )
            right_sorted = Requirement(
                ReqKind.ANY, (), Collation(tuple((rk, True) for _, rk in pairs))
            )
            star_pairs = [(rk, lk) for lk, rk in pairs]
            star_residual = (
                _swap_sides(residual, left_width, right_width)
                if residual is not None
                else None
            )
            restore = [ColRef(right_width + i) for i in range(left_width)] + [
                ColRef(i) for i in range(right_width)
            ]
            restored = passthrough(restore)
            sort_memo: dict = {}
        alternatives: List[_Alternative] = []
        for left_req, right_req, out_dist in self._join_mappings(node, pairs):
            left_plan = self.implement(node.left, left_req)
            right_plan = self.implement(node.right, right_req)
            if callable(out_dist):
                out_dist = out_dist(left_plan, right_plan)
            inputs = (left_plan, right_plan)

            # Nested-loop join: always available, any condition.
            alternatives.append(_Alternative(
                PhysNestedLoopJoin, (node.condition, join_type, out_dist),
                inputs, width, out_dist, EMPTY_COLLATION, rows,
                self._cost.nested_loop_join(
                    left_plan.rows_est, right_plan.rows_est, right_plan.width,
                    distribution_factor(left_plan),
                ),
            ))
            if not pairs:
                continue

            # Merge join: sort both inputs on the join keys.
            sorted_left = self._sorted(left_plan, left_sorted, sort_memo)
            sorted_right = self._sorted(right_plan, right_sorted, sort_memo)
            order = sorted_left.collation
            alternatives.append(_Alternative(
                PhysMergeJoin, (pairs, residual, join_type, out_dist, order),
                (sorted_left, sorted_right), width, out_dist, order, rows,
                self._cost.merge_join(
                    sorted_left.rows_est, sorted_right.rows_est,
                    distribution_factor(sorted_left),
                ),
            ))
            if not self._config.hash_join:
                continue

            df_left = distribution_factor(left_plan)
            df_right = distribution_factor(right_plan)
            # Section 5.1.3: never build the hash table on shipped data.  When
            # exactly one input is a local partition (df > 1), the build side
            # must be that input; the commuted H* operator is how the planner
            # reaches the swapped orientation.
            if not (df_right == 1.0 and df_left > 1.0):
                alternatives.append(_Alternative(
                    PhysHashJoin, (pairs, residual, join_type, out_dist),
                    inputs, width, out_dist, EMPTY_COLLATION, rows,
                    self._cost.hash_join(
                        left_plan.rows_est, right_plan.rows_est,
                        right_plan.width, df_right,
                    ),
                ))
            if join_type is JoinType.INNER and not (
                df_left == 1.0 and df_right > 1.0
            ):
                # Section 5.1.3's H*: the commuted hash join that builds on
                # the (possibly cheaper) other side; a projection restores
                # the output column order.
                star_dist = _swap_distribution(out_dist, left_width, right_width)
                star = _Alternative(
                    PhysHashJoin,
                    (star_pairs, star_residual, join_type, star_dist),
                    (right_plan, left_plan), width, star_dist, EMPTY_COLLATION,
                    rows,
                    self._cost.hash_join(
                        right_plan.rows_est, left_plan.rows_est,
                        left_plan.width, df_left,
                    ),
                )
                alternatives.append(_Alternative(
                    PhysProject, (restore, node.fields), (star,), width,
                    *project_traits(star_dist, EMPTY_COLLATION, restored), rows,
                    self._cost.project(rows, width, distribution_factor(star)),
                ))
        return alternatives

    def _sorted(self, plan: PhysNode, req: Requirement, memo: dict):
        """``plan`` sorted as ``req`` (ANY distribution) asks: itself when
        it already is, else a priced sort over it."""
        _, sort_cost = self._enforcers(plan, req, memo)
        if sort_cost is None:
            return plan
        return _Alternative(
            PhysSort, (req.collation.keys,), (plan,), plan.width,
            plan.distribution, req.collation, plan.rows_est, sort_cost,
        )

    def _join_mappings(self, node: LogicalJoin, pairs):
        """Distribution mappings for a join (Table 2 + Section 5.1.1).

        Each mapping is ``(left_req, right_req, out)`` where ``out`` is the
        join's output distribution, or a function of the two input plans
        when it depends on where they ended up.
        """
        # 1. Single-site join: no restrictions; the most frequent baseline
        # plan ("all data is shipped to a single processing site").
        # 2. Fully replicated join.
        mappings = [
            (Requirement.single(), Requirement.single(), Distribution.single()),
            (
                Requirement.broadcast(),
                Requirement.broadcast(),
                Distribution.broadcast(),
            ),
        ]

        # 3. Co-located hash join on a shared equi key.
        if pairs and node.join_type is not JoinType.LEFT:
            left_keys = tuple(lk for lk, _ in pairs)
            right_keys = tuple(rk for _, rk in pairs)
            mappings.append(
                (
                    Requirement.hash(left_keys),
                    Requirement.hash(right_keys),
                    Distribution.hash(left_keys),
                )
            )

        # 4. Section 5.1.1: the fully distributed join — broadcast the left
        # relation to every site holding a partition of the right, keeping
        # the large relation in place.  Inner joins only: for left/semi/
        # anti joins a broadcast left row would match (or miss) per site
        # and produce duplicated or fabricated output rows.
        if self._config.broadcast_join_mapping:
            left_width = node.left.width

            if node.join_type is JoinType.INNER:

                def dist_out(left_plan, right_plan):
                    # A total mapping: the right input's hash keys survive.
                    return right_plan.distribution.remap(
                        lambda i: i + left_width
                    )

                fallback = tuple(rk for _, rk in pairs) or (0,)
                mappings.append(
                    (
                        Requirement.broadcast(),
                        Requirement.any_hash(fallback),
                        dist_out,
                    )
                )

            # 4b. The mirrored mapping: the left relation stays partitioned
            # and the right is replicated to its sites.  Correct for every
            # join type (each left partition sees the full right input) and
            # the shape that lets semi/anti joins and left joins run
            # distributed.
            def left_part_out(left_plan, right_plan):
                return left_plan.distribution  # hash, by ANY_HASH

            fallback_left = tuple(lk for lk, _ in pairs) or (0,)
            mappings.append(
                (
                    Requirement.any_hash(fallback_left),
                    Requirement.broadcast(),
                    left_part_out,
                )
            )
        return mappings

    # -- aggregates ------------------------------------------------------------------------------

    def _aggregate_alternatives(self, node: LogicalAggregate) -> List[PhysNode]:
        groups = self._est.row_count(node)
        width = node.width

        # (a) Single-phase: gather, then aggregate (a reduction operator).
        child_single = self.implement(node.input, Requirement.single())
        single = PhysHashAggregate(
            child_single, node.group_keys, node.agg_calls,
            AggPhase.SINGLE, Distribution.single(),
        )
        single_cost = self._cost.hash_aggregate(
            child_single.rows_est, groups, width,
            distribution_factor(child_single),
        )
        alternatives: List[PhysNode] = [single.costed(groups, single_cost)]

        # (b) Two-phase map-reduce when every call can be split.
        if all(not c.distinct for c in node.agg_calls):
            child_any = self.implement(node.input, Requirement.any())
            if not child_any.distribution.is_single:
                map_groups = min(
                    child_any.rows_est,
                    groups * float(self._store.site_count),
                )
                map_agg = PhysHashAggregate(
                    child_any, node.group_keys, node.agg_calls,
                    AggPhase.MAP, child_any.distribution,
                )
                map_cost = self._cost.hash_aggregate(
                    child_any.rows_est, map_groups, width,
                    distribution_factor(child_any),
                )
                map_agg.costed(map_groups, map_cost)
                gather = PhysExchange(map_agg, Distribution.single())
                gather_cost = self._cost.exchange(
                    map_groups, width, 1, distribution_factor(map_agg)
                )
                reduce_agg = PhysHashAggregate(
                    gather.costed(map_groups, gather_cost),
                    tuple(range(len(node.group_keys))), node.agg_calls,
                    AggPhase.REDUCE, Distribution.single(),
                )
                reduce_cost = self._cost.hash_aggregate(
                    map_groups, groups, width, 1.0
                )
                alternatives.append(reduce_agg.costed(groups, reduce_cost))

        # (c) Sort-based aggregation over input sorted on the group keys
        # (the Q14 plan shape).
        if node.group_keys:
            collation = Collation(tuple((k, True) for k in node.group_keys))
            child_sorted = self.implement(
                node.input, Requirement.single(collation)
            )
            if child_sorted.collation.satisfies(collation):
                out_order = tuple(
                    (i, True) for i in range(len(node.group_keys))
                )
                sort_agg = PhysSortAggregate(
                    child_sorted, node.group_keys, node.agg_calls,
                    AggPhase.SINGLE, Distribution.single(),
                    Collation(out_order),
                )
                sort_cost = self._cost.sort_aggregate(
                    child_sorted.rows_est, groups, width, 1.0
                )
                alternatives.append(sort_agg.costed(groups, sort_cost))
        return alternatives

    # -- sort / limit -------------------------------------------------------------------------------

    def _sort_alternatives(self, node: LogicalSort) -> List[PhysNode]:
        collation = Collation(tuple(node.sort_keys))
        offset = node.offset
        limited = node.fetch is not None or offset is not None

        def out_est(rows: float) -> float:
            if offset is not None:
                rows = max(0.0, rows - float(offset))
            if node.fetch is not None:
                rows = min(rows, float(node.fetch))
            return rows

        def limit(child: PhysNode) -> PhysNode:
            rows = out_est(child.rows_est)
            return PhysLimit(child, node.fetch, offset).costed(
                rows, self._cost.limit(rows)
            )

        # (a) Gather first, sort at one site.
        child_single = self.implement(node.input, Requirement.single())
        if node.sort_keys:
            sorted_single: PhysNode = PhysSort(
                child_single, node.sort_keys, node.fetch, offset
            ).costed(
                out_est(child_single.rows_est),
                self._cost.sort(child_single.rows_est, node.width, 1.0),
            )
        else:
            sorted_single = limit(child_single) if limited else child_single
        alternatives = [sorted_single]

        # (b) Partially distributed sort: sort each partition locally and
        # merge the sorted streams through a merging exchange.  The offset
        # cannot be applied per-partition (a global row position is only
        # known after the merge), so local sorts pre-fetch the first
        # ``fetch + offset`` rows and one PhysLimit above the merge skips
        # and truncates on the whole stream.
        if node.sort_keys:
            child_any = self.implement(node.input, Requirement.any())
            if not child_any.distribution.is_single:
                rows = child_any.rows_est
                prefetch = (
                    node.fetch + (offset or 0)
                    if node.fetch is not None
                    else None
                )
                local_sort = PhysSort(
                    child_any, node.sort_keys, prefetch
                ).costed(
                    rows,
                    self._cost.sort(
                        rows, node.width, distribution_factor(child_any)
                    ),
                )
                merge = PhysExchange(
                    local_sort, Distribution.single(), collation
                ).costed(
                    rows,
                    self._cost.exchange(
                        rows, node.width, 1, distribution_factor(local_sort)
                    ),
                )
                alternatives.append(limit(merge) if limited else merge)
        return alternatives

    def _implement_values(self, node: LogicalValues, req: Requirement) -> PhysNode:
        rows = float(len(node.rows))
        values = PhysValues(node.rows, node.fields).costed(
            rows, self._cost.values(rows)
        )
        return self._enforce(values, req)


def _native_distribution(schema, pushed_project=None) -> Distribution:
    """Where a table's rows live, over the scan's output columns."""
    if schema.replicated:
        return Distribution.broadcast()
    if pushed_project is None:
        return Distribution.hash((schema.affinity_index,))
    # The scan emits a column subset: remap the affinity-hash key to its
    # output position, or degrade if it was projected away.
    if schema.affinity_index in pushed_project:
        return Distribution.hash(
            (pushed_project.index(schema.affinity_index),)
        )
    return Distribution.hash((DEGRADED_HASH_KEY,))


def _sargable_bound(conjunct):
    """``(column, "lo"|"hi"|"eq", value, inclusive)`` for index-usable
    conjuncts; ``_try_index_range`` reads ``eq`` as the closed interval
    ``[value, value]``.  A NULL literal bounds nothing."""
    sarg = rex.column_vs_literal(conjunct)
    if sarg is None or sarg[2] is None:
        return None
    column, op, value = sarg
    if op in (">", ">="):
        return (column.index, "lo", value, op == ">=")
    if op in ("<", "<="):
        return (column.index, "hi", value, op == "<=")
    if op == "=":
        return (column.index, "eq", value, True)
    return None


def _swap_sides(expr, left_width: int, right_width: int):
    """Rewrite a combined-row expression for swapped join inputs."""

    def mapping(index: int) -> int:
        if index < left_width:
            return index + right_width
        return index - left_width

    return rex.remap_refs(expr, mapping)


def _swap_distribution(
    dist: Distribution, left_width: int, right_width: int
) -> Distribution:
    if not dist.is_hash:
        return dist
    remapped = dist.remap(
        lambda i: i + right_width if i < left_width else i - left_width
    )
    return remapped if remapped is not None else dist
