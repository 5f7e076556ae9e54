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
the parent requires, so they are built once per group.  A *winner*
(``RelSubset``) belongs to a (group, requirement) pair: enforcers are put
on every alternative and the cheapest is kept.  Each winner sought and
each join/aggregate alternative weighed charges one tick against the
planning budget, which is how single-phase optimisation over large join
search spaces exhausts Calcite's limits (Section 4.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import PlannerError
from repro.cost.model import CostModel, distribution_factor
from repro.exec.physical import (
    DEGRADED_HASH_KEY,
    AggPhase,
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
        #: group -> un-enforced alternatives (joins, aggregates, sorts).
        self._groups: Dict[str, List[PhysNode]] = {}
        #: (left width, right width) -> the H* column-order restore list.
        self._restore_refs: Dict[Tuple[int, int], List[ColRef]] = {}

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

    def _enforce(self, plan: PhysNode, req: Requirement) -> PhysNode:
        """Insert exchange/sort enforcers so ``plan`` satisfies ``req``."""
        result = plan
        # Enforcers neither drop rows nor change the schema.
        rows, width = plan.rows_est, plan.width
        wanted = req.collation
        if not req.distribution_satisfied(result.distribution):
            target = req.target
            merge = (
                result.collation
                if wanted.is_sorted and result.collation.satisfies(wanted)
                else EMPTY_COLLATION
            )
            result = PhysExchange(result, target, merge).costed(
                rows,
                self._cost.exchange(
                    rows,
                    width,
                    self._target_site_count(target),
                    distribution_factor(result),
                ),
            )
        if wanted.is_sorted and not result.collation.satisfies(wanted):
            result = PhysSort(result, wanted.keys).costed(
                rows,
                self._cost.sort(rows, width, distribution_factor(result)),
            )
        return result

    def _target_site_count(self, dist: Distribution) -> int:
        if dist.is_single:
            return 1
        return self._store.site_count

    def _cheapest(self, candidates: List[PhysNode]) -> PhysNode:
        """The first candidate of minimal cumulative cost."""
        if not candidates:
            raise PlannerError("no physical candidates produced")
        return min(candidates, key=lambda p: p.total_cost().value)

    def _winner(
        self, node: RelNode, build, req: Requirement, charge_each: bool
    ) -> PhysNode:
        """Enforce ``req`` on every alternative of ``node``'s group and keep
        the cheapest.  The group is built by ``build(node)`` the first time
        it is met; ``charge_each`` bills one tick per alternative weighed."""
        digest = node.digest()
        alternatives = self._groups.get(digest)
        if alternatives is None:
            alternatives = self._groups[digest] = build(node)
        if charge_each:
            self._budget.charge(len(alternatives))
        return self._cheapest([self._enforce(p, req) for p in alternatives])

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
        candidates = [self._enforce(table_scan, req)]
        # Engine-side index scans read the in-memory mirror and would not
        # honour adapter-pushed work, so they only compete on plain scans.
        if req.collation.is_sorted and not node.has_pushdown:
            index_name = self._matching_index(data.schema, req.collation)
            if index_name is not None:
                index_scan = self._index_scan(node, data, index_name, rows)
                candidates.append(self._enforce(index_scan, req))
        return self._cheapest(candidates)

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
            candidates.append(self._enforce(filt, req))
        range_scan = self._try_index_range(node, req)
        if range_scan is not None:
            candidates.append(range_scan)
        return self._cheapest(candidates)

    def _try_index_range(
        self, node: LogicalFilter, req: Requirement
    ) -> Optional[PhysNode]:
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
            return self._enforce(result, req)
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

    def _join_alternatives(self, node: LogicalJoin) -> List[PhysNode]:
        """Every distribution mapping x join algorithm, not yet enforced."""
        pairs, residual_list = rex.extract_equi_keys(
            node.condition, node.left.width
        )
        residual = make_conjunction(residual_list)
        rows = self._est.row_count(node)
        alternatives: List[PhysNode] = []
        for left_req, right_req, out_dist in self._join_mappings(node, pairs):
            left_plan = self.implement(node.left, left_req)
            right_plan = self.implement(node.right, right_req)
            if callable(out_dist):
                out_dist = out_dist(left_plan, right_plan)

            # Nested-loop join: always available, any condition.
            nlj = PhysNestedLoopJoin(
                left_plan, right_plan, node.condition, node.join_type, out_dist
            )
            nlj_cost = self._cost.nested_loop_join(
                left_plan.rows_est, right_plan.rows_est, right_plan.width,
                distribution_factor(left_plan),
            )
            alternatives.append(nlj.costed(rows, nlj_cost))
            if pairs:
                alternatives.extend(
                    self._equi_join_alternatives(
                        node, pairs, residual, rows,
                        left_plan, right_plan, out_dist,
                    )
                )
        return alternatives

    def _equi_join_alternatives(
        self,
        node: LogicalJoin,
        pairs: List[Tuple[int, int]],
        residual,
        rows: float,
        left_plan: PhysNode,
        right_plan: PhysNode,
        out_dist: Distribution,
    ) -> List[PhysNode]:
        left_width, right_width = node.left.width, node.right.width

        # Merge join: sort both inputs on the join keys.
        left_order = Collation(tuple((lk, True) for lk, _ in pairs))
        right_order = Collation(tuple((rk, True) for _, rk in pairs))
        sorted_left = self._enforce(
            left_plan, Requirement(ReqKind.ANY, (), left_order)
        )
        sorted_right = self._enforce(
            right_plan, Requirement(ReqKind.ANY, (), right_order)
        )
        merge = PhysMergeJoin(
            sorted_left, sorted_right, pairs, residual, node.join_type,
            out_dist, sorted_left.collation,
        )
        merge_cost = self._cost.merge_join(
            sorted_left.rows_est, sorted_right.rows_est,
            distribution_factor(sorted_left),
        )
        alternatives: List[PhysNode] = [merge.costed(rows, merge_cost)]
        if not self._config.hash_join:
            return alternatives

        df_left = distribution_factor(left_plan)
        df_right = distribution_factor(right_plan)
        # Section 5.1.3: never build the hash table on shipped data.  When
        # exactly one input is a local partition (df > 1), the build side
        # must be that input; the commuted H* operator is how the planner
        # reaches the swapped orientation.
        if not (df_right == 1.0 and df_left > 1.0):
            hash_join = PhysHashJoin(
                left_plan, right_plan, pairs, residual, node.join_type, out_dist
            )
            hash_cost = self._cost.hash_join(
                left_plan.rows_est, right_plan.rows_est, right_plan.width,
                df_right,
            )
            alternatives.append(hash_join.costed(rows, hash_cost))

        if node.join_type is JoinType.INNER and not (
            df_left == 1.0 and df_right > 1.0
        ):
            # Section 5.1.3's H*: the commuted hash join that builds on the
            # (possibly cheaper) other side; a projection restores the
            # output column order.
            star = PhysHashJoin(
                right_plan, left_plan,
                [(rk, lk) for lk, rk in pairs],
                _swap_sides(residual, left_width, right_width)
                if residual is not None
                else None,
                node.join_type,
                _swap_distribution(out_dist, left_width, right_width),
            )
            star_cost = self._cost.hash_join(
                right_plan.rows_est, left_plan.rows_est, left_plan.width,
                df_left,
            )
            star.costed(rows, star_cost)
            restore = self._restore_refs.get((left_width, right_width))
            if restore is None:
                restore = self._restore_refs[left_width, right_width] = [
                    ColRef(right_width + i) for i in range(left_width)
                ] + [ColRef(i) for i in range(right_width)]
            project_cost = self._cost.project(
                rows, node.width, distribution_factor(star)
            )
            alternatives.append(
                PhysProject(star, restore, node.fields).costed(
                    rows, project_cost
                )
            )
        return alternatives

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
