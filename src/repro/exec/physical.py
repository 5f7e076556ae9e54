"""Physical relational operators: the execution-engine side of the plan.

Physical operators are logical operators with *traits* (Section 3.1):
every node here carries a :class:`Distribution` (Section 3.2.2) and a
:class:`Collation`.  The physical planner (:mod:`repro.planner.physical`)
chooses among them by cost; the execution engine
(:mod:`repro.exec.engine`) interprets them over real partitions.

Each node stores the planner's estimated row count (``rows_est``) and its
self cost (``self_cost``), mirroring Ignite's per-operator ``getSelfCost``.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Sequence, Tuple

from repro.common.errors import PlannerError
from repro.cost.model import Cost, ZERO_COST
from repro.rel.expr import ColRef, Expr
from repro.rel.logical import AggCall, JoinType, RelNode, ScanColumns
from repro.rel.traits import Collation, Distribution, EMPTY_COLLATION


class CostedSubtree:
    """What the planner reads of a subtree, derived one way for a built
    :class:`PhysNode` and for a priced alternative that becomes one only
    if it wins (:mod:`repro.planner.physical`), so the two agree bit for
    bit: Algorithm 2's two questions, answered at construction from the
    (already final) ``inputs``, and the cumulative cost, summed once by
    :meth:`costed`."""

    __slots__ = ()

    #: Exchanges set this; Algorithm 2 looks for it.
    is_exchange = False

    def _derive(self) -> None:
        has_exchange = self.is_exchange
        sites = None
        for child in self.inputs:
            has_exchange = has_exchange or child.has_exchange
            if sites is None or child.leaf_partition_sites < sites:
                sites = child.leaf_partition_sites
        #: An exchange occurs somewhere in this subtree (this node included).
        self.has_exchange: bool = has_exchange
        #: Smallest partition-site count among the subtree's leaves (scans
        #: set their own; any other leaf counts as one site).
        self.leaf_partition_sites: int = 1 if sites is None else sites
        self._rows_est: float = 1.0
        self._self_cost: Cost = ZERO_COST
        self._total_cost: Optional[Cost] = None

    @property
    def rows_est(self) -> float:
        """The planner's estimated output row count (set by :meth:`costed`)."""
        return self._rows_est

    @property
    def self_cost(self) -> Cost:
        """This operator's own cost, Ignite's ``getSelfCost``."""
        return self._self_cost

    def costed(self, rows_est: float, self_cost: Cost = ZERO_COST):
        """Fix the estimate and self cost, once, and sum the cumulative
        cost (Eq. 1) from them: self first, then the inputs left to right.
        Returns ``self``."""
        if self._total_cost is not None:
            raise PlannerError(
                f"{type(self).__name__} is already costed; build a new node "
                "(copy()) instead of re-costing one whose cumulative cost "
                "may have been read"
            )
        total = self_cost
        for child in self.inputs:
            total = total + child.total_cost()
        self._rows_est = rows_est
        self._self_cost = self_cost
        self._total_cost = total
        return self

    def total_cost(self) -> Cost:
        """Cumulative cost of the subtree, as :meth:`costed` summed it.

        Reading it on a node that was never costed fixes that node at its
        defaults (one row, zero self cost).
        """
        total = self._total_cost
        if total is None:
            total = self.costed(self._rows_est, self._self_cost)._total_cost
        return total


class PhysNode(CostedSubtree, RelNode):
    """Base class for physical operators.

    A node is built bottom-up and never changes afterwards: its exchange
    flag and leaf partition sites are derived at construction and its
    cumulative cost by :meth:`costed` (see :class:`CostedSubtree`).  The
    planner prices alternatives without building them and builds only
    the winner, so a node exists only for a subtree some plan keeps.
    Rewrites go through :meth:`copy`, which carries the estimate and self
    cost over and derives everything else afresh from the new inputs.
    """

    #: The fragments this node was cut into as the root of an executed
    #: plan: derived by ``ExecutionEngine._prepare`` on the first
    #: execution and kept, like the cumulative cost, because neither the
    #: tree nor how it fragments changes afterwards.
    prepared_fragments: Optional[list] = None

    def __init__(
        self,
        inputs: Sequence["PhysNode"],
        fields: Sequence[str],
        distribution: Distribution,
        collation: Collation = EMPTY_COLLATION,
    ):
        RelNode.__init__(self, inputs, fields)
        self.distribution = distribution
        self.collation = collation
        self._derive()

    def copy(self, inputs: Sequence[RelNode]) -> "PhysNode":
        """Clone over new inputs, carrying the estimate and self cost.

        The clone's cumulative cost, exchange flag, leaf sites and digest
        are its own, derived from ``inputs`` — never the original's.
        """
        return self._clone(inputs).costed(self._rows_est, self._self_cost)

    def _clone(self, inputs: Sequence[RelNode]) -> "PhysNode":
        """Same operator parameters over ``inputs``, not yet costed."""
        raise NotImplementedError

    def _traits(self) -> str:
        parts = [str(self.distribution)]
        if self.collation.is_sorted:
            parts.append(str(self.collation))
        return ", ".join(parts)

    def _explain_self(self) -> str:
        return (
            f"{type(self).__name__}[{self._traits()}]"
            f"(rows~{self.rows_est:.0f})"
        )


class PhysTableScan(ScanColumns, PhysNode):
    """Full scan of a base table's local partitions.

    For adapter-backed tables the scan may carry pushed-down work (see
    :class:`repro.rel.logical.LogicalTableScan`): a predicate over the
    original full-width row, a projection to a subset of original column
    positions, and/or a per-partition row-prefix cap.  Absent pushdown the
    digest and EXPLAIN output are byte-identical to the historical form.
    """

    def __init__(
        self,
        table: str,
        alias: str,
        fields: Sequence[str],
        distribution: Distribution,
        partition_site_count: int,
        pushed_filter: Optional[Expr] = None,
        pushed_project: Optional[Sequence[int]] = None,
        pushed_fetch: Optional[int] = None,
    ):
        super().__init__((), fields, distribution)
        self.table = table
        self.alias = alias
        self.partition_site_count = partition_site_count
        self.leaf_partition_sites = partition_site_count
        self.pushed_filter = pushed_filter
        self.pushed_project = (
            tuple(pushed_project) if pushed_project is not None else None
        )
        self.pushed_fetch = pushed_fetch

    def _clone(self, inputs: Sequence[RelNode]) -> "PhysTableScan":
        return PhysTableScan(
            self.table, self.alias, self.fields, self.distribution,
            self.partition_site_count,
            pushed_filter=self.pushed_filter,
            pushed_project=self.pushed_project,
            pushed_fetch=self.pushed_fetch,
        )

    def pushdown_digest(self) -> str:
        extras = []
        if self.pushed_filter is not None:
            extras.append(f"filter={self.pushed_filter.digest()}")
        if self.pushed_project is not None:
            extras.append(f"project={list(self.pushed_project)}")
        if self.pushed_fetch is not None:
            extras.append(f"fetch={self.pushed_fetch}")
        if not extras:
            return ""
        return ", pushed[" + ", ".join(extras) + "]"

    def _build_digest(self) -> str:
        return (
            f"PScan({self.table}/{self.alias}{self.pushdown_digest()})"
            f"[{self._traits()}]"
        )

    def _explain_self(self) -> str:
        return (
            f"PhysTableScan[{self._traits()}](table={self.table}, "
            f"alias={self.alias}{self.pushdown_digest()}, "
            f"rows~{self.rows_est:.0f})"
        )


class PhysIndexScan(ScanColumns, PhysNode):
    """Index-ordered scan; provides a collation without a Sort.

    The Q14 anecdote (Section 6.2.1) rides on this: an index scan with the
    right sort order turns hash aggregation into sort-based aggregation on
    already-sorted input, eliminating an intermediate sort.

    Optional ``low``/``high`` bounds prune the scan to a key range on the
    index's leading column (inclusive on both ends unless the
    corresponding ``*_inclusive`` flag is cleared) — the access path a
    sargable predicate buys.  ``bound_condition`` is that predicate as the
    planner met it, over the scan's output row: the conjuncts the bounds
    were read from.  Operator signatures and mid-query re-planning take the
    absorbed predicate from there, never back out of ``low``/``high``; it
    says nothing the bounds do not, so it stays out of the digest and of
    EXPLAIN.
    """

    def __init__(
        self,
        table: str,
        alias: str,
        fields: Sequence[str],
        index_name: str,
        distribution: Distribution,
        collation: Collation,
        partition_site_count: int,
        low: Optional[object] = None,
        high: Optional[object] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        bound_condition: Optional[Expr] = None,
    ):
        super().__init__((), fields, distribution, collation)
        self.table = table
        self.alias = alias
        self.index_name = index_name
        self.partition_site_count = partition_site_count
        self.leaf_partition_sites = partition_site_count
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self.bound_condition = bound_condition

    @property
    def is_range_scan(self) -> bool:
        return self.low is not None or self.high is not None

    def _clone(self, inputs: Sequence[RelNode]) -> "PhysIndexScan":
        return PhysIndexScan(
            self.table, self.alias, self.fields, self.index_name,
            self.distribution, self.collation, self.partition_site_count,
            self.low, self.high, self.low_inclusive, self.high_inclusive,
            self.bound_condition,
        )

    def _build_digest(self) -> str:
        bounds = ""
        if self.is_range_scan:
            lo = "(" if not self.low_inclusive else "["
            hi = ")" if not self.high_inclusive else "]"
            bounds = f" {lo}{self.low!r}..{self.high!r}{hi}"
        return (
            f"PIndexScan({self.table}/{self.alias}/{self.index_name}"
            f"{bounds})[{self._traits()}]"
        )


class PhysFilter(PhysNode):
    def __init__(self, input_node: PhysNode, condition: Expr):
        super().__init__(
            (input_node,), input_node.fields,
            input_node.distribution, input_node.collation,
        )
        self.condition = condition

    @property
    def input(self) -> PhysNode:
        return self.inputs[0]  # type: ignore[return-value]

    def _clone(self, inputs: Sequence[RelNode]) -> "PhysFilter":
        (child,) = inputs
        return PhysFilter(child, self.condition)  # type: ignore[arg-type]

    def _build_digest(self) -> str:
        return f"PFilter({self.condition.digest()}, {self.inputs[0].digest()})"

    def _explain_self(self) -> str:
        return (
            f"PhysFilter[{self._traits()}](condition="
            f"{self.condition.digest()}, rows~{self.rows_est:.0f})"
        )


class PhysProject(PhysNode):
    def __init__(
        self, input_node: PhysNode, exprs: Sequence[Expr], names: Sequence[str]
    ):
        distribution, collation = project_traits(
            input_node.distribution, input_node.collation, passthrough(exprs)
        )
        super().__init__((input_node,), names, distribution, collation)
        self.exprs = tuple(exprs)

    @property
    def input(self) -> PhysNode:
        return self.inputs[0]  # type: ignore[return-value]

    def _clone(self, inputs: Sequence[RelNode]) -> "PhysProject":
        (child,) = inputs
        return PhysProject(child, self.exprs, self.fields)  # type: ignore[arg-type]

    def _build_digest(self) -> str:
        inner = ", ".join(e.digest() for e in self.exprs)
        return f"PProject([{inner}], {self.inputs[0].digest()})"


#: Synthetic hash key marking a distribution whose real keys were
#: projected away (see :func:`_degraded`).  The plan validator whitelists
#: this value when checking hash keys against operator widths.
DEGRADED_HASH_KEY = 999_999


def passthrough(exprs: Sequence[Expr]) -> Dict[int, int]:
    """Input column -> the first output position a projection of
    ``exprs`` passes it through to."""
    mapping: Dict[int, int] = {}
    for out_index, expr in enumerate(exprs):
        if isinstance(expr, ColRef) and expr.index not in mapping:
            mapping[expr.index] = out_index
    return mapping


def project_traits(
    distribution: Distribution, collation: Collation, mapping: Dict[int, int]
) -> Tuple[Distribution, Collation]:
    """The distribution and collation a projection keeps of its input's,
    given its :func:`passthrough` ``mapping``: hash keys and a collation
    prefix survive where a column is passed through; a hash whose keys
    were projected away degrades."""
    kept = distribution.remap(mapping.get)
    collation_keys = []
    for key, asc in collation.keys:
        if key not in mapping:
            break
        collation_keys.append((mapping[key], asc))
    return (
        kept if kept is not None else _degraded(distribution),
        Collation(tuple(collation_keys)),
    )


def _degraded(distribution: Distribution) -> Distribution:
    """Distribution after hash keys are projected away.

    The rows still live where they lived, but the hash property is no
    longer expressible over the output columns.  We conservatively keep a
    hash marker over a synthetic key so trait satisfaction fails and an
    exchange is forced when a specific placement is required.
    """
    if distribution.is_hash:
        return Distribution.hash((DEGRADED_HASH_KEY,))
    return distribution


class PhysJoinBase(PhysNode):
    """Common parts of the three join algorithms."""

    algorithm = "join"

    def __init__(
        self,
        left: PhysNode,
        right: PhysNode,
        condition: Optional[Expr],
        join_type: JoinType,
        distribution: Distribution,
        collation: Collation = EMPTY_COLLATION,
    ):
        if join_type.projects_right:
            fields = list(left.fields) + list(right.fields)
        else:
            fields = list(left.fields)
        super().__init__((left, right), fields, distribution, collation)
        self.condition = condition
        self.join_type = join_type

    @property
    def left(self) -> PhysNode:
        return self.inputs[0]  # type: ignore[return-value]

    @property
    def right(self) -> PhysNode:
        return self.inputs[1]  # type: ignore[return-value]

    def _build_digest(self) -> str:
        cond = self.condition.digest() if self.condition else "true"
        return (
            f"P{self.algorithm}({self.join_type.value}, {cond}, "
            f"{self.inputs[0].digest()}, {self.inputs[1].digest()})"
            f"[{self._traits()}]"
        )

    def _explain_self(self) -> str:
        cond = self.condition.digest() if self.condition else "true"
        return (
            f"{type(self).__name__}[{self._traits()}]"
            f"(type={self.join_type.value}, condition={cond}, "
            f"rows~{self.rows_est:.0f})"
        )


class PhysNestedLoopJoin(PhysJoinBase):
    """Nested-loop join: the only algorithm for arbitrary conditions."""

    algorithm = "NestedLoopJoin"

    def _clone(self, inputs: Sequence[RelNode]) -> "PhysNestedLoopJoin":
        left, right = inputs
        return PhysNestedLoopJoin(
            left, right, self.condition, self.join_type, self.distribution,
            self.collation,
        )


class PhysMergeJoin(PhysJoinBase):
    """Merge join over inputs sorted on the equi keys."""

    algorithm = "MergeJoin"

    def __init__(
        self,
        left: PhysNode,
        right: PhysNode,
        pairs: Sequence[Tuple[int, int]],
        residual: Optional[Expr],
        join_type: JoinType,
        distribution: Distribution,
        collation: Collation = EMPTY_COLLATION,
    ):
        super().__init__(left, right, residual, join_type, distribution, collation)
        self.pairs = tuple(pairs)
        self.residual = residual

    def _clone(self, inputs: Sequence[RelNode]) -> "PhysMergeJoin":
        left, right = inputs
        return PhysMergeJoin(
            left, right, self.pairs, self.residual, self.join_type,
            self.distribution, self.collation,
        )

    def _build_digest(self) -> str:
        return (
            f"PMergeJoin({self.join_type.value}, {self.pairs}, "
            f"{self.residual.digest() if self.residual else 'true'}, "
            f"{self.inputs[0].digest()}, {self.inputs[1].digest()})"
            f"[{self._traits()}]"
        )


class PhysHashJoin(PhysJoinBase):
    """The Section 5.1.2 in-memory hash join: build right, probe left."""

    algorithm = "HashJoin"

    def __init__(
        self,
        left: PhysNode,
        right: PhysNode,
        pairs: Sequence[Tuple[int, int]],
        residual: Optional[Expr],
        join_type: JoinType,
        distribution: Distribution,
    ):
        super().__init__(left, right, residual, join_type, distribution)
        self.pairs = tuple(pairs)
        self.residual = residual

    def _clone(self, inputs: Sequence[RelNode]) -> "PhysHashJoin":
        left, right = inputs
        return PhysHashJoin(
            left, right, self.pairs, self.residual, self.join_type,
            self.distribution,
        )

    def _build_digest(self) -> str:
        return (
            f"PHashJoin({self.join_type.value}, {self.pairs}, "
            f"{self.residual.digest() if self.residual else 'true'}, "
            f"{self.inputs[0].digest()}, {self.inputs[1].digest()})"
            f"[{self._traits()}]"
        )


class PhysSort(PhysNode):
    """Sort (optionally with fetch/offset).  Distribution-preserving:
    partitions are sorted locally; a merging exchange recombines them in
    order.  ``offset`` is only ever set on a single-distribution sort —
    distributed plans pre-fetch ``fetch + offset`` rows locally and apply
    the offset once after the merge."""

    def __init__(
        self,
        input_node: PhysNode,
        keys: Sequence[Tuple[int, bool]],
        fetch: Optional[int] = None,
        offset: Optional[int] = None,
    ):
        super().__init__(
            (input_node,), input_node.fields,
            input_node.distribution, Collation(tuple(keys)),
        )
        self.keys = tuple(keys)
        self.fetch = fetch
        self.offset = offset

    @property
    def input(self) -> PhysNode:
        return self.inputs[0]  # type: ignore[return-value]

    def _clone(self, inputs: Sequence[RelNode]) -> "PhysSort":
        (child,) = inputs
        return PhysSort(  # type: ignore[arg-type]
            child, self.keys, self.fetch, self.offset
        )

    def _build_digest(self) -> str:
        extra = f", offset={self.offset}" if self.offset is not None else ""
        return (
            f"PSort({self.keys}, fetch={self.fetch}{extra}, "
            f"{self.inputs[0].digest()})[{self._traits()}]"
        )


class PhysLimit(PhysNode):
    def __init__(
        self,
        input_node: PhysNode,
        fetch: Optional[int],
        offset: Optional[int] = None,
    ):
        super().__init__(
            (input_node,), input_node.fields,
            input_node.distribution, input_node.collation,
        )
        self.fetch = fetch
        self.offset = offset

    @property
    def input(self) -> PhysNode:
        return self.inputs[0]  # type: ignore[return-value]

    def _clone(self, inputs: Sequence[RelNode]) -> "PhysLimit":
        (child,) = inputs
        return PhysLimit(  # type: ignore[arg-type]
            child, self.fetch, self.offset
        )

    def _build_digest(self) -> str:
        extra = f", offset={self.offset}" if self.offset is not None else ""
        return f"PLimit({self.fetch}{extra}, {self.inputs[0].digest()})"


class AggPhase(enum.Enum):
    """Which half of a map-reduce aggregation an operator performs.

    ``SINGLE`` computes final results in one pass (a *reduction operator*
    in the Section 5.3 sense, like ``REDUCE``); ``MAP`` emits partial
    states and is safe to run in variant fragments.
    """

    SINGLE = "single"
    MAP = "map"
    REDUCE = "reduce"

    @property
    def is_reduction(self) -> bool:
        return self in (AggPhase.SINGLE, AggPhase.REDUCE)


class PhysAggregateBase(PhysNode):
    def __init__(
        self,
        input_node: PhysNode,
        group_keys: Sequence[int],
        agg_calls: Sequence[AggCall],
        phase: AggPhase,
        distribution: Distribution,
        collation: Collation = EMPTY_COLLATION,
    ):
        fields = [input_node.fields[k] for k in group_keys]
        fields += [c.name for c in agg_calls]
        super().__init__((input_node,), fields, distribution, collation)
        self.group_keys = tuple(group_keys)
        self.agg_calls = tuple(agg_calls)
        self.phase = phase

    @property
    def input(self) -> PhysNode:
        return self.inputs[0]  # type: ignore[return-value]

    @property
    def is_reduction(self) -> bool:
        return self.phase.is_reduction

    def _build_digest(self) -> str:
        calls = ", ".join(c.digest() for c in self.agg_calls)
        return (
            f"{type(self).__name__}({self.phase.value}, "
            f"keys={list(self.group_keys)}, [{calls}], "
            f"{self.inputs[0].digest()})[{self._traits()}]"
        )

    def _explain_self(self) -> str:
        calls = ", ".join(c.digest() for c in self.agg_calls)
        return (
            f"{type(self).__name__}[{self._traits()}]"
            f"(phase={self.phase.value}, keys={list(self.group_keys)}, "
            f"calls=[{calls}], rows~{self.rows_est:.0f})"
        )


class PhysHashAggregate(PhysAggregateBase):
    def _clone(self, inputs: Sequence[RelNode]) -> "PhysHashAggregate":
        (child,) = inputs
        return PhysHashAggregate(
            child, self.group_keys, self.agg_calls, self.phase,
            self.distribution, self.collation,
        )


class PhysSortAggregate(PhysAggregateBase):
    """Aggregation over input sorted on the group keys."""

    def _clone(self, inputs: Sequence[RelNode]) -> "PhysSortAggregate":
        (child,) = inputs
        return PhysSortAggregate(
            child, self.group_keys, self.agg_calls, self.phase,
            self.distribution, self.collation,
        )


class PhysExchange(PhysNode):
    """Re-distributes its input (Section 3.2.2).

    During fragmentation (Alg. 1) every exchange splits into a sender (root
    of a new fragment) and a receiver (leaf of the current fragment).  A
    ``merge_keys`` collation makes the receiver merge pre-sorted partition
    streams instead of concatenating them.
    """

    is_exchange = True

    def __init__(
        self,
        input_node: PhysNode,
        distribution: Distribution,
        merge_keys: Collation = EMPTY_COLLATION,
    ):
        super().__init__(
            (input_node,), input_node.fields, distribution, merge_keys
        )

    @property
    def input(self) -> PhysNode:
        return self.inputs[0]  # type: ignore[return-value]

    def _clone(self, inputs: Sequence[RelNode]) -> "PhysExchange":
        (child,) = inputs
        return PhysExchange(child, self.distribution, self.collation)  # type: ignore[arg-type]

    def _build_digest(self) -> str:
        return (
            f"PExchange({self.distribution}, {self.inputs[0].digest()})"
            f"[{self._traits()}]"
        )


class PhysValues(PhysNode):
    def __init__(self, rows: Sequence[Tuple], names: Sequence[str]):
        super().__init__((), names, Distribution.broadcast())
        self.rows = tuple(tuple(r) for r in rows)

    def _clone(self, inputs: Sequence[RelNode]) -> "PhysValues":
        return PhysValues(self.rows, self.fields)

    def _build_digest(self) -> str:
        return f"PValues({self.rows!r})"


def walk_physical(node: RelNode):
    yield node
    for child in node.inputs:
        yield from walk_physical(child)
