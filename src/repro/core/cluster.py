"""The public facade: a simulated Ignite+Calcite cluster.

:class:`IgniteCalciteCluster` wires the whole composable stack together —
SQL parser, SQL-to-rel conversion, the two-stage planner, fragmentation and
the simulated distributed execution engine — behind the same surface a
user of the real system sees: DDL + load, then SQL in, rows out.

Three factory presets mirror the paper's systems under test::

    cluster = IgniteCalciteCluster.ic_plus(sites=8)
    cluster.create_table(schema, rows)
    result = cluster.sql("SELECT ...")
    result.rows, result.simulated_seconds

``sql`` and ``try_sql`` are two faces of one statement pipeline
(``_run_statement``: trace -> statement -> plan -> execute -> observe ->
verify), which returns a result or raises.  The statement stage is
parse -> dispatch on the statement kind -> sql2rel, except for a SELECT
whose exact text is in the plan cache — one cache keyed by statement
text: that one comes back as its logical plan, so a repeat skips parse
and sql2rel, and — its cached plan keeping the fragments it was cut into
(``PhysNode.prepared_fragments``) — planning and fragmentation too.  The
cache is read and filled only where it serves: never under tracing, a
fault schedule, EXPLAIN [ANALYZE] or DDL, and DDL clears it.
Under ``verify_execution`` the last stage diffs the rows about to be
returned — whatever plan produced them — against the reference executor
(:func:`repro.verify.differential.oracle_detail`).  ``sql`` is that
pipeline; ``try_sql`` adds only the classification of what was raised —
it never raises for a :class:`~repro.common.errors.ReproError` other
than a failed correctness check, and returns a :class:`QueryOutcome`
whose status records *how* a query failed (:data:`STATUS_BY_ERROR`),
which is what the benchmark harness consumes.
"""

from __future__ import annotations

import enum
import traceback
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.adaptive.cache import CacheEntry
from repro.adaptive.controller import AdaptiveController
from repro.common.config import SystemConfig
from repro.common.errors import (
    ExecutionTimeoutError,
    FaultError,
    PlannerDefectError,
    PlanningTimeoutError,
    ReproError,
    ResultMismatchError,
    UnsupportedSqlError,
    VerificationError,
)
from repro.faults.injector import FaultInjector
from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import ColumnType
from repro.exec.engine import ExecutionEngine, ExecutionResult
from repro.exec.physical import PhysNode
from repro.obs.trace import NULL_TRACER, Tracer, activate
from repro.planner.volcano import QueryPlanner
from repro.rel.logical import RelNode
from repro.rel.sql2rel import SqlToRelConverter
from repro.sql import ast as ast_module
from repro.sql.parser import parse
from repro.stats.sketch_registry import SketchRegistry
from repro.storage.store import DataStore
from repro.verify.differential import oracle_detail


#: SQL type name (as lexed, lower-case) -> catalog column type for
#: ``CREATE TABLE`` DDL.  Synonyms mirror common dialect spellings.
_SQL_COLUMN_TYPES = {
    "int": ColumnType.INTEGER,
    "integer": ColumnType.INTEGER,
    "bigint": ColumnType.BIGINT,
    "double": ColumnType.DOUBLE,
    "float": ColumnType.DOUBLE,
    "decimal": ColumnType.DECIMAL,
    "numeric": ColumnType.DECIMAL,
    "varchar": ColumnType.VARCHAR,
    "string": ColumnType.VARCHAR,
    "char": ColumnType.CHAR,
    "date": ColumnType.DATE,
    "boolean": ColumnType.BOOLEAN,
}


class QueryStatus(enum.Enum):
    OK = "ok"
    UNSUPPORTED = "unsupported"        # e.g. SQL VIEWs (TPC-H Q15)
    PLANNING_FAILED = "planning_failed"  # budget exhausted (Q2/Q5/Q9 on IC)
    PLANNER_DEFECT = "planner_defect"    # the unresolved Q20 bug
    TIMEOUT = "timeout"                  # runtime limit (Q17/Q19/Q21 on IC)
    ERROR = "error"
    # -- resilience taxonomy (repro.faults) --------------------------------
    #: A site failure (or lost exchange / OOM-killed fragment) killed the
    #: attempt and failover re-dispatch could not absorb it.
    FAILED_SITE = "failed_site"
    #: Alias of TIMEOUT: the work-unit budget or the per-query deadline
    #: was exhausted before the query completed.
    TIMED_OUT = "timeout"
    #: The query succeeded but only after >= 1 retry.
    RETRIED = "retried"
    #: The query succeeded in one attempt but at reduced strength: dead
    #: sites at start and/or tasks re-dispatched after a mid-flight crash.
    DEGRADED = "degraded"
    # -- serving taxonomy (repro.serve) ------------------------------------
    #: Admission control refused the query: the run queue was full at
    #: arrival, or the request was shed after waiting past its deadline.
    #: The query never executed (and never will without resubmission).
    REJECTED = "rejected"


#: How ``try_sql`` classifies what the pipeline raised: the first
#: matching class wins, so subclasses sit above their bases (every
#: injected fault is a ``FaultError``, ``QueryDeadlineError`` an
#: ``ExecutionTimeoutError``).  ``VerificationError`` is absent on
#: purpose: a failed correctness check is a defect in the system, not an
#: outcome of the query, and always escapes.
STATUS_BY_ERROR: Tuple[Tuple[type, QueryStatus], ...] = (
    (FaultError, QueryStatus.FAILED_SITE),
    (ExecutionTimeoutError, QueryStatus.TIMED_OUT),
    (UnsupportedSqlError, QueryStatus.UNSUPPORTED),
    (PlannerDefectError, QueryStatus.PLANNER_DEFECT),
    (PlanningTimeoutError, QueryStatus.PLANNING_FAILED),
    # User errors (unknown tables/columns, syntax) and anything else the
    # library raises on purpose — not one of the paper's systemic failure
    # modes, but the harness should not crash on them either.
    (ReproError, QueryStatus.ERROR),
)


@dataclass
class QueryOutcome:
    """Result of ``try_sql``: either rows or a classified failure."""

    status: QueryStatus
    result: Optional[ExecutionResult] = None
    error: Optional[ReproError] = None
    #: The plan came out of the plan cache (whether or not it then ran to
    #: completion): Hep + Volcano skipped, zero budget ticks spent.
    plan_cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status is QueryStatus.OK

    @property
    def succeeded(self) -> bool:
        """The query produced rows, possibly degraded or after retries."""
        return self.result is not None

    @property
    def simulated_seconds(self) -> float:
        if self.result is None:
            raise RuntimeError(f"query did not complete: {self.status.value}")
        return self.result.simulated_seconds

    @property
    def rows(self) -> List[Tuple]:
        if self.result is None:
            raise RuntimeError(f"query did not complete: {self.status.value}")
        return self.result.rows


class IgniteCalciteCluster:
    """A simulated Ignite cluster using Calcite-style query planning."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.store = DataStore(
            site_count=config.sites,
            partitions_per_table=config.partitions_per_table,
        )
        #: Sketch-based statistics (None unless ``config.sketch_statistics``):
        #: table-level sketches consulted by the estimator, operator-level
        #: HLLs refreshed by the engine at fragment seams.
        self.sketches = SketchRegistry.from_config(config, self.store)
        self._engine = ExecutionEngine(self.store, config, sketches=self.sketches)
        #: The fault injector behind ``config.faults`` (the empty schedule
        #: when fault-free).  Shared by every query on this cluster so
        #: one-shot faults fire exactly once per schedule entry.
        self.fault_injector = FaultInjector(config.faults)
        #: Trace of the most recent ``sql``/``try_sql`` call.  The inert
        #: :data:`~repro.obs.trace.NULL_TRACER` unless ``config.tracing``.
        self.last_trace: Tracer = NULL_TRACER
        #: Plan cache + cardinality-feedback coordinator (None unless the
        #: config enables ``plan_cache`` / ``cardinality_feedback``).
        self.adaptive = AdaptiveController.from_config(config)

    # -- presets --------------------------------------------------------------

    @staticmethod
    def ic(sites: int = 4, **overrides) -> "IgniteCalciteCluster":
        return IgniteCalciteCluster(SystemConfig.ic(sites, **overrides))

    @staticmethod
    def ic_plus(sites: int = 4, **overrides) -> "IgniteCalciteCluster":
        return IgniteCalciteCluster(SystemConfig.ic_plus(sites, **overrides))

    @staticmethod
    def ic_plus_m(
        sites: int = 4, threads: int = 2, **overrides
    ) -> "IgniteCalciteCluster":
        return IgniteCalciteCluster(
            SystemConfig.ic_plus_m(sites, threads, **overrides)
        )

    # -- DDL / load -------------------------------------------------------------

    def create_table(self, schema: TableSchema, rows: Sequence[Tuple]) -> None:
        self.store.create_table(schema, rows)
        self._invalidate_plans()

    def _ddl_create_table(self, statement: ast_module.CreateTable) -> None:
        """Register an empty table from a parsed ``CREATE TABLE``.

        The ``USING`` clause routes storage to a registered adapter; the
        PRIMARY KEY clause (or its first-column default) decides the
        affinity key exactly as programmatic DDL does.
        """
        columns = []
        for column_name, type_name in statement.columns:
            try:
                column_type = _SQL_COLUMN_TYPES[type_name]
            except KeyError:
                raise UnsupportedSqlError(
                    f"unknown column type {type_name!r}"
                ) from None
            columns.append(Column(column_name, column_type))
        schema = TableSchema(
            statement.name,
            columns,
            statement.primary_key or [columns[0].name],
            adapter=statement.adapter or "native",
        )
        self.create_table(schema, [])

    def drop_table(self, name: str) -> None:
        """Drop a table and invalidate everything keyed off its identity.

        Cached plans (and their compiled pushdowns), cardinality feedback
        and sketch estimates all assume the dropped table's adapter,
        placement and contents — a later same-named table may differ in
        all three, so the caches must not survive the drop.
        """
        self.store.drop_table(name)
        self._invalidate_plans()

    def create_index(
        self, table: str, index_name: str, columns: Sequence[str]
    ) -> None:
        self.store.create_index(table, index_name, columns)
        self._invalidate_plans()

    def _invalidate_plans(self) -> None:
        """DDL changed what plans (and observed cardinalities) mean."""
        if self.adaptive is not None:
            self.adaptive.invalidate()
        if self.sketches is not None:
            self.sketches.invalidate()

    # -- planning --------------------------------------------------------------------

    def _to_logical(self, select: ast_module.Select) -> RelNode:
        return SqlToRelConverter(self.store.catalog).convert(select)

    def parse_to_logical(self, sql: str) -> RelNode:
        statement = parse(sql)
        if isinstance(statement, ast_module.CreateTable):
            raise UnsupportedSqlError(
                "DDL statements have no logical plan; use sql() or try_sql()"
            )
        return self._to_logical(statement)

    def plan_sql(self, sql: str) -> PhysNode:
        return self._plan(self.parse_to_logical(sql), None, sql)[0]

    def explain(self, sql: str) -> str:
        """The optimised physical plan, rendered for humans."""
        return self.plan_sql(sql).explain()

    def explain_analyze(self, sql: str) -> str:
        """Execute ``sql`` and render the plan annotated with actual row
        counts, work units and per-operator q-error (estimated vs actual,
        both floored at one row)."""
        result = self.sql(f"explain analyze {sql}")
        return "\n".join(row[0] for row in result.rows)

    # -- the statement pipeline ---------------------------------------------------

    def _run_statement(
        self, sql: str, at: float, outcome: QueryOutcome
    ) -> ExecutionResult:
        """The one path from SQL text to a result; returns it or raises.

        ``outcome`` is the per-query record: the pipeline notes on it what
        must be known whichever way it exits (``plan_cached``).
        """
        tracer = Tracer() if self.config.tracing else NULL_TRACER
        self.last_trace = tracer
        with activate(tracer), tracer.span("query", system=self.config.name):
            # The adaptive layer's exclusions, decided here and nowhere
            # else.  Traced queries, and EXPLAIN [ANALYZE] once parsed,
            # stay out of it entirely, so golden snapshots and traces are
            # bit-identical with the flags on.  Under a fault schedule
            # nothing is served, stored or observed (chaos replays stay
            # deterministic), but the completed prefix of a failed attempt
            # still feeds feedback: planning under faults never reads it,
            # and later fault-free queries benefit.
            adaptive = None if self.config.tracing else self.adaptive
            serving = None if self.fault_injector.schedule else adaptive
            # The statement stage: a SELECT whose exact text is cached
            # comes back as its logical plan.  DDL and EXPLAIN are never
            # cached, so their text always misses.
            entry = serving.lookup(sql) if serving is not None else None
            if entry is None:
                with tracer.span("parse"):
                    statement = parse(sql)
                    tracer.advance(1.0)  # parsing is one budget tick
                if isinstance(statement, ast_module.CreateTable):
                    self._ddl_create_table(statement)
                    return ExecutionResult([], [])
                explain = isinstance(statement, ast_module.Explain)
                if explain:
                    adaptive = serving = None
                logical = self._to_logical(statement.select if explain else statement)
            else:
                explain, logical = False, entry.logical
            plan, outcome.plan_cached = self._plan(logical, serving, sql, entry)
            if explain and not statement.analyze:
                return _text_result(plan.explain())
            try:
                result = self.execute_plan(plan, at=at)
            except (FaultError, ExecutionTimeoutError) as exc:
                if adaptive is not None:
                    adaptive.harvest_partial(exc.partial)
                raise
            if serving is not None:
                serving.observe(sql, result)
            if explain:
                # EXPLAIN ANALYZE costs what the query itself cost.
                return _text_result(result.explain_analyze(), base=result)
            if self.config.verify_execution:
                # The rows about to be returned, from the plan that ran:
                # cached or fresh, re-planned mid-query, on surviving sites.
                detail = oracle_detail(self.store, logical, result.rows)
                if detail:
                    raise ResultMismatchError(
                        f"engine/reference divergence on {self.config.name}",
                        sql=sql,
                        detail=detail,
                    )
            return result

    def _plan(
        self,
        logical: RelNode,
        adaptive: Optional[AdaptiveController],
        sql: str,
        entry: Optional[CacheEntry] = None,
    ) -> Tuple[PhysNode, bool]:
        """``(physical plan, served from the cache)`` for the logical plan
        of ``sql`` — through the plan cache and with feedback-corrected
        cardinalities when ``adaptive`` is given, straight from the
        planner otherwise.  ``entry`` is what the cache holds for ``sql``."""
        feedback = None
        if adaptive is not None:
            feedback = adaptive.feedback
            plan = adaptive.serve(entry)
            if plan is not None:
                return plan, True
        planner = QueryPlanner(
            self.store, self.config, feedback=feedback, sketches=self.sketches
        )
        plan = planner.plan(logical)
        if adaptive is not None:
            adaptive.store(sql, logical, plan)
        return plan, False

    # -- execution ----------------------------------------------------------------------

    def execute_plan(self, plan: PhysNode, at: float = 0.0) -> ExecutionResult:
        """Execute ``plan``; ``at`` is its submission time on the chaos
        clock (only meaningful when the config carries a fault schedule)."""
        return self._engine.execute(plan, injector=self.fault_injector, at=at)

    def sql(self, sql: str) -> ExecutionResult:
        """Plan and execute; raises on any failure."""
        return self._run_statement(sql, 0.0, QueryOutcome(QueryStatus.OK))

    def try_sql(self, sql: str, at: float = 0.0) -> QueryOutcome:
        """Plan and execute, classifying the paper's failure modes.

        Exactly :meth:`sql` (views, DDL, EXPLAIN, ``verify_execution``
        included) except that a :class:`ReproError` comes back as a status
        (:data:`STATUS_BY_ERROR`).  Under a fault schedule, ``at`` places
        the attempt on the chaos clock; failures caused by injected faults
        classify as ``FAILED_SITE`` and a degraded-but-correct completion
        as ``DEGRADED``.
        """
        outcome = QueryOutcome(QueryStatus.OK)
        try:
            outcome.result = self._run_statement(sql, at, outcome)
        except VerificationError:
            raise
        except ReproError as exc:
            _clear_frames(exc)
            outcome.status, outcome.error = classify(exc), exc
        else:
            if outcome.result.degraded:
                outcome.status = QueryStatus.DEGRADED
        return outcome


def _clear_frames(exc: Optional[BaseException]) -> None:
    """Hold on to nothing but the exception: its traceback, and its
    cause's, keep each frame's locals alive (the input rows of the
    operator that timed out, say) as long as the outcome lives."""
    while exc is not None:
        traceback.clear_frames(exc.__traceback__)
        exc = exc.__cause__


def classify(exc: ReproError) -> QueryStatus:
    """The :data:`STATUS_BY_ERROR` row for ``exc``."""
    return next(
        status for cls, status in STATUS_BY_ERROR if isinstance(exc, cls)
    )


def _text_result(text: str, base: Optional[ExecutionResult] = None) -> ExecutionResult:
    """Rendered explain text as the rows of a one-column ``PLAN`` result.

    The rows replace those of ``base``, the inner EXPLAIN ANALYZE
    execution, so the statement costs what the query itself cost and
    harnesses account for the work actually done.
    """
    return replace(
        base or ExecutionResult([], []),
        fields=["PLAN"],
        rows=[(line,) for line in text.splitlines()],
    )
