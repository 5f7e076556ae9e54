"""Exception hierarchy for the Ignite+Calcite reproduction.

The paper (Section 1, Section 6) distinguishes several failure modes of the
baseline system: unsupported SQL features (TPC-H Q15's VIEW), planner
exceptions (Q20), planner search-space exhaustion (Q2/Q5/Q9, SSB QS2/QS4)
and execution timeouts (Q17/Q19/Q21).  Each gets a dedicated exception so
tests and the benchmark harness can assert on the *kind* of failure, not
just on failure itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SqlError(ReproError):
    """Base class for errors in the SQL front end."""


class SqlSyntaxError(SqlError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if self.line:
            return f"{base} (at line {self.line}, column {self.column})"
        return base


class UnsupportedSqlError(SqlError):
    """A recognised but unsupported SQL feature was used.

    Mirrors Ignite+Calcite rejecting SQL VIEWs (the reason TPC-H Q15 is
    disabled in the paper's evaluation).
    """


class ValidationError(SqlError):
    """The query referenced unknown tables/columns or was ill-typed."""


class PlannerError(ReproError):
    """Base class for failures inside the query planner."""


class PlanningTimeoutError(PlannerError):
    """The planner exhausted its rule-application budget.

    This is the analogue of Calcite exceeding its computation-time or
    resource limit, which the paper reports for TPC-H Q2/Q5/Q9 under
    single-phase optimisation and for SSB QS2/QS4 (Section 4.3, 6.4).
    """

    def __init__(self, message: str, budget: int = 0, spent: int = 0):
        super().__init__(message)
        self.budget = budget
        self.spent = spent


class PlannerDefectError(PlannerError):
    """An unresolved defect in the planning code was triggered.

    The paper keeps TPC-H Q20 disabled because it "contained an unresolved
    bug in the planning code that caused the query planner to fail"; the
    reproduction raises this error for the same query shape.
    """


class ExecutionError(ReproError):
    """Base class for failures during plan execution."""

    #: ``(completed fragments, their operator actuals)``: the prefix that
    #: ran before this error, set by the engine when it raises mid-run (a
    #: query that times out on a bad plan is precisely the one whose true
    #: cardinalities matter most).  None when nothing had completed.
    partial = None


class ExecutionTimeoutError(ExecutionError):
    """Simulated execution time exceeded the configured runtime limit.

    Stands in for the paper's four-hour wall-clock limit that baseline
    nested-loop plans for Q17/Q19/Q21 exceeded.
    """

    def __init__(self, message: str, limit: float = 0.0, elapsed: float = 0.0):
        super().__init__(message)
        self.limit = limit
        self.elapsed = elapsed


class QueryDeadlineError(ExecutionTimeoutError):
    """The per-query deadline elapsed before the query completed.

    Unlike the work-unit runtime limit (a property of the plan), the
    deadline is wall-clock simulated time and can be blown by transient
    conditions — contention, a slow site, failover re-execution — so the
    resilience layer treats it as retryable.
    """


class FaultError(ExecutionError):
    """Base class for failures caused by an injected (or modelled) fault."""


class SiteFailureError(FaultError):
    """A processing site died while it still held work for this query."""

    def __init__(self, message: str, site: int = -1, at: float = 0.0):
        super().__init__(message)
        self.site = site
        self.at = at


class ExchangeLostError(FaultError):
    """An exchange's row stream was dropped in flight."""

    def __init__(self, message: str, exchange_id: int = -1):
        super().__init__(message)
        self.exchange_id = exchange_id


class FragmentOomError(FaultError):
    """A fragment was OOM-killed mid-execution at one site."""

    def __init__(self, message: str, fragment_id: int = -1, site: int = -1):
        super().__init__(message)
        self.fragment_id = fragment_id
        self.site = site


class VerificationError(ReproError):
    """Base class for failures raised by the correctness harness."""


class PlanInvariantError(VerificationError):
    """A physical plan violated a structural invariant.

    Raised by :class:`repro.verify.invariants.PlanValidator` when a
    post-optimization plan breaks trait, wiring, schema or cost invariants
    that the planner/fragmenter contract guarantees.
    """

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class ResultMismatchError(VerificationError):
    """The distributed engine's result diverged from the reference oracle."""

    def __init__(self, message: str, sql: str = "", detail: str = ""):
        super().__init__(message)
        self.sql = sql
        self.detail = detail


class CatalogError(ReproError):
    """Schema/table registration problems (duplicate table, bad key, ...)."""


class StorageError(ReproError):
    """Low-level storage failures (bad partition, missing index, ...)."""
