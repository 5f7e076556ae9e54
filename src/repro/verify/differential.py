"""The oracle comparison: rows a query returned vs. the reference executor.

There is one statement pipeline (``IgniteCalciteCluster._run_statement``)
and therefore one thing to check: the rows it is about to return.
:func:`oracle_detail` runs the logical plan the pipeline already built
through :class:`ReferenceExecutor` (the single-node, single-threaded
oracle) and diffs the two results — it is the only place the library
constructs a ``ReferenceExecutor``.  Under
``SystemConfig.verify_execution`` the pipeline raises
:class:`ResultMismatchError` on a non-empty answer; the chaos harness
and the artefact benches record the same answer as a field.

Results are compared as multisets with floating point columns
canonicalised to six decimals, so partition-order-dependent summation
does not read as a divergence.  When the query's outermost operator is
an ORDER BY, the engine's row order is additionally checked against the
sort keys in the engine's own total order (multiset equality alone would
let a broken merge receiver slip through).

:func:`differential_check` is the continue-on-failure face for sweeps:
``try_sql`` on a ``verify_execution`` cluster, folded into a report.
Queries that fail in one of the *classified* ways (planning budget
exhausted, runtime limit, unsupported SQL, a fault the schedule
injected) are reported as skipped — those are modelled behaviours of the
system variant, not correctness bugs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from repro.common.errors import PlanInvariantError, ResultMismatchError
from repro.common.ordering import NullsLast
from repro.rel.logical import LogicalSort, RelNode
from repro.storage.store import DataStore
from repro.verify.invariants import Violation
from repro.verify.reference import ReferenceExecutor

if TYPE_CHECKING:  # the cluster imports this module
    from repro.core.cluster import IgniteCalciteCluster
    from repro.exec.engine import ExecutionResult

#: Statuses a differential check can end in.
OK = "ok"
MISMATCH = "mismatch"
INVARIANT = "invariant_violation"
SKIPPED = "skipped"


def oracle_detail(
    store: DataStore, logical: RelNode, rows: Sequence[Tuple]
) -> str:
    """How ``rows`` differ from the reference executor's answer to
    ``logical`` over ``store``; the empty string when they agree."""
    return compare_results(
        rows, ReferenceExecutor(store).execute(logical), logical
    )


@dataclass
class DifferentialReport:
    """Outcome of one differential check for one (sql, system) pair."""

    sql: str
    system: str
    status: str
    detail: str = ""
    violations: Tuple[Violation, ...] = ()
    result: Optional["ExecutionResult"] = None

    @property
    def ok(self) -> bool:
        return self.status == OK

    @property
    def skipped(self) -> bool:
        return self.status == SKIPPED


def differential_check(
    sql: str, cluster: "IgniteCalciteCluster"
) -> DifferentialReport:
    """``cluster.try_sql(sql)`` with its correctness checks reported
    instead of raised; ``cluster`` must run with ``verify_execution``.

    Whatever ``try_sql`` classifies is skipped, except the catch-all
    ``ERROR``: a query the library refused for no modelled reason (bad
    SQL from a generator, an engine defect) is re-raised, so a sweep
    cannot pass by failing to run anything.
    """
    from repro.core.cluster import QueryStatus

    if not cluster.config.verify_execution:
        raise ValueError("differential_check needs a verify_execution cluster")
    system = cluster.config.name
    try:
        outcome = cluster.try_sql(sql)
    except PlanInvariantError as exc:
        return DifferentialReport(
            sql, system, INVARIANT, str(exc), exc.violations
        )
    except ResultMismatchError as exc:
        return DifferentialReport(sql, system, MISMATCH, exc.detail)
    if outcome.succeeded:
        return DifferentialReport(sql, system, OK, result=outcome.result)
    if outcome.status is QueryStatus.ERROR:
        raise outcome.error
    return DifferentialReport(
        sql, system, SKIPPED, f"{type(outcome.error).__name__}: {outcome.error}"
    )


# ---------------------------------------------------------------------------
# Result comparison
# ---------------------------------------------------------------------------


def canon_rows(rows: Iterable[Tuple]) -> List[Tuple]:
    """Rounded floats, the repo's differential convention: plans that sum
    doubles in a different order differ in the last bits, not in truth."""
    return [
        tuple(
            round(value, 6) if isinstance(value, float) else value
            for value in row
        )
        for row in rows
    ]


def compare_results(
    engine_rows: Sequence[Tuple],
    reference_rows: Sequence[Tuple],
    logical: Optional[RelNode] = None,
) -> str:
    """Empty string when results agree; otherwise a human-readable diff.

    Results are compared as multisets of canonicalised rows.  When the
    logical plan's outermost operator is a Sort, the engine rows must also
    respect the requested ordering (ties may legitimately differ).
    """
    engine_canon = canon_rows(engine_rows)
    reference_canon = canon_rows(reference_rows)
    problems: List[str] = []
    if len(engine_canon) != len(reference_canon):
        problems.append(
            f"row count: engine={len(engine_canon)} "
            f"reference={len(reference_canon)}"
        )
    engine_multiset = Counter(engine_canon)
    reference_multiset = Counter(reference_canon)
    if engine_multiset != reference_multiset:
        extra = list((engine_multiset - reference_multiset).elements())[:3]
        missing = list((reference_multiset - engine_multiset).elements())[:3]
        if extra:
            problems.append(f"engine-only rows (sample): {extra}")
        if missing:
            problems.append(f"reference-only rows (sample): {missing}")
        if not extra and not missing:  # pragma: no cover - defensive
            problems.append("multiset mismatch")
    if (
        not problems
        and isinstance(logical, LogicalSort)
        and logical.sort_keys
        and not _respects_order(engine_canon, logical.sort_keys)
    ):
        problems.append(
            f"engine rows do not respect ORDER BY keys {logical.sort_keys}"
        )
    return "; ".join(problems)


def _respects_order(
    rows: Sequence[Tuple], keys: Sequence[Tuple[int, bool]]
) -> bool:
    """Adjacent rows are in the engine's total order over ``keys``: NULLs
    last under ASC, first under DESC (:class:`NullsLast`)."""
    for previous, current in zip(rows, rows[1:]):
        for index, ascending in keys:
            a, b = NullsLast(previous[index]), NullsLast(current[index])
            if a == b:
                continue
            if not (a < b if ascending else b < a):
                return False
            break
    return True
