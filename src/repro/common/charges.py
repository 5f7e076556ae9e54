"""The charge spec: every CPU work-unit formula, stated once.

Each function is pure in row counts: the rows an operator reads, the rows
it emits (``out``) and at most one detail only its implementation sees
(hash-bucket candidates tested).  Nothing else writes an expression over
``RPTC``/``RCC``/``HAC``:

* the operator shell (:func:`repro.exec.operators.run_operator`) charges
  *actual* counts after a handler returns, for both backends alike;
* :class:`repro.cost.model.CostModel` calls the same functions on
  *estimated* local counts with ``out``/detail left at zero — the same
  float expressions as ever (``x + 0.0 == x``; pinned by
  ``tests/golden/planner-ledger.json``), so planned and charged CPU cost
  differ exactly by the output and detail terms, and by merge join's
  run-time hashing term below;
* exchange senders (engine routing, mid-query temps) charge
  :func:`exchange`.
"""

from __future__ import annotations

import math

from repro.common.constants import HAC, RCC, RPTC

#: Per-row indirection premium of an index-ordered scan over a plain one.
INDEX_SCAN_PREMIUM = 1.1


def pass_through(rows: float) -> float:
    """Move every tuple through once: scans, VALUES, receivers, projects,
    and the rows a LIMIT consumes (the planner prices its whole input)."""
    return rows * RPTC


def index_scan(rows: float) -> float:
    return rows * RPTC * INDEX_SCAN_PREMIUM


def filter(rows: float) -> float:
    return rows * (RPTC + RCC)


def sort(rows: float) -> float:
    """Eq. 4-6's CPU term: one pass plus ``n log n`` comparisons."""
    return rows * RPTC + rows * math.log2(rows + 2.0) * RCC


def nested_loop_pairs(left: float, right: float) -> float:
    """The comparison term alone — what a nested-loop join pre-checks
    against the runtime limit before touching the cross product."""
    return left * right * RCC


def nested_loop_join(left: float, right: float, out: float = 0) -> float:
    return nested_loop_pairs(left, right) + (left + right + out) * RPTC


def hash_join(
    left: float, right: float, out: float = 0, tested: float = 0
) -> float:
    """Eq. 7: hash, compare and pass every build and probe row, then
    verify each bucket candidate ``tested`` and emit ``out``."""
    return (left + right) * (RCC + RPTC + HAC) + (tested * RCC + out * RPTC)


def merge_join(left: float, right: float) -> float:
    """Eq. 9, the *planner's* merge phase: a comparison and a pass per
    tuple, no hashing — what keeps ``MJ_CPU < H_CPU`` once both sorts are
    removed (Section 5.1.3)."""
    return (left + right) * (RCC + RPTC)


def merge_join_charged(left: float, right: float, out: float = 0) -> float:
    """What a merge join is *charged* at run time — the one place the two
    sides of the spec disagree: execution has always billed the hash
    join's per-row term (``+ HAC``), the planner Eq. 9's.  Both ledgers
    pin their side, so the gap is stated here rather than closed."""
    return (left + right) * (RCC + RPTC + HAC) + out * RPTC


def hash_aggregate(rows: float, groups: float = 0) -> float:
    return rows * (RPTC + HAC) + groups * RPTC


def sort_aggregate(rows: float, groups: float = 0) -> float:
    """Aggregation over sorted input: a comparison instead of a hash."""
    return rows * (RPTC + RCC) + groups * RPTC


def exchange(rows: float) -> float:
    """The sender's CPU term: serialise and deserialise every row (the
    network term is the cost model's / ``network_units_for``'s)."""
    return rows * 2.0 * RPTC
