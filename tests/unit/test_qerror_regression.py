"""Regression tests pinning cardinality-estimate quality via q-error.

The Section 4.1 fix replaces Ignite's legacy join-size estimate (which
collapses to 1 row whenever an input looks small) with the Swami-Schiefer
estimate (Eq. 3): ``|A| * |B| / max(d_A, d_B)``.  These tests pin both
formulas and verify, on a known join, that the fixed estimator's
per-operator q-error stays small where the legacy one is badly wrong.
"""

import pytest

from repro.bench.tpch import load_tpch_cluster
from repro.common.config import SystemConfig
from repro.obs.metrics import q_error
from repro.stats.estimator import (
    LEGACY_SMALL_INPUT,
    legacy_join_size,
    swami_schiefer_join_size,
)

pytestmark = pytest.mark.obs

#: A primary-key lookup joined against the full orders table: the classic
#: small-input case where the legacy estimator collapses to 1 row.
SMALL_INPUT_JOIN = (
    "select o.o_orderkey from orders o, customer c "
    "where o.o_custkey = c.c_custkey and c.c_custkey = 7"
)


def test_eq3_formula_pinned():
    # |A| * |B| / max(d_A, d_B)
    assert swami_schiefer_join_size(1000, 500, 100, 50) == 5000.0
    assert swami_schiefer_join_size(1000, 500, 50, 100) == 5000.0
    # missing distinct counts default to 1 (no division blow-up)
    assert swami_schiefer_join_size(10, 10, None, None) == 100.0
    # floored at one row
    assert swami_schiefer_join_size(1, 1, 1000, 1000) == 1.0


def test_legacy_small_input_collapse_pinned():
    # healthy inputs: behaves like Eq. 3
    assert legacy_join_size(1000, 500, 100, 50) == 5000.0
    # the defect: any small input collapses the whole estimate to 1
    assert legacy_join_size(LEGACY_SMALL_INPUT, 10_000, 100, 100) == 1.0
    assert legacy_join_size(10_000, 1.0, 100, 100) == 1.0


def test_eq3_beats_legacy_on_known_join():
    """On customer(pk lookup) |x| orders, Eq. 3 tracks the actual rows.

    The legacy estimator predicts 1 row for the join (q-error == actual
    row count); Eq. 3 predicts |orders| / d(o_custkey)-ish and lands
    within a small factor.  Executed on both IC (legacy) and IC+ (fixed)
    so the pin covers the whole planner stack, not just the formula.
    """
    ic = load_tpch_cluster(SystemConfig.ic(4), 0.05)
    fixed = load_tpch_cluster(SystemConfig.ic_plus(4), 0.05)
    legacy_result = ic.sql(SMALL_INPUT_JOIN)
    fixed_result = fixed.sql(SMALL_INPUT_JOIN)
    # same answer either way — estimation only steers the plan
    assert sorted(legacy_result.rows) == sorted(fixed_result.rows)
    actual = legacy_result.row_count
    assert actual == 18  # orders placed by customer 7 at SF 0.05
    # the legacy plan's worst operator is off by the full join size;
    # the fixed plan stays within a small constant
    assert legacy_result.max_q_error() == pytest.approx(actual)
    assert fixed_result.max_q_error() <= 5.0
    assert fixed_result.max_q_error() < legacy_result.max_q_error()


def test_explain_analyze_reports_per_operator_q_error():
    cluster = load_tpch_cluster(SystemConfig.ic_plus(4), 0.05)
    text = cluster.explain_analyze(SMALL_INPUT_JOIN)
    assert "q-err=" in text
    # every annotated operator line carries the actuals and the q-error
    for line in text.splitlines():
        if "actual rows=" in line:
            assert "q-err=" in line


def test_max_q_error_is_the_worst_operator():
    cluster = load_tpch_cluster(SystemConfig.ic(4), 0.05)
    result = cluster.sql(SMALL_INPUT_JOIN)
    # broadcast operators are excluded: their actuals sum every copy
    per_op = [
        q_error(op.rows_est, result.operator_actuals[op.op_id][0])
        for fragment in result.fragment_trees
        for op in fragment.operators()
        if op.op_id in result.operator_actuals
        and not (
            getattr(op, "distribution", None) is not None
            and op.distribution.is_broadcast
        )
    ]
    assert result.max_q_error() == max(per_op)
