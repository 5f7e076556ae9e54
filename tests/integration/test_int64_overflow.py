"""Integer arithmetic past int64 gives the row path's Python ints.

The columnar backend computes ``+ - *``, negation and ``abs`` in int64,
which wraps silently; the row backend and the reference executor use
Python ints, which grow, and divide once-rounded.  Where an int64 result
would leave int64, or a division's ints lie past ``2**53``, the
columnar backend evaluates that expression row-wise, so with
``verify_execution`` both backends return the same rows.  Bool operands
are Python ints too (``True + True == 2``, ``-True == -1``), which numpy
arithmetic on bool arrays is not.
"""

import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.tpch import load_tpch_cluster
from repro.common.config import PRESETS
from repro.core.cluster import QueryStatus
from repro.exec.columnar import _wraps

BIG = 1 << 63

#: statement -> its first three rows (nation keys 0, 1, 2) on both backends.
STATEMENTS = {
    "select 9223372036854775807 + 1 from nation": [(BIG,)] * 3,
    "select abs(-9223372036854775808) from nation": [(BIG,)] * 3,
    "select -(-9223372036854775807 - 1) from nation": [(BIG,)] * 3,
    "select n_nationkey * 4611686018427387904 from nation": [(0,), (BIG // 2,), (BIG,)],
    "select sum(n_nationkey * 4611686018427387904) from nation": [(float(300 * BIG // 2),)],
    "select n_nationkey - 9223372036854775807 - 3 from nation": [
        (-BIG - 2,), (-BIG - 1,), (-BIG,),
    ],
    "select -(n_nationkey = 1) from nation": [(0,), (-1,), (0,)],
    "select abs(n_nationkey = 1) from nation": [(0,), (1,), (0,)],
    "select (n_nationkey = 1) + (n_nationkey = 1) from nation": [(0,), (2,), (0,)],
    # Past 2**53 a float64 cast rounds the dividend before the division.
    "select 9007199254740993 / 3 from nation": [(3002399751580331.0,)] * 3,
}


@pytest.fixture(scope="module")
def clusters():
    return {
        backend: load_tpch_cluster(
            PRESETS["IC+"](4).with_(execution_backend=backend, verify_execution=True),
            0.01,
        )
        for backend in ("row", "columnar")
    }


@pytest.mark.parametrize("sql", sorted(STATEMENTS))
def test_integer_results_do_not_wrap(clusters, sql):
    want = [[(type(v), v) for v in row] for row in STATEMENTS[sql]]
    for backend, cluster in clusters.items():
        outcome = cluster.try_sql(sql)  # raises ResultMismatchError on a divergence
        assert outcome.status is QueryStatus.OK, backend
        rows = outcome.result.rows[:3]
        assert [[(type(v), v) for v in row] for row in rows] == want, backend


INT64 = st.integers(-BIG, BIG - 1) | st.integers(-100, 100)
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


@given(
    op=st.sampled_from(sorted(OPS)),
    pairs=st.lists(st.tuples(INT64, INT64), min_size=1, max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_wraps_flags_every_overflow_and_passes_what_fits(op, pairs):
    """``_wraps`` is never False when a row's exact result leaves int64
    (it may be True when none does: the bounds are the operands')."""
    left, right = (np.array(side, dtype=np.int64) for side in zip(*pairs))
    exact = [OPS[op](a, b) for a, b in pairs]
    if not _wraps(OPS[op], left, right):
        with np.errstate(over="ignore"):
            assert OPS[op](left, right).tolist() == exact
    if any(not -BIG <= v < BIG for v in exact):
        assert _wraps(OPS[op], left, right)
