"""An expression that fails on the values it meets is the query's error.

Dividing by zero, summing strings, or calling ``upper`` on a number used
to escape ``try_sql`` as a raw Python exception — from a projection, a
filter, an aggregate, a join key or a scalar subquery alike, on either
backend.  The operator shell turns each into an ``ExecutionError`` caused
by the original, so ``try_sql`` classifies it ``ERROR`` and ``sql``
raises it.
"""

import pytest

from repro.bench.tpch import load_tpch_cluster
from repro.common.config import PRESETS
from repro.common.errors import ExecutionError
from repro.core.cluster import QueryStatus

#: statement -> the Python exception the engine meets (row, columnar).
STATEMENTS = {
    "select 1/0 from nation": (ZeroDivisionError, ZeroDivisionError),
    "select n_name from nation where n_nationkey = 1/0": (
        ZeroDivisionError, ZeroDivisionError,
    ),
    "select sum(n_name) from nation": (TypeError, ValueError),
    "select avg(n_name) from nation": (TypeError, ValueError),
    "select n_regionkey, sum(n_name) from nation group by n_regionkey": (
        TypeError, ValueError,
    ),
    "select n_regionkey from nation group by n_regionkey having sum(n_name) > 1": (
        TypeError, ValueError,
    ),
    "select n_name from nation where n_nationkey < (select sum(r_name) from region)": (
        TypeError, ValueError,
    ),
    "select n_name + 1 from nation": (TypeError, TypeError),
    "select -n_name from nation": (TypeError, TypeError),
    "select abs(n_name) from nation": (TypeError, TypeError),
    "select max(n_nationkey + n_name) from nation": (TypeError, TypeError),
    "select n.n_name from nation n join region r on n.n_name + 1 = r.r_regionkey": (
        TypeError, TypeError,
    ),
    "select extract(year from n_name) from nation": (ValueError, ValueError),
    "select substr(n_name, 'a') from nation": (ValueError, ValueError),
    "select upper(n_nationkey) from nation": (AttributeError, AttributeError),
}


@pytest.fixture(scope="module", params=["IC", "IC+"])
def clusters(request):
    return {
        backend: load_tpch_cluster(
            PRESETS[request.param](4).with_(execution_backend=backend), 0.01
        )
        for backend in ("row", "columnar")
    }


@pytest.mark.parametrize("sql", sorted(STATEMENTS))
def test_an_expression_error_classifies_as_error(clusters, sql):
    for backend, cause in zip(("row", "columnar"), STATEMENTS[sql]):
        cluster = clusters[backend]
        outcome = cluster.try_sql(sql)
        assert outcome.status is QueryStatus.ERROR, backend
        assert isinstance(outcome.error, ExecutionError), backend
        with pytest.raises(ExecutionError) as raised:
            cluster.sql(sql)
        assert isinstance(raised.value.__cause__, cause), backend
