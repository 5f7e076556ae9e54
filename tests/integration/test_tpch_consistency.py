"""TPC-H cross-system result consistency.

Different plans (merge vs hash joins, single-site vs distributed, single
vs dual-threaded) must produce the same answers.  Floating-point sums are
compared after rounding because accumulation order differs across plans.
"""

import pytest

from repro.bench.tpch import ENABLED_QUERY_IDS, QUERIES, load_tpch_cluster
from repro.common.config import SystemConfig

from helpers import normalise

SF = 0.2

#: Queries whose ORDER BY fully determines row order (ties broken).
FULLY_ORDERED = {1, 4, 12}


@pytest.fixture(scope="module")
def clusters():
    return {
        "IC": load_tpch_cluster(SystemConfig.ic(4), SF),
        "IC+": load_tpch_cluster(SystemConfig.ic_plus(4), SF),
        "IC+M": load_tpch_cluster(SystemConfig.ic_plus_m(4), SF),
        "IC+@8": load_tpch_cluster(SystemConfig.ic_plus(8), SF),
    }


@pytest.mark.parametrize("qid", ENABLED_QUERY_IDS)
def test_results_agree_across_systems(qid, clusters):
    results = {}
    for system, cluster in clusters.items():
        outcome = cluster.try_sql(QUERIES[qid].sql)
        if outcome.ok:
            results[system] = normalise(
                outcome.rows, ordered=qid in FULLY_ORDERED
            )
    # IC+ always completes; compare everyone who did.
    assert "IC+" in results
    reference = results["IC+"]
    for system, rows in results.items():
        assert rows == reference, (qid, system)


def test_row_counts_scale_with_data():
    small = load_tpch_cluster(SystemConfig.ic_plus(4), 0.1)
    large = load_tpch_cluster(SystemConfig.ic_plus(4), 0.4)
    q6_small = small.sql(QUERIES[6].sql).rows[0][0]
    q6_large = large.sql(QUERIES[6].sql).rows[0][0]
    assert q6_large > q6_small  # revenue grows with scale factor


def test_q1_aggregates_are_exact():
    """Q1 against a direct computation over the generated rows."""
    from repro.bench.tpch import cached_tpch_data

    cluster = load_tpch_cluster(SystemConfig.ic_plus(4), SF)
    rows = cluster.sql(QUERIES[1].sql).rows
    lineitem = cached_tpch_data(SF)["lineitem"]
    expected = {}
    for li in lineitem:
        if li[10] <= "1998-09-02":
            key = (li[8], li[9])
            bucket = expected.setdefault(key, [0.0, 0.0, 0])
            bucket[0] += li[4]
            bucket[1] += li[5]
            bucket[2] += 1
    assert len(rows) == len(expected)
    for row in rows:
        key = (row[0], row[1])
        assert row[2] == pytest.approx(expected[key][0])
        assert row[3] == pytest.approx(expected[key][1])
        assert row[9] == expected[key][2]


def test_q6_revenue_is_exact():
    from repro.bench.tpch import cached_tpch_data

    cluster = load_tpch_cluster(SystemConfig.ic_plus(4), SF)
    got = cluster.sql(QUERIES[6].sql).rows[0][0]
    lineitem = cached_tpch_data(SF)["lineitem"]
    expected = sum(
        li[5] * li[6]
        for li in lineitem
        if "1994-01-01" <= li[10] < "1995-01-01"
        and 0.05 <= li[6] <= 0.07
        and li[4] < 24
    )
    assert got == pytest.approx(expected)


def test_q22_matches_direct_computation():
    from repro.bench.tpch import cached_tpch_data

    cluster = load_tpch_cluster(SystemConfig.ic_plus(4), SF)
    rows = cluster.sql(QUERIES[22].sql).rows
    data = cached_tpch_data(SF)
    customers = data["customer"]
    with_orders = {o[1] for o in data["orders"]}
    codes = {"13", "31", "23", "29", "30", "18", "17"}
    eligible = [
        c for c in customers if c[4][:2] in codes and c[5] > 0.0
    ]
    avg_balance = sum(c[5] for c in eligible) / len(eligible)
    expected = {}
    for c in customers:
        code = c[4][:2]
        if code in codes and c[5] > avg_balance and c[0] not in with_orders:
            bucket = expected.setdefault(code, [0, 0.0])
            bucket[0] += 1
            bucket[1] += c[5]
    assert len(rows) == len(expected)
    for code, count, total in rows:
        assert expected[code][0] == count
        assert expected[code][1] == pytest.approx(total)


#: A subquery that is a top-level conjunct of a scalar subquery's WHERE.
NESTED_EXISTS = (
    "select count(*) from orders o where o.o_totalprice > (select "
    "avg(l_extendedprice) from lineitem l where l.l_orderkey = o.o_orderkey "
    "and exists (select * from part p where p.p_partkey = l.l_partkey))"
)


@pytest.mark.parametrize("system", ["IC", "IC+", "IC+M"])
def test_a_subquery_inside_a_scalar_subquery_plans_like_its_join_form(system):
    cluster = load_tpch_cluster(getattr(SystemConfig, {
        "IC": "ic", "IC+": "ic_plus", "IC+M": "ic_plus_m"}[system])(4), 0.01)
    joined = NESTED_EXISTS.replace(
        "lineitem l where", "lineitem l, part p where"
    ).replace(" and exists (select * from part p where", " and").replace("))", ")")
    assert cluster.sql(joined).rows == [(141,)]
    outcome = cluster.try_sql(NESTED_EXISTS)
    assert outcome.ok, outcome.error
    assert outcome.rows == [(141,)]
