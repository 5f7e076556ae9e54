"""A tour of the planner: watch the Section 4/5 fixes change a plan.

    python examples/planner_anatomy.py

Takes TPC-H Q4 (a date-filtered EXISTS query) and shows:

1. the unoptimised logical tree the SQL-to-rel converter produces
   (filters sit *above* the correlation, as in Calcite's initial tree);
2. the baseline physical plan, where the missing FILTER_CORRELATE rule
   leaves the date filter above the semi join — every operator below
   processes orders that should have been discarded;
3. the IC+ physical plan, with the filter pushed into the scan and the
   semi join running distributed;
4. the executable fragments (Algorithm 1) of the IC+ plan.
"""

from repro.bench.tpch import QUERIES, load_tpch_cluster
from repro.common.config import SystemConfig
from repro.exec.fragments import fragment_plan

SQL = QUERIES[4].sql


def banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    ic = load_tpch_cluster(SystemConfig.ic(4), 0.2)
    ic_plus = load_tpch_cluster(SystemConfig.ic_plus(4), 0.2)

    banner("TPC-H Q4")
    print(SQL)

    banner("1. Unoptimised logical tree (converter output)")
    print(ic.parse_to_logical(SQL).explain())

    banner("2. Baseline IC physical plan (no FILTER_CORRELATE)")
    print(ic.explain(SQL))

    banner("3. IC+ physical plan (filter pushed past the correlation)")
    print(ic_plus.explain(SQL))

    banner("4. IC+ execution fragments (Algorithm 1)")
    for fragment in fragment_plan(ic_plus.plan_sql(SQL)):
        print(fragment.explain())
        print()

    banner("Latency comparison")
    for name, cluster in (("IC", ic), ("IC+", ic_plus)):
        result = cluster.sql(SQL)
        print(
            f"{name:<4} simulated {result.simulated_seconds * 1000:8.1f} ms   "
            f"work units {result.total_units:>10,.0f}   "
            f"rows shipped {result.rows_shipped:>7}"
        )


if __name__ == "__main__":
    main()
