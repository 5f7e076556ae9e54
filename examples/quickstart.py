"""Quickstart: stand up a simulated Ignite+Calcite cluster and run SQL.

    python examples/quickstart.py

Creates a 4-site cluster in the paper's IC+ configuration, defines a small
schema, loads rows, and runs a few queries — printing results, the
optimised physical plan, and the simulated distributed-execution latency.
"""

from repro import IgniteCalciteCluster
from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import ColumnType

I = ColumnType.INTEGER
D = ColumnType.DOUBLE
S = ColumnType.VARCHAR


def main() -> None:
    # The three presets mirror the paper's systems under test:
    # IgniteCalciteCluster.ic(...), .ic_plus(...), .ic_plus_m(...).
    cluster = IgniteCalciteCluster.ic_plus(sites=4)

    # DDL: a partitioned fact table and a replicated dimension.
    cluster.create_table(
        TableSchema(
            "city",
            [Column("city_id", I), Column("name", S), Column("country", S)],
            primary_key=["city_id"],
            replicated=True,
        ),
        [
            (1, "Waterloo", "Canada"),
            (2, "Toronto", "Canada"),
            (3, "Berlin", "Germany"),
            (4, "Lyon", "France"),
        ],
    )
    cluster.create_table(
        TableSchema(
            "orders",
            [
                Column("order_id", I),
                Column("city_id", I),
                Column("amount", D),
            ],
            primary_key=["order_id"],
        ),
        [(i, 1 + i % 4, round(10.0 + (i * 37) % 500, 2)) for i in range(1000)],
    )
    cluster.create_index("orders", "orders_city", ["city_id"])

    sql = """
        select c.country, count(*) as orders, sum(o.amount) as revenue
        from orders o, city c
        where o.city_id = c.city_id and o.amount > 50
        group by c.country
        order by revenue desc
    """

    print("Physical plan:")
    print(cluster.explain(sql))
    print()

    result = cluster.sql(sql)
    print(f"{'country':<10} {'orders':>7} {'revenue':>12}")
    for country, orders, revenue in result.rows:
        print(f"{country:<10} {orders:>7} {revenue:>12.2f}")
    print()
    print(f"simulated latency : {result.simulated_seconds * 1000:.2f} ms")
    print(f"work units        : {result.total_units:,.0f}")
    print(f"rows shipped      : {result.rows_shipped}")


if __name__ == "__main__":
    main()
