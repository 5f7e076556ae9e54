"""NULL join-key / NULL-ordering / OFFSET regression tests.

These pin the SQL semantics the correctness sweep fixed, on *both*
execution backends:

* a NULL equi-join key matches nothing — not even another NULL — on
  either side of INNER and LEFT joins;
* ORDER BY uses one total order in which NULL sorts after every value
  (so ASC puts NULLs last, DESC puts them first);
* GROUP BY treats NULL as a grouping value of its own;
* OFFSET drops rows after sorting, and the limit operator's work-unit
  charge covers every row it consumed (offset + fetch), not just the
  rows it emitted.

The expectations are hardcoded (not oracle-relative) so a backend and
the reference executor regressing *together* still fails the build.
"""

import pytest

from helpers import make_company_cluster
from repro.catalog.schema import Column, TableSchema
from repro.catalog.types import ColumnType
from repro.common.config import PRESETS
from repro.common.constants import RPTC
from repro.core.cluster import IgniteCalciteCluster
from repro.exec.physical import PhysLimit, PhysNode
from repro.verify.differential import compare_results, oracle_detail

pytestmark = pytest.mark.columnar

LEFT_ROWS = [
    (1, 10, "a"),
    (2, None, "b"),
    (3, 20, "c"),
    (4, None, "d"),
    (5, 30, "e"),
]
RIGHT_ROWS = [
    (1, 10, "r10"),
    (2, 10, "r10b"),
    (3, None, "rnull"),
    (4, 40, "r40"),
]


@pytest.fixture
def null_cluster(execution_backend):
    config = PRESETS["IC+"](4).with_(execution_backend=execution_backend)
    cluster = IgniteCalciteCluster(config)
    cluster.create_table(
        TableSchema(
            "tl",
            [
                Column("id", ColumnType.INTEGER),
                Column("k", ColumnType.INTEGER, nullable=True),
                Column("v", ColumnType.VARCHAR),
            ],
            ["id"],
        ),
        LEFT_ROWS,
    )
    cluster.create_table(
        TableSchema(
            "tr",
            [
                Column("id", ColumnType.INTEGER),
                Column("k", ColumnType.INTEGER, nullable=True),
                Column("w", ColumnType.VARCHAR),
            ],
            ["id"],
        ),
        RIGHT_ROWS,
    )
    return cluster


class TestNullJoinKeys:
    def test_inner_join_null_keys_match_nothing(self, null_cluster):
        result = null_cluster.sql(
            "select tl.id, tr.id from tl join tr on tl.k = tr.k "
            "order by tl.id, tr.id"
        )
        # Only k=10 matches (rows 1 x {1, 2}); the NULLs on either side
        # and the unmatched 20/30/40 keys produce nothing.
        assert result.rows == [(1, 1), (1, 2)]

    def test_left_join_pads_null_key_rows(self, null_cluster):
        result = null_cluster.sql(
            "select tl.id, tr.w from tl left join tr on tl.k = tr.k "
            "order by tl.id, tr.w"
        )
        assert result.rows == [
            (1, "r10"),
            (1, "r10b"),
            (2, None),
            (3, None),
            (4, None),
            (5, None),
        ]

    def test_left_join_empty_right_pads_every_row(self, null_cluster):
        result = null_cluster.sql(
            "select tl.id, tr.w from tl left join tr on tl.k = tr.k "
            "and tr.k > 100 order by tl.id"
        )
        assert result.rows == [(i, None) for i in range(1, 6)]

    def test_group_by_keeps_null_group(self, null_cluster):
        result = null_cluster.sql(
            "select k, count(*) from tl group by k order by k"
        )
        # NULL is one group of its own, ordered last (NULLS LAST).
        assert result.rows == [(10, 1), (20, 1), (30, 1), (None, 2)]

    def test_semi_join_null_keys_match_nothing(self, null_cluster):
        result = null_cluster.sql(
            "select tl.id from tl where exists "
            "(select 1 from tr where tr.k = tl.k) order by tl.id"
        )
        # Only the k=10 row survives the SEMI join; NULL keys on either
        # side never witness the EXISTS.
        assert result.rows == [(1,)]

    def test_anti_join_keeps_null_key_rows(self, null_cluster):
        result = null_cluster.sql(
            "select tl.id from tl where not exists "
            "(select 1 from tr where tr.k = tl.k) order by tl.id"
        )
        # NULL-keyed left rows match nothing, so the ANTI join keeps
        # them (NOT EXISTS is true), alongside the unmatched 20/30 keys.
        assert result.rows == [(2,), (3,), (4,), (5,)]

    def test_differential_oracle_agrees(self, null_cluster):
        for sql in (
            "select tl.id, tr.id from tl join tr on tl.k = tr.k",
            "select tl.id, tr.w from tl left join tr on tl.k = tr.k",
            "select tl.id from tl where exists "
            "(select 1 from tr where tr.k = tl.k)",
            "select tl.id from tl where not exists "
            "(select 1 from tr where tr.k = tl.k)",
            "select k, count(*) from tl group by k",
        ):
            assert _oracle_diff(null_cluster, sql) == "", sql


def _oracle_diff(cluster, sql):
    return oracle_detail(
        cluster.store, cluster.parse_to_logical(sql), cluster.sql(sql).rows
    )


class TestNullOrdering:
    def test_order_by_asc_puts_nulls_last(self, null_cluster):
        result = null_cluster.sql("select k, id from tl order by k, id")
        assert result.rows == [
            (10, 1),
            (20, 3),
            (30, 5),
            (None, 2),
            (None, 4),
        ]

    def test_order_by_desc_reverses_the_total_order(self, null_cluster):
        result = null_cluster.sql("select k, id from tl order by k desc, id")
        assert result.rows == [
            (None, 2),
            (None, 4),
            (30, 5),
            (20, 3),
            (10, 1),
        ]


    @pytest.mark.parametrize(
        "direction, misplaced",
        [
            ("", [(None, 2), (10, 1), (20, 3), (30, 5), (None, 4)]),
            (" desc", [(None, 2), (30, 5), (None, 4), (20, 3), (10, 1)]),
        ],
        ids=["asc-null-first", "desc-null-in-the-middle"],
    )
    def test_oracle_checks_null_placement(
        self, null_cluster, direction, misplaced
    ):
        """A merge receiver that misplaces NULLs returns the right
        multiset; the ORDER BY check must compare through the engine's
        total order (NULLs last under ASC, first under DESC)."""
        sql = f"select k, id from tl order by k{direction}, id"
        logical = null_cluster.parse_to_logical(sql)
        correct = null_cluster.sql(sql).rows
        assert sorted(map(repr, misplaced)) == sorted(map(repr, correct))
        assert compare_results(correct, correct, logical) == ""
        assert "ORDER BY" in compare_results(misplaced, correct, logical)


def _find_limits(plan: PhysNode):
    found = []
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, PhysLimit):
            found.append(node)
        stack.extend(
            c for c in node.inputs if isinstance(c, PhysNode)
        )
    return found


class TestOffset:
    @pytest.fixture
    def cluster(self, execution_backend):
        return make_company_cluster(
            PRESETS["IC+"](4).with_(execution_backend=execution_backend)
        )

    def test_offset_after_sort(self, cluster):
        everything = cluster.sql(
            "select emp_id from emp order by emp_id"
        ).rows
        page = cluster.sql(
            "select emp_id from emp order by emp_id limit 5 offset 7"
        ).rows
        assert page == everything[7:12]

    def test_offset_past_end_is_empty(self, cluster):
        result = cluster.sql(
            "select emp_id from emp order by emp_id limit 5 offset 1000"
        )
        assert result.rows == []

    def test_limit_charges_for_consumed_rows(self, cluster):
        plan = cluster.plan_sql("select emp_id from emp limit 5 offset 7")
        assert _find_limits(plan), "expected a PhysLimit in the plan"
        result = cluster.execute_plan(plan)
        assert len(result.rows) == 5
        # Actuals are keyed by the *fragment* trees' nodes (fragmenting
        # rewrites exchanges into sender/receiver pairs).
        limits = [
            node
            for fragment in result.fragment_trees
            for node in _find_limits(fragment.root)
        ]
        assert limits, "expected a PhysLimit in the executed fragments"
        for node in limits:
            if node.offset is None:
                continue
            rows_out, units, rows_in = result.operator_actuals[node.op_id]
            consumed = min(rows_in, (node.offset or 0) + (node.fetch or 0))
            assert rows_out == len(result.rows)
            # The seed bug: charging only the emitted rows, letting an
            # OFFSET page deep into a table for (almost) free.
            assert units == pytest.approx(consumed * RPTC)
        # FragmentStats must agree with the per-operator actuals: the
        # root fragment emits the page, not the consumed prefix.
        root_id = next(
            f.fragment_id for f in result.fragment_trees if f.sender is None
        )
        root = [f for f in result.fragments if f.fragment_id == root_id]
        assert root and root[0].rows_out == 5


BIG = 2**53
INT64_MIN = -(2**63)


class TestInt64Extremes:
    """Integers a float64 cannot tell apart still join and sort exactly
    (the columnar kernels once cast keys to float64 and negated DESC
    keys; Python ``==`` and ``NullsLast`` on the row path never did)."""

    # Non-matching filler rows make the planner pick a merge join (IC)
    # and a hash join (IC+) over the tiny-input nested loop.
    FILLER = 50

    @pytest.fixture(params=["IC", "IC+"])
    def cluster(self, request, execution_backend):
        config = PRESETS[request.param](4).with_(
            execution_backend=execution_backend
        )
        cluster = IgniteCalciteCluster(config)
        for name, rows, base in (
            ("bl", [(1, BIG), (2, BIG + 1), (3, 5), (4, INT64_MIN), (5, None)], 100),
            ("br", [(1, BIG + 1), (2, 7), (3, INT64_MIN), (4, None)], 1000),
        ):
            rows = rows + [(10 + i, base + i) for i in range(self.FILLER)]
            cluster.create_table(
                TableSchema(
                    name,
                    [
                        Column("id", ColumnType.INTEGER),
                        Column("k", ColumnType.BIGINT, nullable=True),
                    ],
                    ["id"],
                ),
                rows,
            )
        return cluster

    def test_neighbours_beyond_2_53_do_not_join(self, cluster):
        sql = "select bl.id, br.id from bl join br on bl.k = br.k"
        assert "NestedLoop" not in cluster.explain(sql)
        result = cluster.sql(sql + " order by bl.id, br.id")
        assert result.rows == [(2, 1), (4, 3)]

    def test_desc_sort_keeps_int64_min_last(self, cluster):
        result = cluster.sql("select k from bl where id < 10 order by k desc")
        assert result.rows == [
            (None,), (BIG + 1,), (BIG,), (5,), (INT64_MIN,),
        ]


class TestThreeValuedLogic:
    """AND/OR are Kleene wherever their value can be seen (PR 18).

    ``NULL AND FALSE`` is FALSE and ``NULL OR TRUE`` is TRUE; Python's
    ``and``/``or`` gave ``None`` / ``False`` for ``NULL AND FALSE`` /
    ``NULL OR FALSE``, which a surrounding NOT, IS NULL, CASE or
    projection then turned into wrong rows — on the row backend, the
    columnar backend and the reference executor together, so these
    expectations are hardcoded.
    """

    ROWS = [
        (1, None, 2),
        (2, 7, 1),
        (3, 7, 2),
        (4, None, 1),
        (5, 3, None),
        (6, None, None),
    ]

    @pytest.fixture
    def cluster(self, execution_backend):
        config = PRESETS["IC+"](4).with_(execution_backend=execution_backend)
        cluster = IgniteCalciteCluster(config)
        cluster.create_table(
            TableSchema(
                "t",
                [
                    Column("id", ColumnType.INTEGER),
                    Column("x", ColumnType.INTEGER, nullable=True),
                    Column("y", ColumnType.INTEGER, nullable=True),
                ],
                ["id"],
            ),
            self.ROWS,
        )
        return cluster

    def ids(self, cluster, where):
        result = cluster.sql(f"select id from t where {where} order by id")
        return [row[0] for row in result.rows]

    def test_not_over_null_and_false_keeps_the_row(self, cluster):
        # id 1 is (NULL, 2): NULL AND FALSE = FALSE, so NOT(...) is TRUE.
        assert self.ids(cluster, "not (x > 5 and y = 1)") == [1, 3, 5]
        assert self.ids(cluster, "(x > 5 and y = 1) is null") == [4, 6]

    def test_not_over_null_or_false_drops_the_row(self, cluster):
        # id 1: NULL OR FALSE = NULL, so NOT(...) is NULL, not TRUE.
        assert self.ids(cluster, "not (x > 5 or y = 1)") == []
        assert self.ids(cluster, "(x > 5 or y = 1) is null") == [1, 5, 6]

    def test_projected_and_or_values(self, cluster):
        result = cluster.sql(
            "select id, x > 5 and y = 1, x > 5 or y = 1 from t order by id"
        )
        assert result.rows == [
            (1, False, None),
            (2, True, True),
            (3, False, True),
            (4, None, True),
            (5, False, None),
            (6, None, None),
        ]

    def test_filter_short_circuit_still_guards_a_division(self, cluster):
        # In a WHERE clause NULL is as good as FALSE and the right side of
        # an AND runs only behind a true left side: y = 0 never divides.
        assert self.ids(cluster, "y <> 1 and x / (y - 1) > 2") == [3]

    def test_reference_executor_agrees(self, cluster):
        for where in (
            "not (x > 5 and y = 1)",
            "not (x > 5 or y = 1)",
            "(x > 5 or y = 1) is null",
            "case when not (x > 5 or y = 1) then true else y = 2 end",
        ):
            sql = f"select id from t where {where}"
            assert _oracle_diff(cluster, sql) == "", where

    def test_ternary_partition_over_generated_predicates(self, cluster):
        """``p``, ``NOT p`` and ``p IS NULL`` split the table exactly, for
        AND/OR pairs of QueryGenerator predicates over nullable columns."""
        import random

        from repro.verify.generator import QueryGenerator

        generator = QueryGenerator(cluster.store, seed=18)
        rows = self.ROWS
        rng = random.Random(18)
        everything = [row[0] for row in self.ROWS]
        for _ in range(25):
            atoms = []
            for position, name in ((1, "x"), (2, "y")):
                value = rng.choice([r[position] for r in rows if r[position] is not None])
                atoms.append(generator._predicate(name, value, rows, position))
            p = f"({atoms[0]} {rng.choice(['and', 'or'])} {atoms[1]})"
            parts = [
                self.ids(cluster, p),
                self.ids(cluster, f"not {p}"),
                self.ids(cluster, f"{p} is null"),
            ]
            assert sorted(parts[0] + parts[1] + parts[2]) == everything, p
