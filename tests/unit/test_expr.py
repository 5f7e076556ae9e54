"""Unit tests for row expressions: evaluation, nulls and analysis."""

import pytest

from repro.common.errors import ValidationError
from repro.rel import expr as rex
from repro.rel.expr import (
    BinaryOp,
    CaseExpr,
    ColRef,
    FuncCall,
    InList,
    IsNull,
    LikeExpr,
    Literal,
    UnaryOp,
    column_vs_literal,
    compile_expr,
    extract_equi_keys,
    factor_common_conjuncts,
    make_conjunction,
    make_disjunction,
    references,
    remap_refs,
    shift_refs,
    split_conjunction,
    split_disjunction,
)


def run(expr, row=()):
    return compile_expr(expr)(row)


class TestEvaluation:
    def test_colref(self):
        assert run(ColRef(1), (10, 20)) == 20

    def test_literal(self):
        assert run(Literal("x")) == "x"

    @pytest.mark.parametrize(
        "op,left,right,expected",
        [
            ("=", 3, 3, True), ("<>", 3, 4, True), ("<", 1, 2, True),
            ("<=", 2, 2, True), (">", 5, 2, True), (">=", 2, 3, False),
            ("+", 2, 3, 5), ("-", 7, 3, 4), ("*", 4, 5, 20), ("/", 9, 3, 3.0),
        ],
    )
    def test_binary_ops(self, op, left, right, expected):
        assert run(BinaryOp(op, Literal(left), Literal(right))) == expected

    def test_string_comparison_is_lexicographic(self):
        assert run(BinaryOp("<", Literal("1994-01-01"), Literal("1995-01-01")))

    def test_and_short_circuits(self):
        expr = BinaryOp("AND", Literal(False), BinaryOp("/", Literal(1), Literal(0)))
        assert run(expr) is False

    def test_or_short_circuits(self):
        expr = BinaryOp("OR", Literal(True), BinaryOp("/", Literal(1), Literal(0)))
        assert run(expr) is True

    def test_not(self):
        assert run(UnaryOp("NOT", Literal(False))) is True

    def test_negation(self):
        assert run(UnaryOp("-", Literal(5))) == -5

    def test_unknown_binary_op_rejected(self):
        with pytest.raises(ValidationError):
            BinaryOp("%", Literal(1), Literal(2))

    def test_unknown_unary_op_rejected(self):
        with pytest.raises(ValidationError):
            UnaryOp("!", Literal(1))


class TestNullSemantics:
    def test_arithmetic_with_null_is_null(self):
        assert run(BinaryOp("+", Literal(None), Literal(1))) is None

    def test_comparison_with_null_is_null(self):
        assert run(BinaryOp("=", Literal(None), Literal(1))) is None

    def test_division_with_null_is_null(self):
        assert run(BinaryOp("/", Literal(None), Literal(7.0))) is None

    def test_not_null_is_null(self):
        assert run(UnaryOp("NOT", Literal(None))) is None

    def test_is_null(self):
        assert run(IsNull(Literal(None))) is True
        assert run(IsNull(Literal(3))) is False

    def test_is_not_null(self):
        assert run(IsNull(Literal(None), negated=True)) is False

    def test_like_on_null_is_null(self):
        assert run(LikeExpr(Literal(None), "x%")) is None

    def test_function_on_null_is_null(self):
        assert run(FuncCall("UPPER", [Literal(None)])) is None

    def test_coalesce_skips_nulls(self):
        assert run(FuncCall("COALESCE", [Literal(None), Literal(4)])) == 4


class TestFunctionsAndCase:
    def test_extract_year(self):
        assert run(FuncCall("EXTRACT_YEAR", [Literal("1995-03-15")])) == 1995

    def test_extract_month(self):
        assert run(FuncCall("EXTRACT_MONTH", [Literal("1995-03-15")])) == 3

    def test_substring(self):
        expr = FuncCall("SUBSTRING", [Literal("13-555"), Literal(1), Literal(2)])
        assert run(expr) == "13"

    def test_substring_without_length(self):
        assert run(FuncCall("SUBSTRING", [Literal("hello"), Literal(3)])) == "llo"

    def test_unknown_function_rejected(self):
        with pytest.raises(ValidationError):
            FuncCall("NOPE", [Literal(1)])

    def test_case_picks_first_match(self):
        expr = CaseExpr(
            [(Literal(False), Literal("a")), (Literal(True), Literal("b"))],
            Literal("c"),
        )
        assert run(expr) == "b"

    def test_case_default(self):
        expr = CaseExpr([(Literal(False), Literal("a"))], Literal("dflt"))
        assert run(expr) == "dflt"

    def test_in_list(self):
        assert run(InList(Literal(2), [1, 2, 3])) is True
        assert run(InList(Literal(9), [1, 2, 3])) is False

    def test_not_in_list(self):
        assert run(InList(Literal(9), [1, 2], negated=True)) is True


class TestLikePatterns:
    @pytest.mark.parametrize(
        "pattern,value,expected",
        [
            ("PROMO%", "PROMO BRUSHED TIN", True),
            ("PROMO%", "LARGE TIN", False),
            ("%green%", "dark green smoke", True),
            ("%green%", "blue", False),
            ("%BRASS", "SMALL PLATED BRASS", True),
            ("%BRASS", "BRASS PLATED TIN", False),
            ("%special%requests%", "x special y requests z", True),
            ("%special%requests%", "requests then special", False),
            ("abc", "abc", True),
            ("abc", "abd", False),
            ("a_c", "abc", True),
            ("a_c", "abbc", False),
        ],
    )
    def test_pattern(self, pattern, value, expected):
        assert run(LikeExpr(Literal(value), pattern)) is expected

    def test_overlapping_middles_do_not_double_count(self):
        # Middles must match in order without reusing characters:
        # '%ab%ba%' needs "ab" strictly before a separate "ba".
        assert run(LikeExpr(Literal("aba"), "%ab%ba%")) is False
        assert run(LikeExpr(Literal("abba"), "%ab%ba%")) is True
        assert run(LikeExpr(Literal("aba"), "%a%ba%")) is True


class TestAnalysis:
    def test_references(self):
        expr = BinaryOp("+", ColRef(0), BinaryOp("*", ColRef(3), Literal(2)))
        assert references(expr) == {0, 3}

    def test_split_and_make_conjunction_roundtrip(self):
        conj = make_conjunction([Literal(1), Literal(2), Literal(3)])
        assert [c.value for c in split_conjunction(conj)] == [1, 2, 3]

    def test_make_conjunction_skips_none_and_true(self):
        assert make_conjunction([None, Literal(True)]) is None
        only = make_conjunction([None, Literal(5)])
        assert isinstance(only, Literal)

    def test_split_disjunction(self):
        disj = make_disjunction([Literal(1), Literal(2)])
        assert len(split_disjunction(disj)) == 2

    def test_shift_refs(self):
        shifted = shift_refs(BinaryOp("=", ColRef(1), ColRef(4)), 10)
        assert references(shifted) == {11, 14}

    def test_remap_refs(self):
        remapped = remap_refs(ColRef(2), lambda i: i * 10)
        assert remapped.index == 20

    def test_digest_equality(self):
        a = BinaryOp("=", ColRef(0), Literal(5))
        b = BinaryOp("=", ColRef(0), Literal(5))
        assert a == b
        assert hash(a) == hash(b)

    def test_is_literal_condition_sides(self):
        left_only = BinaryOp("=", ColRef(0), Literal(1))
        right_only = BinaryOp("=", ColRef(5), Literal(1))
        cross = BinaryOp("=", ColRef(0), ColRef(5))
        assert rex.is_literal_condition(left_only, 3) == "left"
        assert rex.is_literal_condition(right_only, 3) == "right"
        assert rex.is_literal_condition(cross, 3) == "both"
        assert rex.is_literal_condition(Literal(True), 3) == "none"


class TestEquiKeyExtraction:
    def test_simple_equi_pair(self):
        condition = BinaryOp("=", ColRef(1), ColRef(5))
        pairs, rest = extract_equi_keys(condition, left_width=3)
        assert pairs == [(1, 2)]
        assert rest == []

    def test_reversed_sides_normalise(self):
        condition = BinaryOp("=", ColRef(5), ColRef(1))
        pairs, _ = extract_equi_keys(condition, left_width=3)
        assert pairs == [(1, 2)]

    def test_same_side_equality_is_residual(self):
        condition = BinaryOp("=", ColRef(0), ColRef(1))
        pairs, rest = extract_equi_keys(condition, left_width=3)
        assert pairs == []
        assert len(rest) == 1

    def test_mixed_condition(self):
        condition = make_conjunction(
            [
                BinaryOp("=", ColRef(0), ColRef(4)),
                BinaryOp("<", ColRef(1), Literal(10)),
            ]
        )
        pairs, rest = extract_equi_keys(condition, left_width=3)
        assert pairs == [(0, 1)]
        assert len(rest) == 1

    def test_none_condition(self):
        pairs, rest = extract_equi_keys(None, left_width=3)
        assert pairs == [] and rest == []


class TestColumnVsLiteral:
    """The one recogniser of ``col <cmp> literal``; callers keep policy."""

    MIRROR = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

    @pytest.mark.parametrize("op", sorted(MIRROR))
    def test_both_orientations_of_every_comparison(self, op):
        column, literal = ColRef(2), Literal(7)
        assert column_vs_literal(BinaryOp(op, column, literal)) == (column, op, 7)
        assert column_vs_literal(BinaryOp(op, literal, column)) == (
            column, self.MIRROR[op], 7,
        )

    def test_mirroring_preserves_the_rows_selected(self):
        for op in self.MIRROR:
            written = BinaryOp(op, Literal(5), ColRef(0))
            column, mirrored, value = column_vs_literal(written)
            read = BinaryOp(mirrored, column, Literal(value))
            for v in (4, 5, 6):
                assert run(written, (v,)) == run(read, (v,)), (op, v)

    @pytest.mark.parametrize(
        "conjunct",
        [
            BinaryOp("<", ColRef(0), ColRef(1)),
            BinaryOp("=", Literal(1), Literal(1)),
            BinaryOp("+", ColRef(0), Literal(1)),
            BinaryOp("=", BinaryOp("+", ColRef(0), Literal(1)), Literal(3)),
            BinaryOp("AND", ColRef(0), Literal(True)),
            InList(ColRef(0), [1, 2]),
            IsNull(ColRef(0)),
            ColRef(0),
        ],
        ids=lambda e: e.digest(),
    )
    def test_anything_else_is_not_recognised(self, conjunct):
        assert column_vs_literal(conjunct) is None

    def test_a_null_literal_is_handed_through(self):
        """Index bounds and zone maps reject it themselves; the estimator
        and the signature canonicaliser take it as any other value."""
        assert column_vs_literal(BinaryOp("=", ColRef(0), Literal(None))) == (
            ColRef(0), "=", None,
        )


class TestConditionFactoring:
    """Section 5.2's common-conjunct extraction."""

    def _branch(self, *conjuncts):
        return make_conjunction(list(conjuncts))

    def test_common_conjunct_is_factored(self):
        c1 = BinaryOp("=", ColRef(0), ColRef(5))
        branches = [
            self._branch(c1, BinaryOp("=", ColRef(1), Literal(i)))
            for i in range(3)
        ]
        expr = make_disjunction(branches)
        factored = factor_common_conjuncts(expr)
        assert factored is not None
        conjuncts = split_conjunction(factored)
        assert conjuncts[0] == c1
        # Remaining OR keeps three branches.
        assert len(split_disjunction(conjuncts[1])) == 3

    def test_no_common_conjunct_returns_none(self):
        expr = make_disjunction(
            [
                BinaryOp("=", ColRef(0), Literal(1)),
                BinaryOp("=", ColRef(1), Literal(2)),
            ]
        )
        assert factor_common_conjuncts(expr) is None

    def test_single_disjunct_returns_none(self):
        assert factor_common_conjuncts(BinaryOp("=", ColRef(0), Literal(1))) is None

    def test_factoring_preserves_semantics(self):
        c1 = BinaryOp("=", ColRef(0), Literal(1))
        expr = make_disjunction(
            [
                self._branch(c1, BinaryOp(">", ColRef(1), Literal(5))),
                self._branch(c1, BinaryOp("<", ColRef(1), Literal(2))),
            ]
        )
        factored = factor_common_conjuncts(expr)
        original = compile_expr(expr)
        rewritten = compile_expr(factored)
        for row in [(1, 6), (1, 1), (1, 3), (0, 6), (0, 1)]:
            assert bool(original(row)) == bool(rewritten(row)), row

    def test_all_conjuncts_common_drops_or_entirely(self):
        c1 = BinaryOp("=", ColRef(0), Literal(1))
        expr = make_disjunction([c1, c1])
        factored = factor_common_conjuncts(expr)
        assert factored == c1
