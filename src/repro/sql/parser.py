"""Recursive-descent SQL parser.

The entry point is :func:`parse`, which returns a :class:`repro.sql.ast.Select`
or raises :class:`SqlSyntaxError` / :class:`UnsupportedSqlError`.  ``CREATE
VIEW`` is recognised and explicitly rejected — Ignite+Calcite does not
support SQL VIEWs, which is why the paper disables TPC-H Q15 (Section 6).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, TypeVar

from repro.common.errors import SqlSyntaxError, UnsupportedSqlError
from repro.sql import ast
from repro.sql.lexer import Token, TokenType, tokenize

AGGREGATE_FUNCTIONS = frozenset({"count", "sum", "avg", "min", "max"})
SCALAR_FUNCTION_NAMES = frozenset({"upper", "lower", "abs", "coalesce", "substr"})

_Item = TypeVar("_Item")


def parse(sql: str):
    """Parse one SQL statement into an :class:`ast.Select`,
    :class:`ast.Explain` or :class:`ast.CreateTable`.

    CREATE VIEW raises :class:`UnsupportedSqlError`, as in Ignite+Calcite —
    the reason TPC-H Q15 is disabled.
    """
    return _Parser(tokenize(sql)).parse_statement()


class _Parser:
    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token helpers --------------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._current
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _error(self, message: str) -> SqlSyntaxError:
        token = self._current
        return SqlSyntaxError(
            f"{message}, found {token}", token.line, token.column
        )

    def _accept_keyword(self, word: str) -> bool:
        if self._current.is_keyword(word):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise self._error(f"expected {word.upper()}")

    def _accept_symbol(self, symbol: str) -> bool:
        token = self._current
        if token.type is TokenType.SYMBOL and token.value == symbol:
            self._advance()
            return True
        return False

    def _expect_symbol(self, symbol: str) -> None:
        if not self._accept_symbol(symbol):
            raise self._error(f"expected {symbol!r}")

    def _comma_list(self, parse_item: Callable[[], _Item]) -> List[_Item]:
        """``item ("," item)*``: every list production of the grammar."""
        items = [parse_item()]
        while self._accept_symbol(","):
            items.append(parse_item())
        return items

    def _optional_integer(self, keyword: str) -> Optional[int]:
        """``[keyword integer]``, as in ``LIMIT n`` and ``OFFSET n``."""
        if not self._accept_keyword(keyword):
            return None
        token = self._current
        if token.type is not TokenType.NUMBER or not isinstance(token.value, int):
            raise self._error(f"{keyword.upper()} requires an integer")
        self._advance()
        return token.value

    def _expect_ident(self) -> str:
        token = self._current
        if token.type is TokenType.IDENT:
            self._advance()
            return str(token.value)
        # Allow non-reserved keywords used as identifiers (e.g. a column
        # named "year") when they appear where an identifier must be.
        if token.type is TokenType.KEYWORD and token.value in ("year", "month", "date"):
            self._advance()
            return str(token.value)
        raise self._error("expected identifier")

    # -- statements --------------------------------------------------------------

    def parse_statement(self):
        if self._current.is_keyword("explain"):
            self._advance()
            analyze = self._accept_keyword("analyze")
            select = self._parse_select()
            self._accept_symbol(";")
            if self._current.type is not TokenType.EOF:
                raise self._error("trailing tokens after statement")
            return ast.Explain(select=select, analyze=analyze)
        if self._current.is_keyword("create"):
            self._advance()
            if self._current.is_keyword("view"):
                raise UnsupportedSqlError(
                    "SQL VIEWs are not supported by Ignite+Calcite "
                    "(the reason TPC-H Q15 is disabled)"
                )
            if (
                self._current.type is TokenType.IDENT
                and self._current.value == "table"
            ):
                return self._parse_create_table()
            raise self._error("only SELECT statements are supported")
        select = self._parse_select()
        self._accept_symbol(";")
        if self._current.type is not TokenType.EOF:
            raise self._error("trailing tokens after statement")
        return select

    def _parse_create_table(self) -> ast.CreateTable:
        # ``TABLE``, ``USING``, ``PRIMARY`` and ``KEY`` (and the type
        # names) are deliberately not reserved words in this dialect —
        # they are matched by identifier value, so existing queries using
        # them as column names keep parsing.  ``DATE`` is the one type
        # name that lexes as a keyword.
        self._advance()  # TABLE
        name = self._expect_ident()
        self._expect_symbol("(")
        columns: List[Tuple[str, str]] = []
        primary_key: List[str] = []
        while True:
            token = self._current
            if (
                token.type is TokenType.IDENT
                and token.value == "primary"
                and self._peek(1).type is TokenType.IDENT
                and self._peek(1).value == "key"
            ):
                self._advance()
                self._advance()
                self._expect_symbol("(")
                primary_key.extend(self._comma_list(self._expect_ident))
                self._expect_symbol(")")
            else:
                column = self._expect_ident()
                type_token = self._current
                if type_token.type not in (TokenType.IDENT, TokenType.KEYWORD):
                    raise self._error("expected column type")
                self._advance()
                columns.append((column, str(type_token.value).lower()))
            if not self._accept_symbol(","):
                break
        self._expect_symbol(")")
        adapter: Optional[str] = None
        if self._current.type is TokenType.IDENT and self._current.value == "using":
            self._advance()
            adapter = self._expect_ident()
        self._accept_symbol(";")
        if self._current.type is not TokenType.EOF:
            raise self._error("trailing tokens after statement")
        if not columns:
            raise self._error("CREATE TABLE requires at least one column")
        return ast.CreateTable(
            name=name.lower(),
            columns=columns,
            primary_key=primary_key,
            adapter=adapter,
        )

    def _parse_select(self) -> ast.Select:
        self._expect_keyword("select")
        distinct = self._accept_keyword("distinct")
        items = self._comma_list(self._parse_select_item)
        self._expect_keyword("from")
        from_items = self._comma_list(self._parse_join_chain)
        where = None
        if self._accept_keyword("where"):
            where = self._parse_expr()
        group_by: List[ast.SqlExpr] = []
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by = self._comma_list(self._parse_expr)
        having = None
        if self._accept_keyword("having"):
            having = self._parse_expr()
        order_by: List[ast.OrderItem] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by = self._comma_list(self._parse_order_item)
        limit = self._optional_integer("limit")
        offset = self._optional_integer("offset")
        if self._current.is_keyword("union"):
            raise UnsupportedSqlError("UNION is not supported")
        return ast.Select(
            items=items,
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_select_item(self) -> ast.SelectItem:
        if self._current.type is TokenType.SYMBOL and self._current.value == "*":
            self._advance()
            return ast.SelectItem(
                expr=ast.FunctionCall(name="*", args=[], star=True), alias=None
            )
        expr = self._parse_expr()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._current.type is TokenType.IDENT:
            alias = self._expect_ident()
        return ast.SelectItem(expr=expr, alias=alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self._parse_expr()
        ascending = True
        if self._accept_keyword("desc"):
            ascending = False
        else:
            self._accept_keyword("asc")
        return ast.OrderItem(expr=expr, ascending=ascending)

    # -- FROM clause ------------------------------------------------------------

    def _parse_join_chain(self) -> ast.TableExpr:
        left = self._parse_table_primary()
        while True:
            kind: Optional[str] = None
            if self._current.is_keyword("join"):
                self._advance()
                kind = "inner"
            elif self._current.is_keyword("inner") and self._peek(1).is_keyword("join"):
                self._advance()
                self._advance()
                kind = "inner"
            elif self._current.is_keyword("left"):
                self._advance()
                self._accept_keyword("outer")
                self._expect_keyword("join")
                kind = "left"
            if kind is None:
                return left
            right = self._parse_table_primary()
            self._expect_keyword("on")
            condition = self._parse_expr()
            left = ast.JoinExpr(left=left, right=right, kind=kind, condition=condition)

    def _parse_table_primary(self) -> ast.TableExpr:
        if self._accept_symbol("("):
            select = self._parse_select()
            self._expect_symbol(")")
            self._accept_keyword("as")
            alias = self._expect_ident()
            return ast.SubqueryRef(select=select, alias=alias)
        name = self._expect_ident()
        alias = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._current.type is TokenType.IDENT:
            alias = self._expect_ident()
        return ast.TableRef(name=name, alias=alias)

    # -- expressions ----------------------------------------------------------------

    def _parse_expr(self) -> ast.SqlExpr:
        return self._parse_or()

    def _parse_or(self) -> ast.SqlExpr:
        left = self._parse_and()
        while self._accept_keyword("or"):
            right = self._parse_and()
            left = ast.Binary(op="OR", left=left, right=right)
        return left

    def _parse_and(self) -> ast.SqlExpr:
        left = self._parse_not()
        while self._accept_keyword("and"):
            right = self._parse_not()
            left = ast.Binary(op="AND", left=left, right=right)
        return left

    def _parse_not(self) -> ast.SqlExpr:
        if self._accept_keyword("not"):
            operand = self._parse_not()
            return _negate(operand)
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.SqlExpr:
        left = self._parse_additive()
        token = self._current
        negated = False
        if token.is_keyword("not"):
            # ``x NOT IN ...`` / ``x NOT BETWEEN ...`` / ``x NOT LIKE ...``
            self._advance()
            negated = True
            token = self._current
        if token.type is TokenType.SYMBOL and token.value in ("=", "<>", "<", "<=", ">", ">="):
            if negated:
                raise self._error("NOT before comparison operator")
            self._advance()
            right = self._parse_additive()
            return ast.Binary(op=str(token.value), left=left, right=right)
        if token.is_keyword("in"):
            self._advance()
            return self._parse_in_tail(left, negated)
        if token.is_keyword("between"):
            self._advance()
            low = self._parse_additive()
            self._expect_keyword("and")
            high = self._parse_additive()
            return ast.BetweenExpr(operand=left, low=low, high=high, negated=negated)
        if token.is_keyword("like"):
            self._advance()
            pattern_token = self._current
            if pattern_token.type is not TokenType.STRING:
                raise self._error("LIKE requires a string pattern")
            self._advance()
            return ast.LikeExprAst(
                operand=left, pattern=str(pattern_token.value), negated=negated
            )
        if token.is_keyword("is"):
            if negated:
                raise self._error("NOT before IS")
            self._advance()
            is_negated = self._accept_keyword("not")
            self._expect_keyword("null")
            return ast.IsNullExpr(operand=left, negated=is_negated)
        if negated:
            raise self._error("expected IN, BETWEEN or LIKE after NOT")
        return left

    def _parse_in_tail(self, operand: ast.SqlExpr, negated: bool) -> ast.SqlExpr:
        self._expect_symbol("(")
        if self._current.is_keyword("select"):
            subquery = self._parse_select()
            self._expect_symbol(")")
            return ast.InExpr(
                operand=operand, values=None, subquery=subquery, negated=negated
            )
        values = self._comma_list(self._parse_expr)
        self._expect_symbol(")")
        return ast.InExpr(operand=operand, values=values, subquery=None, negated=negated)

    def _parse_additive(self) -> ast.SqlExpr:
        left = self._parse_multiplicative()
        while True:
            token = self._current
            if token.type is TokenType.SYMBOL and token.value in ("+", "-"):
                self._advance()
                right = self._parse_multiplicative()
                left = ast.Binary(op=str(token.value), left=left, right=right)
            else:
                return left

    def _parse_multiplicative(self) -> ast.SqlExpr:
        left = self._parse_unary()
        while True:
            token = self._current
            if token.type is TokenType.SYMBOL and token.value in ("*", "/"):
                self._advance()
                right = self._parse_unary()
                left = ast.Binary(op=str(token.value), left=left, right=right)
            else:
                return left

    def _parse_unary(self) -> ast.SqlExpr:
        if self._accept_symbol("-"):
            operand = self._parse_unary()
            if isinstance(operand, ast.NumberLiteral):
                return ast.NumberLiteral(value=-operand.value)
            return ast.Unary(op="-", operand=operand)
        self._accept_symbol("+")
        return self._parse_primary()

    def _parse_primary(self) -> ast.SqlExpr:
        token = self._current
        if token.type is TokenType.NUMBER:
            self._advance()
            return ast.NumberLiteral(value=token.value)
        if token.type is TokenType.STRING:
            self._advance()
            return ast.StringLiteral(value=str(token.value))
        if token.is_keyword("true"):
            self._advance()
            return ast.BoolLiteral(value=True)
        if token.is_keyword("false"):
            self._advance()
            return ast.BoolLiteral(value=False)
        if token.is_keyword("null"):
            self._advance()
            return ast.NullLiteral()
        if token.is_keyword("date"):
            # ``DATE '1994-01-01'`` — dates are ISO strings internally.
            self._advance()
            literal = self._current
            if literal.type is not TokenType.STRING:
                raise self._error("DATE requires a string literal")
            self._advance()
            return ast.StringLiteral(value=str(literal.value))
        if token.is_keyword("case"):
            return self._parse_case()
        if token.is_keyword("exists"):
            self._advance()
            self._expect_symbol("(")
            subquery = self._parse_select()
            self._expect_symbol(")")
            return ast.ExistsExpr(subquery=subquery, negated=False)
        if token.is_keyword("extract"):
            return self._parse_extract()
        if token.is_keyword("substring"):
            return self._parse_substring()
        if token.type is TokenType.KEYWORD and token.value in AGGREGATE_FUNCTIONS:
            return self._parse_function_call()
        if token.type is TokenType.IDENT and self._peek(1).type is TokenType.SYMBOL and self._peek(1).value == "(":
            if str(token.value) in SCALAR_FUNCTION_NAMES:
                return self._parse_function_call()
            raise self._error(f"unknown function {token.value}")
        if self._accept_symbol("("):
            if self._current.is_keyword("select"):
                subquery = self._parse_select()
                self._expect_symbol(")")
                return ast.ScalarSubquery(subquery=subquery)
            expr = self._parse_expr()
            self._expect_symbol(")")
            return expr
        if token.type is TokenType.IDENT or (
            token.type is TokenType.KEYWORD and token.value in ("year", "month")
        ):
            return self._parse_identifier()
        raise self._error("expected expression")

    def _parse_identifier(self) -> ast.Identifier:
        parts = [self._expect_ident()]
        while self._accept_symbol("."):
            parts.append(self._expect_ident())
        return ast.Identifier(parts=tuple(parts))

    def _parse_function_call(self) -> ast.FunctionCall:
        name = str(self._advance().value)
        self._expect_symbol("(")
        if self._accept_symbol("*"):
            self._expect_symbol(")")
            return ast.FunctionCall(name=name, args=[], star=True)
        distinct = self._accept_keyword("distinct")
        args = self._comma_list(self._parse_expr)
        self._expect_symbol(")")
        return ast.FunctionCall(name=name, args=args, distinct=distinct)

    def _parse_case(self) -> ast.Case:
        self._expect_keyword("case")
        whens: List[Tuple[ast.SqlExpr, ast.SqlExpr]] = []
        while self._accept_keyword("when"):
            condition = self._parse_expr()
            self._expect_keyword("then")
            value = self._parse_expr()
            whens.append((condition, value))
        if not whens:
            raise self._error("CASE requires at least one WHEN")
        default = None
        if self._accept_keyword("else"):
            default = self._parse_expr()
        self._expect_keyword("end")
        return ast.Case(whens=whens, default=default)

    def _parse_extract(self) -> ast.FunctionCall:
        self._expect_keyword("extract")
        self._expect_symbol("(")
        part = self._current
        if part.is_keyword("year"):
            name = "extract_year"
        elif part.is_keyword("month"):
            name = "extract_month"
        else:
            raise self._error("EXTRACT supports YEAR and MONTH")
        self._advance()
        self._expect_keyword("from")
        operand = self._parse_expr()
        self._expect_symbol(")")
        return ast.FunctionCall(name=name, args=[operand])

    def _parse_substring(self) -> ast.FunctionCall:
        self._expect_keyword("substring")
        self._expect_symbol("(")
        operand = self._parse_expr()
        if self._accept_keyword("from"):
            start = self._parse_expr()
            args = [operand, start]
            if self._accept_keyword("for"):
                args.append(self._parse_expr())
        else:
            self._expect_symbol(",")
            start = self._parse_expr()
            args = [operand, start]
            if self._accept_symbol(","):
                args.append(self._parse_expr())
        self._expect_symbol(")")
        return ast.FunctionCall(name="substring", args=args)


def _negate(expr: ast.SqlExpr) -> ast.SqlExpr:
    """Push a NOT into the operand where a dedicated negated form exists."""
    if isinstance(expr, ast.ExistsExpr):
        return ast.ExistsExpr(subquery=expr.subquery, negated=not expr.negated)
    if isinstance(expr, ast.InExpr):
        return ast.InExpr(
            operand=expr.operand,
            values=expr.values,
            subquery=expr.subquery,
            negated=not expr.negated,
        )
    if isinstance(expr, ast.LikeExprAst):
        return ast.LikeExprAst(
            operand=expr.operand, pattern=expr.pattern, negated=not expr.negated
        )
    if isinstance(expr, ast.IsNullExpr):
        return ast.IsNullExpr(operand=expr.operand, negated=not expr.negated)
    if isinstance(expr, ast.BetweenExpr):
        return ast.BetweenExpr(
            operand=expr.operand,
            low=expr.low,
            high=expr.high,
            negated=not expr.negated,
        )
    return ast.Unary(op="NOT", operand=expr)
