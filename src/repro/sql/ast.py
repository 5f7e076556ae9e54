"""Abstract syntax tree for the supported SQL dialect.

The dialect covers everything the TPC-H and SSB workloads need once their
parameter templates are instantiated with concrete literals: joins (comma
and explicit JOIN ... ON), WHERE/GROUP BY/HAVING/ORDER BY/LIMIT, aggregate
functions with DISTINCT, IN lists and IN subqueries, EXISTS/NOT EXISTS,
scalar subqueries (correlated and uncorrelated), BETWEEN, LIKE, CASE, and
EXTRACT/SUBSTRING scalar functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union


# --- expressions -----------------------------------------------------------


class SqlExpr:
    """Base class for parsed (unresolved) expressions."""


@dataclass
class Identifier(SqlExpr):
    """A possibly qualified column reference: ``l_orderkey`` or ``l.l_orderkey``."""

    parts: Tuple[str, ...]

    @property
    def qualifier(self) -> Optional[str]:
        return self.parts[0] if len(self.parts) > 1 else None

    @property
    def column(self) -> str:
        return self.parts[-1]


@dataclass
class NumberLiteral(SqlExpr):
    value: Union[int, float]


@dataclass
class StringLiteral(SqlExpr):
    value: str


@dataclass
class BoolLiteral(SqlExpr):
    value: bool


@dataclass
class NullLiteral(SqlExpr):
    pass


@dataclass
class Binary(SqlExpr):
    op: str
    left: SqlExpr
    right: SqlExpr


@dataclass
class Unary(SqlExpr):
    op: str
    operand: SqlExpr


@dataclass
class FunctionCall(SqlExpr):
    """Scalar or aggregate function call.  ``star`` marks ``COUNT(*)``."""

    name: str
    args: List[SqlExpr]
    distinct: bool = False
    star: bool = False


@dataclass
class Case(SqlExpr):
    whens: List[Tuple[SqlExpr, SqlExpr]]
    default: Optional[SqlExpr]


@dataclass
class InExpr(SqlExpr):
    """``operand IN (...)`` — list of literals or a subquery."""

    operand: SqlExpr
    values: Optional[List[SqlExpr]]
    subquery: Optional["Select"]
    negated: bool = False


@dataclass
class ExistsExpr(SqlExpr):
    subquery: "Select"
    negated: bool = False


@dataclass
class ScalarSubquery(SqlExpr):
    subquery: "Select"


@dataclass
class BetweenExpr(SqlExpr):
    operand: SqlExpr
    low: SqlExpr
    high: SqlExpr
    negated: bool = False


@dataclass
class LikeExprAst(SqlExpr):
    operand: SqlExpr
    pattern: str
    negated: bool = False


@dataclass
class IsNullExpr(SqlExpr):
    operand: SqlExpr
    negated: bool = False


# --- relations ----------------------------------------------------------------


class TableExpr:
    """Base class for FROM items."""


@dataclass
class TableRef(TableExpr):
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return (self.alias or self.name).lower()


@dataclass
class SubqueryRef(TableExpr):
    select: "Select"
    alias: str

    @property
    def binding(self) -> str:
        return self.alias.lower()


@dataclass
class JoinExpr(TableExpr):
    left: TableExpr
    right: TableExpr
    kind: str  # "inner" | "left"
    condition: Optional[SqlExpr]


# --- statements -----------------------------------------------------------------


@dataclass
class SelectItem:
    expr: SqlExpr
    alias: Optional[str] = None


@dataclass
class OrderItem:
    expr: SqlExpr
    ascending: bool = True


@dataclass
class Select:
    """A SELECT statement (the only DML the OLAP workloads need)."""

    items: List[SelectItem]
    from_items: List[TableExpr]
    where: Optional[SqlExpr] = None
    group_by: List[SqlExpr] = field(default_factory=list)
    having: Optional[SqlExpr] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False


@dataclass
class Explain:
    """``EXPLAIN [ANALYZE] select``.

    Plain EXPLAIN renders the physical plan with cost estimates; EXPLAIN
    ANALYZE additionally executes the query and annotates every operator
    with actual row counts and the per-operator q-error (Section 5's
    estimated-versus-actual comparison).
    """

    select: Select
    analyze: bool = False


@dataclass
class CreateTable:
    """``CREATE TABLE name (col TYPE, ..., PRIMARY KEY (...)) [USING adapter]``.

    The ``USING`` clause routes the table to a registered storage adapter
    (``native``, ``columnfile``, ``remote``); omitted means the native
    in-memory row store.  ``primary_key`` is empty when the statement has
    no PRIMARY KEY clause — the first column becomes the key (and thereby
    the affinity key), matching Ignite's default.
    """

    name: str
    columns: List[Tuple[str, str]]
    primary_key: List[str] = field(default_factory=list)
    adapter: Optional[str] = None
