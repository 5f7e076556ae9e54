"""Column types for the reproduction's SQL dialect.

Types are deliberately lean: the engine stores rows as plain Python tuples
and uses native comparison semantics.  DATE values are stored as ISO-8601
strings (``"1994-03-15"``) whose lexicographic order equals chronological
order, which keeps date predicates allocation-free; date arithmetic is done
by the benchmark query texts using concrete literals, exactly as Benchbase
substitutes default parameters into TPC-H templates.
"""

from __future__ import annotations

import enum


class ColumnType(enum.Enum):
    """The SQL column types supported by the engine."""

    INTEGER = "INTEGER"
    BIGINT = "BIGINT"
    DOUBLE = "DOUBLE"
    DECIMAL = "DECIMAL"
    VARCHAR = "VARCHAR"
    CHAR = "CHAR"
    DATE = "DATE"
    BOOLEAN = "BOOLEAN"

    @property
    def is_numeric(self) -> bool:
        return self in _NUMERIC


_NUMERIC = frozenset(
    {ColumnType.INTEGER, ColumnType.BIGINT, ColumnType.DOUBLE, ColumnType.DECIMAL}
)
