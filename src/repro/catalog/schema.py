"""Table schemas, indexes and the catalog.

Mirrors the metadata Ignite keeps and re-serves to Calcite through provider
hooks (Section 3.1-3.2): schema definitions, key/affinity information and
index definitions.  Statistics live in :mod:`repro.catalog.statistics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog.types import ColumnType
from repro.common.errors import CatalogError


@dataclass(frozen=True)
class Column:
    """One column of a table."""

    name: str
    type: ColumnType
    nullable: bool = False

    def __post_init__(self):
        if not self.name or not self.name.isidentifier():
            raise CatalogError(f"invalid column name: {self.name!r}")


@dataclass(frozen=True)
class IndexDef:
    """A secondary sorted index over one or more columns.

    The paper creates 16 indexes for TPC-H and 9 for SSB (Section 6);
    indexes give the planner an ordered access path (index scans feed
    merge joins and sort-based aggregation without an explicit sort).
    """

    name: str
    table: str
    columns: Tuple[str, ...]

    def __post_init__(self):
        if not self.columns:
            raise CatalogError(f"index {self.name} has no columns")


class TableSchema:
    """Schema of one table: columns, keys, distribution and indexes."""

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Sequence[str],
        affinity_key: Optional[str] = None,
        replicated: bool = False,
        adapter: str = "native",
    ):
        if not columns:
            raise CatalogError(f"table {name} has no columns")
        self.name = name.lower()
        #: Storage adapter backing this table (``CREATE TABLE ... USING``).
        self.adapter = adapter.lower()
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._index_of: Dict[str, int] = {}
        for pos, col in enumerate(self.columns):
            key = col.name.lower()
            if key in self._index_of:
                raise CatalogError(f"duplicate column {col.name} in {name}")
            self._index_of[key] = pos
        self.primary_key: Tuple[str, ...] = tuple(c.lower() for c in primary_key)
        for col in self.primary_key:
            if col not in self._index_of:
                raise CatalogError(f"primary key column {col} not in {name}")
        self.replicated = replicated
        if replicated:
            self.affinity_key = None
        else:
            # Partitioned tables hash-distribute on the affinity key, which
            # defaults to the first primary-key column (Ignite's behaviour).
            key = (affinity_key or self.primary_key[0]).lower()
            if key not in self._index_of:
                raise CatalogError(f"affinity key {key} not in {name}")
            self.affinity_key = key
        self.indexes: Dict[str, IndexDef] = {}

    # -- columns ------------------------------------------------------------

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    @property
    def width(self) -> int:
        """Column count; the ``deg(A)`` of the paper's Eq. 4."""
        return len(self.columns)

    def column_index(self, name: str) -> int:
        try:
            return self._index_of[name.lower()]
        except KeyError:
            raise CatalogError(f"no column {name} in table {self.name}") from None

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    # -- indexes ------------------------------------------------------------

    def add_index(self, name: str, columns: Sequence[str]) -> IndexDef:
        cols = tuple(c.lower() for c in columns)
        for col in cols:
            if col not in self._index_of:
                raise CatalogError(f"index column {col} not in {self.name}")
        if name in self.indexes:
            raise CatalogError(f"duplicate index {name} on {self.name}")
        index = IndexDef(name=name, table=self.name, columns=cols)
        self.indexes[name] = index
        return index

    @property
    def affinity_index(self) -> Optional[int]:
        if self.affinity_key is None:
            return None
        return self._index_of[self.affinity_key]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "replicated" if self.replicated else f"partitioned({self.affinity_key})"
        return f"TableSchema({self.name}, {len(self.columns)} cols, {kind})"


@dataclass
class Catalog:
    """A registry of table schemas, one per cluster.

    This is the metadata store Ignite exposes to Calcite via provider
    functions; planners resolve table and column references against it.
    """

    tables: Dict[str, TableSchema] = field(default_factory=dict)

    def register(self, schema: TableSchema) -> TableSchema:
        if schema.name in self.tables:
            raise CatalogError(f"table {schema.name} already registered")
        self.tables[schema.name] = schema
        return schema

    def unregister(self, name: str) -> None:
        """Drop one table's schema (DROP TABLE / temp-table cleanup)."""
        try:
            del self.tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table: {name}") from None

    def table(self, name: str) -> TableSchema:
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table: {name}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self.tables

    def table_names(self) -> List[str]:
        return sorted(self.tables)
