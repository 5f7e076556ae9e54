"""The cluster-wide data store: catalog + table data.

One :class:`DataStore` backs one simulated cluster.  It owns the catalog
(schemas) and the loaded table data (partitions, indexes, statistics) and is
the single authority the planner's metadata providers and the execution
engine's scans consult.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.catalog.schema import Catalog, TableSchema
from repro.common.errors import StorageError
from repro.storage.adapters import create_adapter
from repro.storage.table import Row, TableData


class DataStore:
    """All data stored by one simulated Ignite cluster."""

    def __init__(self, site_count: int, partitions_per_table: int = 8):
        if site_count < 1:
            raise StorageError("site_count must be >= 1")
        self.site_count = site_count
        self.partitions_per_table = partitions_per_table
        self.catalog = Catalog()
        self._data: Dict[str, TableData] = {}

    def create_table(
        self,
        schema: TableSchema,
        rows: Sequence[Row],
        adapter: Optional[str] = None,
    ) -> TableData:
        """Register a schema and load its rows (DDL + bulk load).

        ``adapter`` overrides the schema's ``USING`` clause; each table
        gets its own adapter instance, which also decides partition
        placement and materialises any adapter-side state (column files,
        remote handles) via ``attach``.
        """
        adapter_name = (adapter or getattr(schema, "adapter", "native")).lower()
        schema.adapter = adapter_name
        self.catalog.register(schema)
        data = TableData(
            schema,
            rows,
            partition_count=self.partitions_per_table,
            site_count=self.site_count,
            adapter=create_adapter(adapter_name),
        )
        data.adapter.attach(data)
        self._data[schema.name] = data
        return data

    def drop_table(self, name: str) -> None:
        """Remove a table's schema and data (DROP TABLE).

        Used by mid-query re-optimization to clean up the ``__mq_*`` temp
        tables that hold materialized intermediates.  Detaches the
        adapter first so adapter-side state (column files, remote scan
        counters) cannot leak into a later same-named table.
        """
        key = name.lower()
        if key not in self._data:
            raise StorageError(f"no data for table {name}")
        data = self._data[key]
        if data.adapter is not None:
            data.adapter.detach(data)
        self.catalog.unregister(key)
        del self._data[key]

    def table(self, name: str) -> TableData:
        try:
            return self._data[name.lower()]
        except KeyError:
            raise StorageError(f"no data for table {name}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._data

    def table_names(self) -> List[str]:
        return sorted(self._data)

    def create_index(
        self, table: str, index_name: str, columns: Sequence[str]
    ) -> None:
        self.table(table).add_index(index_name, columns)

    def row_count(self, table: str) -> int:
        return self.table(table).row_count
