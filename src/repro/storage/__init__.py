"""Partitioned storage behind pluggable adapters: tables, partitions, indexes."""

from repro.storage.adapters import (
    AdapterCosts,
    StorageAdapter,
    create_adapter,
)
from repro.storage.store import DataStore
from repro.storage.table import PartitionIndex, Row, TableData, affinity_partition

__all__ = [
    "AdapterCosts",
    "DataStore",
    "PartitionIndex",
    "Row",
    "StorageAdapter",
    "TableData",
    "affinity_partition",
    "create_adapter",
]
