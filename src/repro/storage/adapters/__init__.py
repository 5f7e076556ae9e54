"""Pluggable storage adapters: native in-memory, columnar on-disk, remote.

Importing this package registers the built-in adapters; ``CREATE TABLE
... USING <adapter>`` and :meth:`repro.storage.store.DataStore.create_table`
resolve names through :func:`create_adapter`.
"""

from repro.storage.adapters.base import (
    AdapterCosts,
    PushedScan,
    StorageAdapter,
    compile_pushdown,
    create_adapter,
    register_adapter,
    sargable_bounds,
    scan_charge,
)
from repro.storage.adapters.columnfile import ColumnFileAdapter
from repro.storage.adapters.native import NativeAdapter
from repro.storage.adapters.remote import RemoteCatalogAdapter

__all__ = [
    "AdapterCosts",
    "ColumnFileAdapter",
    "NativeAdapter",
    "PushedScan",
    "RemoteCatalogAdapter",
    "StorageAdapter",
    "compile_pushdown",
    "create_adapter",
    "register_adapter",
    "sargable_bounds",
    "scan_charge",
]
