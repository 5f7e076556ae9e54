"""Pluggable storage adapters: native in-memory, columnar on-disk, remote.

``CREATE TABLE ... USING <adapter>`` and
:meth:`repro.storage.store.DataStore.create_table` resolve names through
:func:`create_adapter`, over the literal table of built-in adapters below.
"""

from types import MappingProxyType

from repro.common.errors import StorageError
from repro.storage.adapters.base import StorageAdapter
from repro.storage.adapters.columnfile import ColumnFileAdapter
from repro.storage.adapters.native import NativeAdapter
from repro.storage.adapters.remote import RemoteCatalogAdapter

_ADAPTERS = MappingProxyType({
    "native": NativeAdapter,
    "columnfile": ColumnFileAdapter,
    "remote": RemoteCatalogAdapter,
})


def create_adapter(name: str) -> StorageAdapter:
    """Instantiate the adapter named ``name`` (DDL routing)."""
    try:
        adapter = _ADAPTERS[name.lower()]
    except KeyError:
        raise StorageError(
            f"unknown storage adapter {name!r}; "
            f"registered: {', '.join(sorted(_ADAPTERS))}"
        ) from None
    return adapter()

