"""The native in-memory adapter: the historical engine as an adapter.

Declines every pushdown capability and keeps the default cost constants,
so scans of ``USING native`` tables plan, cost and execute byte-identically
to the pre-adapter engine — the differential anchor every other adapter is
measured against.
"""

from __future__ import annotations

from repro.storage.adapters.base import StorageAdapter


class NativeAdapter(StorageAdapter):
    """Partitioned in-memory storage, scanned by the engine itself."""

    name = "native"
    supports_filter_pushdown = False
    supports_project_pushdown = False
    supports_limit_pushdown = False

