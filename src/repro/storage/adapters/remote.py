"""A simulated remote-catalog storage adapter.

Models a federated source behind a network gateway (a remote Ignite
cluster, a cloud warehouse): every scan pays a per-request round-trip
charge plus a per-shipped-row bandwidth charge.  Its partitions are
placed like every other table's (``storage.table.failover_owner``), so
co-located join plans over it stay correct; the asymmetry is in the
charges alone.  Because shipping dominates, the adapter accepts *all
three* pushdowns: filtering, projecting and LIMIT-capping at the source
cut the rows crossing the simulated wire, which is exactly the asymmetry
that makes IC/IC+/IC+M pick different plans for federated tables.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.constants import NETWORK_UNITS_PER_MESSAGE
from repro.storage.adapters.base import (
    AdapterCosts,
    PushedScan,
    StorageAdapter,
)
from repro.storage.table import Row, TableData


class RemoteCatalogAdapter(StorageAdapter):
    """Latency/bandwidth-charged scans of a source behind one gateway."""

    name = "remote"
    supports_filter_pushdown = True
    supports_project_pushdown = True
    supports_limit_pushdown = True
    #: One message charge per partition request, heavy per-row shipping.
    costs = AdapterCosts(
        scan_cpu_factor=1.0,
        request_units=NETWORK_UNITS_PER_MESSAGE,
        network_units_per_row=2.0,
    )

    def __init__(self):
        #: Scan requests issued against the remote source (observability).
        self.requests = 0
        #: Rows shipped back over the simulated wire.
        self.rows_shipped = 0

    def scan_partition(
        self, data: TableData, partition: int, pushed: Optional[PushedScan]
    ) -> Tuple[int, List[Row]]:
        self.requests += 1
        source = data.partitions[partition]
        if pushed is None:
            rows = list(source)
        else:
            rows = pushed.apply(source)
        self.rows_shipped += len(rows)
        return len(source), rows
