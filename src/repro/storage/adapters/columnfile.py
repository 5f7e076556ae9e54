"""A columnar on-disk (Parquet-like) storage adapter.

Each partition is materialised as one file of column-major *row groups*
with a trailing JSON footer — offsets, row counts and per-column min/max
*zone maps* — and a fixed-width footer-length trailer, the Parquet layout
in miniature.  Scans read the footer first and skip any row group whose
zone map proves it cannot satisfy a pushed sargable conjunct, so a pushed
filter reduces both the rows decoded (``scanned``) and the rows returned.

Capabilities: accepts filter and projection pushdown, *declines* LIMIT
pushdown — the built-in negative case showing the planner keeping the
engine-side Limit when the adapter does not advertise the capability.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from typing import Dict, List, Optional, Tuple

from repro.storage.adapters.base import (
    AdapterCosts,
    PushedScan,
    StorageAdapter,
)
from repro.storage.table import Row, TableData

#: Rows per row group; small enough that zone maps prune at test scale.
ROW_GROUP_ROWS = 256

#: Fixed-width decimal trailer encoding the footer's byte length.
_TRAILER_BYTES = 16


def _zone(values: List[object]) -> Optional[Tuple[object, object]]:
    """(min, max) over non-null values; None when unorderable or empty."""
    present = [v for v in values if v is not None]
    if not present:
        return None
    try:
        return min(present), max(present)
    except TypeError:
        return None


class ColumnFileAdapter(StorageAdapter):
    """Columnar on-disk storage with footer metadata and zone maps."""

    name = "columnfile"
    supports_filter_pushdown = True
    supports_project_pushdown = True
    supports_limit_pushdown = False
    #: Columnar decode is cheaper per row than the interpreted row path,
    #: but every scanned row pays an IO decode charge.
    costs = AdapterCosts(scan_cpu_factor=0.5, io_units_per_row=0.4)

    def __init__(self):
        self._dir: Optional[str] = None
        #: table name -> per-partition file paths.
        self._files: Dict[str, List[str]] = {}
        #: table name -> per-partition decoded footers.
        self._footers: Dict[str, List[dict]] = {}
        #: Row groups skipped by zone-map pruning (observability/tests).
        self.groups_pruned = 0
        self.groups_read = 0

    # -- lifecycle ------------------------------------------------------------

    def attach(self, data: TableData) -> None:
        if self._dir is None:
            self._dir = tempfile.mkdtemp(prefix="repro-columnfile-")
        name = data.schema.name
        files: List[str] = []
        footers: List[dict] = []
        for part, rows in enumerate(data.partitions):
            path = os.path.join(self._dir, f"{name}.p{part}.colf")
            footers.append(self._write_partition(path, rows, data.schema.width))
            files.append(path)
        self._files[name] = files
        self._footers[name] = footers

    def detach(self, data: TableData) -> None:
        name = data.schema.name
        for path in self._files.pop(name, ()):  # pragma: no branch
            if os.path.exists(path):
                os.remove(path)
        self._footers.pop(name, None)

    def __del__(self):  # pragma: no cover - GC cleanup
        try:
            if self._dir is not None and os.path.isdir(self._dir):
                shutil.rmtree(self._dir, ignore_errors=True)
        except Exception:
            pass

    # -- file format ----------------------------------------------------------

    def _write_partition(self, path: str, rows: List[Row], width: int) -> dict:
        groups = []
        payloads = []
        offset = 0
        for start in range(0, len(rows), ROW_GROUP_ROWS):
            chunk = rows[start : start + ROW_GROUP_ROWS]
            columns = [[row[i] for row in chunk] for i in range(width)]
            payload = json.dumps(columns, separators=(",", ":")).encode("utf-8")
            groups.append({
                "offset": offset,
                "length": len(payload),
                "rows": len(chunk),
                "zones": [_zone(col) for col in columns],
            })
            payloads.append(payload)
            offset += len(payload)
        footer = {"groups": groups, "rows": len(rows), "width": width}
        footer_bytes = json.dumps(footer, separators=(",", ":")).encode("utf-8")
        with open(path, "wb") as handle:
            for payload in payloads:
                handle.write(payload)
            handle.write(footer_bytes)
            handle.write(b"%0*d" % (_TRAILER_BYTES, len(footer_bytes)))
        return footer

    @staticmethod
    def read_footer(path: str) -> dict:
        """Decode a column file's footer (via the fixed-width trailer)."""
        with open(path, "rb") as handle:
            handle.seek(-_TRAILER_BYTES, os.SEEK_END)
            footer_len = int(handle.read(_TRAILER_BYTES))
            handle.seek(-(_TRAILER_BYTES + footer_len), os.SEEK_END)
            return json.loads(handle.read(footer_len))

    # -- scanning -------------------------------------------------------------

    def _group_may_match(
        self, zones: List[Optional[Tuple[object, object]]], pushed: PushedScan
    ) -> bool:
        """False only when a sargable bound proves no row in the group can
        satisfy the pushed filter (conservative on missing/unorderable
        zone maps and cross-type comparisons)."""
        for index, lo, lo_inc, hi, hi_inc in pushed.bounds:
            if index >= len(zones) or zones[index] is None:
                continue
            zmin, zmax = zones[index]
            try:
                if lo is not None and (zmax < lo or (zmax == lo and not lo_inc)):
                    return False
                if hi is not None and (zmin > hi or (zmin == hi and not hi_inc)):
                    return False
            except TypeError:
                continue
        return True

    def scan_partition(
        self, data: TableData, partition: int, pushed: Optional[PushedScan]
    ) -> Tuple[int, List[Row]]:
        name = data.schema.name
        path = self._files[name][partition]
        footer = self._footers[name][partition]
        rows: List[Row] = []
        scanned = 0
        with open(path, "rb") as handle:
            for group in footer["groups"]:
                if pushed is not None and pushed.bounds and not self._group_may_match(
                    group["zones"], pushed
                ):
                    self.groups_pruned += 1
                    continue
                self.groups_read += 1
                handle.seek(group["offset"])
                columns = json.loads(handle.read(group["length"]))
                decoded = list(zip(*columns)) if columns and columns[0] else []
                scanned += len(decoded)
                if pushed is not None:
                    remaining = None
                    if pushed.fetch is not None:
                        remaining = pushed.fetch - len(rows)
                        if remaining <= 0:
                            break
                    survivors = pushed.apply(decoded)
                    if remaining is not None:
                        survivors = survivors[:remaining]
                    rows.extend(survivors)
                else:
                    rows.extend(decoded)
        return scanned, rows

