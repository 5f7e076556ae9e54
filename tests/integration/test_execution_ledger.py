"""The execution ledger: the science an executor refactor must not move.

For every TPC-H and SSB query under IC / IC+ / IC+M (4 sites, smoke
scale) on both execution backends one golden file pins, to the byte, what
execution produced — the outcome class, every operator's actual rows and
charged work units (``float.hex()``, fragment by fragment in plan order,
so a reordered floating-point sum cannot hide), the rows shipped, the
simulated makespan and the sha256 of the result rows *in order*.

A change that only makes an interpreter faster leaves this file untouched.
To accept an intended change of charge formulas or results::

    PYTHONPATH=src python -m pytest tests/integration/test_execution_ledger.py \
        --snapshot-update
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.ssb import SSB_QUERIES, load_ssb_cluster
from repro.bench.tpch import QUERIES, load_tpch_cluster
from repro.common.config import PRESETS

pytestmark = pytest.mark.obs

LEDGER = Path(__file__).resolve().parent.parent / "golden" / "execution-ledger.json"

SYSTEMS = ("IC", "IC+", "IC+M")
BACKENDS = ("row", "columnar")
SITES = 4
SCALE_FACTOR = 0.02


def _workloads():
    yield "tpch", load_tpch_cluster, {
        spec.name: spec.sql for _, spec in sorted(QUERIES.items())
    }
    yield "ssb", load_ssb_cluster, {
        qid: spec.sql for qid, spec in sorted(SSB_QUERIES.items())
    }


def _execute_cell(cluster, sql: str) -> dict:
    """Run ``sql`` once and record everything the ledger pins."""
    outcome = cluster.try_sql(sql)
    cell = {"status": outcome.status.value}
    result = outcome.result
    if result is None:
        return cell
    operators = cell["operators"] = []
    for fragment in result.fragment_trees:
        for op in fragment.operators():
            rows, units, _ = result.operator_actuals.get(op.op_id, (0, 0.0, 0))
            operators.append(f"{type(op).__name__} {rows} {float(units).hex()}")
    cell["total_units"] = float(result.total_units).hex()
    cell["rows_shipped"] = result.rows_shipped
    cell["makespan"] = float(result.simulated_seconds).hex()
    cell["rows_sha256"] = hashlib.sha256(
        repr(result.rows).encode("utf-8")
    ).hexdigest()
    return cell


def _first_difference(want: dict, got: dict) -> str:
    for field in sorted(want.keys() | got.keys()):
        a, b = want.get(field), got.get(field)
        if a == b:
            continue
        if field == "operators" and a and b:
            for index, (x, y) in enumerate(zip(a, b)):
                if x != y:
                    return f"operator {index}: {x} -> {y}"
            return f"{len(a)} -> {len(b)} operators"
        return f"{field}: {a} -> {b}"
    return "same"


def build_ledger() -> str:
    cells = {}
    for workload, load, queries in _workloads():
        for system in SYSTEMS:
            for backend in BACKENDS:
                config = PRESETS[system](SITES).with_(execution_backend=backend)
                cluster = load(config, SCALE_FACTOR)
                for name, sql in queries.items():
                    cells[f"{workload}/{name}/{system}/{backend}"] = _execute_cell(
                        cluster, sql
                    )
    lines = [
        f" {json.dumps(key)}: {json.dumps(cell, sort_keys=True)}"
        for key, cell in sorted(cells.items())
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"  # one cell per line


def test_execution_ledger_is_byte_identical(snapshot_update):
    actual = build_ledger()
    if snapshot_update:
        LEDGER.write_text(actual, encoding="utf-8")
        return
    assert LEDGER.exists(), (
        f"missing {LEDGER.name}; run pytest with --snapshot-update to create it"
    )
    expected = LEDGER.read_text(encoding="utf-8")
    if actual == expected:
        return
    want, got = json.loads(expected), json.loads(actual)
    moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    detail = "\n".join(
        f"  {key}: {_first_difference(want.get(key, {}), got.get(key, {}))}"
        for key in moved[:10]
    )
    pytest.fail(
        f"{len(moved)} execution-ledger cell(s) moved (status, operator rows "
        f"or work units, rows shipped, makespan or result rows); if intended, "
        f"re-run with --snapshot-update\n{detail}"
    )
