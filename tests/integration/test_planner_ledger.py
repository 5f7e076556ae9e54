"""The planner ledger: the science a planner refactor must not move.

For every TPC-H and SSB query under IC / IC+ / IC+M (4 sites) one golden
file pins, to the byte, what planning produced — the outcome class, the
budget ticks spent (the paper's Section 4.3 search-space measure), the
number of join orders enumerated, the EXPLAIN text (as a sha256) and the
root plan's cumulative cost, each of its four components as
``float.hex()`` so a reordered floating-point sum cannot hide.

A change that only makes the planner faster leaves this file untouched.
To accept an intended change of search strategy or cost arithmetic::

    PYTHONPATH=src python -m pytest tests/integration/test_planner_ledger.py \
        --snapshot-update
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.ssb import SSB_QUERIES, load_ssb_cluster
from repro.bench.tpch import QUERIES, load_tpch_cluster
from repro.common.config import PRESETS
from repro.common.errors import PlanningTimeoutError, ReproError
from repro.obs.metrics import get_registry
from repro.planner.volcano import QueryPlanner

pytestmark = pytest.mark.obs

LEDGER = Path(__file__).resolve().parent.parent / "golden" / "planner-ledger.json"

SYSTEMS = ("IC", "IC+", "IC+M")
SITES = 4
SCALE_FACTOR = 0.05


def _workloads():
    yield "tpch", load_tpch_cluster, {
        spec.name: spec.sql for _, spec in sorted(QUERIES.items())
    }
    yield "ssb", load_ssb_cluster, {
        qid: spec.sql for qid, spec in sorted(SSB_QUERIES.items())
    }


def _plan_cell(cluster, sql: str) -> dict:
    """Plan ``sql`` once and record everything the ledger pins."""
    planner = QueryPlanner(cluster.store, cluster.config, sketches=cluster.sketches)
    orders_before = get_registry().counter("planner.join_orders_enumerated")
    cell = {"status": "ok"}
    try:
        plan = planner.plan(cluster.parse_to_logical(sql))
    except PlanningTimeoutError as exc:
        cell["status"] = type(exc).__name__
        cell["budget_spent"] = exc.spent
    except ReproError as exc:
        cell["status"] = type(exc).__name__
    else:
        total = plan.total_cost()
        cell["budget_spent"] = planner.last_budget_spent
        cell["explain_sha256"] = hashlib.sha256(
            (plan.explain() + "\n").encode("utf-8")
        ).hexdigest()
        cell["total_cost"] = {
            part: float(getattr(total, part)).hex()
            for part in ("cpu", "memory", "io", "network")
        }
    cell["join_orders_enumerated"] = int(
        get_registry().counter("planner.join_orders_enumerated") - orders_before
    )
    return cell


def build_ledger() -> str:
    cells = {}
    for workload, load, queries in _workloads():
        for system in SYSTEMS:
            cluster = load(PRESETS[system](SITES), SCALE_FACTOR)
            for name, sql in queries.items():
                cells[f"{workload}/{name}/{system}"] = _plan_cell(cluster, sql)
    return json.dumps(cells, indent=1, sort_keys=True) + "\n"


def test_planner_ledger_is_byte_identical(snapshot_update):
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
        f"  {k}: {want.get(k)} -> {got.get(k)}" for k in moved[:10]
    )
    pytest.fail(
        f"{len(moved)} planner-ledger cell(s) moved (ticks, join orders, plan "
        f"text or cost bits); if intended, re-run with --snapshot-update\n{detail}"
    )


def test_planner_ledger_does_not_depend_on_hash_order():
    """Every cell re-planned in a fresh interpreter under a fixed string
    hash seed matches the golden file: no ranking, tie-break or memo walk
    may follow set or dict-of-str iteration order."""
    here = Path(__file__).resolve().parent
    env = dict(
        os.environ,
        PYTHONHASHSEED="1",
        PYTHONPATH=os.pathsep.join((str(here.parents[1] / "src"), str(here))),
    )
    script = (
        "import sys\n"
        "from test_planner_ledger import build_ledger\n"
        "sys.stdout.write(build_ledger())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == LEDGER.read_text(encoding="utf-8")
