"""The sort ledger: the keyed kernels must stay sort-free where they can.

Sibling of the materialisation ledger, counting sorts instead of
gathers.  On a warm pass (caches built) every ``np.unique`` /
``np.lexsort`` / ``np.argsort`` / ``np.searchsorted`` the columnar
interpreter makes is recorded with the functions of
``repro/exec/columnar.py`` on the stack, and

* nothing under ``_exec_index_scan`` sorts: a scan slices the merged
  per-site index order built by the first one;
* TPC-H's surrogate keys are dense, so no join of Q3/Q9/Q18 binary
  searches (the direct-address probe) and no grouping of Q1/Q18 runs
  ``np.unique`` over integer codes;
* SSB's ``yyyymmdd`` date keys are sparse (about 6.6 M codes over a few
  thousand rows), so Q1.1's join still takes the sorted probe — neither
  path is allowed to rot.
"""

import sys
from collections import Counter

import numpy as np
import pytest

from repro.bench.ssb import load_ssb_cluster
from repro.bench.ssb.queries import SSB_QUERIES
from repro.bench.tpch import load_tpch_cluster
from repro.bench.tpch.queries import QUERIES
from repro.common.config import PRESETS
from repro.exec import columnar
from repro.exec.physical import PhysIndexScan

pytestmark = pytest.mark.columnar

SORTS = ("unique", "lexsort", "argsort", "searchsorted")


class SortLedger:
    """``calls[(numpy function, columnar functions on the stack)]``,
    innermost first; ``ran`` counts the kernels the asserts are about."""

    def __init__(self, monkeypatch):
        self.calls = Counter()
        self.ran = Counter()
        for name in SORTS:
            monkeypatch.setattr(np, name, self.counted(name, getattr(np, name)))
        for name in ("_equi_candidates", "_group_ids"):
            monkeypatch.setattr(
                columnar, name, self.noted(name, getattr(columnar, name))
            )
        monkeypatch.setitem(
            columnar._HANDLERS, PhysIndexScan,
            self.noted("_exec_index_scan", columnar._exec_index_scan),
        )

    def counted(self, name, function):
        def call(*args, **kwargs):
            stack, frame = [], sys._getframe(1)
            while frame is not None:
                if frame.f_code.co_filename == columnar.__file__:
                    stack.append(frame.f_code.co_name)
                frame = frame.f_back
            if stack:
                self.calls[name, tuple(stack)] += 1
            return function(*args, **kwargs)

        return call

    def noted(self, name, function):
        def call(*args, **kwargs):
            self.ran[name] += 1
            return function(*args, **kwargs)

        return call

    def under(self, function, sorts=SORTS):
        return {
            key: n for key, n in self.calls.items()
            if key[0] in sorts and function in key[1]
        }


def warm_ledger(cluster, monkeypatch, sqls):
    for sql in sqls:
        cluster.sql(sql)
    ledger = SortLedger(monkeypatch)
    for sql in sqls:
        cluster.sql(sql)
    return ledger


def config():
    return PRESETS["IC+M"](4).with_(execution_backend="columnar")


def test_dense_tpch_keys_never_sort_to_probe_group_or_scan(monkeypatch):
    cluster = load_tpch_cluster(config(), 0.02)
    ledger = warm_ledger(
        cluster, monkeypatch, [QUERIES[q].sql for q in (1, 3, 9, 18)]
    )
    assert ledger.calls, "the numpy hooks never fired"
    for kernel in ("_exec_index_scan", "_equi_candidates", "_group_ids"):
        assert ledger.ran[kernel], f"{kernel} never ran"
    assert not ledger.under("_exec_index_scan")
    assert not ledger.under("_equi_candidates", ("searchsorted", "argsort"))
    assert not ledger.under("_group_ids", ("argsort",))
    # Grouping may still factorise a string key (Q1's flags) — never the
    # integer codes themselves.
    assert all(
        key[1][0] == "_group_codes" for key in ledger.under("_group_ids")
    )


def test_sparse_ssb_date_key_still_takes_the_sorted_probe(monkeypatch):
    cluster = load_ssb_cluster(config(), 0.02)
    ledger = warm_ledger(cluster, monkeypatch, [SSB_QUERIES["Q1.1"].sql])
    assert ledger.ran["_equi_candidates"]
    sorted_probe = ledger.under("_equi_candidates", ("searchsorted",))
    assert sorted_probe and all(
        key[1][0] == "_equi_candidates" for key in sorted_probe
    )
    assert ledger.under("_equi_candidates", ("argsort",))
