"""The sort ledger: the keyed kernels must stay sort-free where they can.

Sibling of the materialisation ledger, counting sorts instead of
gathers.  On a warm pass (caches built) every ``np.unique`` /
``np.lexsort`` / ``np.argsort`` / ``np.searchsorted`` the columnar
interpreter makes is recorded with the functions of
``repro/exec/columnar.py`` on the stack, and

* nothing under ``_exec_index_scan`` sorts: a scan slices the merged
  per-site index order built by the first one;
* TPC-H's surrogate keys are dense, so at SF 0.02 — below every bound
  of the semi-join reduction — no join of Q3/Q9/Q18 binary searches
  (the direct-address probe) and no grouping of Q1/Q18 runs
  ``np.unique`` over integer codes;
* where a join *is* reduced first (``columnar._semi_reduce``), every
  sort or search it makes sees at most as many values as the join has
  candidate pairs: Q9's two-column joins at SF 1 (two ``bool`` tables
  over ≈ 200 k code slots) and SSB Q3.4's one-month date joins (31
  probe dates against ≈ 7,500 build rows per site, by a search of the
  sorted probe codes);
* SSB's ``yyyymmdd`` date keys are sparse (about 20 M code slots over a
  few thousand rows), so Q1.1's join at SF 0.02 and Q3.1's mid-size
  joins at SF 1 (334–380 probe rows against 2,192) still take the plain
  sorted probe over the whole build side — no path is allowed to rot.
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
    innermost first; ``ran`` counts the kernels the asserts are about;
    ``probes`` holds one :class:`Probe` per ``_equi_candidates`` call."""

    def __init__(self, monkeypatch):
        self.calls = Counter()
        self.ran = Counter()
        self.probes = []
        self._probe = None
        for name in SORTS:
            monkeypatch.setattr(np, name, self.counted(name, getattr(np, name)))
        # A plain sort is what direct addressing uses on a non-unique build
        # side: not counted above, but seen by a reduced probe.
        monkeypatch.setattr(np, "sort", self.seen(np.sort))
        monkeypatch.setattr(columnar, "_group_ids", self.noted(
            "_group_ids", columnar._group_ids
        ))
        monkeypatch.setattr(columnar, "_equi_candidates", self.probed(
            columnar._equi_candidates
        ))
        reduce = columnar._semi_reduce
        monkeypatch.setattr(columnar, "_semi_reduce", lambda *args: self.reduced(
            reduce(*args)
        ))
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
            if self._probe is not None:  # the sorted or searched values
                self._probe.seen.append(len(args[0][0] if name == "lexsort" else args[0]))
            return function(*args, **kwargs)

        return call

    def seen(self, function):
        def call(values, *args, **kwargs):
            if self._probe is not None:
                self._probe.seen.append(len(values))
            return function(values, *args, **kwargs)

        return call

    def probed(self, function):
        def call(left, right, pairs):
            self.ran["_equi_candidates"] += 1
            self._probe = Probe(len(pairs), left.length, right.length)
            try:
                out = function(left, right, pairs)
            finally:
                probe, self._probe = self._probe, None
            probe.candidates = len(out[0])
            self.probes.append(probe)
            return out

        return call

    def reduced(self, result):
        if self._probe is not None:
            self._probe.reduced = result is not None
        return result

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


class Probe:
    """One probe: key width, side lengths, whether it was semi-join
    reduced, its candidate pairs, and the length of every array a numpy
    sort or search under it was handed (a search's sorted haystack)."""

    def __init__(self, width, left, right):
        self.width, self.left, self.right = width, left, right
        self.reduced = False
        self.candidates = 0
        self.seen = []


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


@pytest.fixture(scope="module")
def tpch_sf1():
    return load_tpch_cluster(config(), 1.0)


@pytest.fixture(scope="module")
def ssb_sf1():
    return load_ssb_cluster(config(), 1.0)


def test_q9_two_column_joins_sort_no_more_than_their_candidates(
    tpch_sf1, monkeypatch
):
    ledger = warm_ledger(tpch_sf1, monkeypatch, [QUERIES[9].sql])
    joins = [probe for probe in ledger.probes if probe.width == 2]
    assert joins, "Q9 ran no two-column join"
    for probe in joins:
        assert probe.reduced and probe.seen, vars(probe)
        assert max(probe.seen) <= probe.candidates, vars(probe)


def test_ssb_date_keys_reduce_one_month_and_sort_mid_size(ssb_sf1, monkeypatch):
    ledger = warm_ledger(
        ssb_sf1, monkeypatch, [SSB_QUERIES[q].sql for q in ("Q3.4", "Q3.1")]
    )
    one_month = [probe for probe in ledger.probes if probe.left == 31]
    assert len(one_month) == 4, "one per site"
    for probe in one_month:
        assert probe.reduced and probe.right > 7000, vars(probe)
        assert max(probe.seen) <= probe.candidates, vars(probe)
    mid_size = [probe for probe in ledger.probes if 300 < probe.left < 400]
    assert len(mid_size) == 4
    for probe in mid_size:
        assert not probe.reduced and probe.right == 2192, vars(probe)
        assert max(probe.seen) == probe.right  # the whole build side sorted


def test_sparse_ssb_date_key_still_takes_the_sorted_probe(monkeypatch):
    cluster = load_ssb_cluster(config(), 0.02)
    ledger = warm_ledger(cluster, monkeypatch, [SSB_QUERIES["Q1.1"].sql])
    assert ledger.ran["_equi_candidates"]
    sorted_probe = ledger.under("_equi_candidates", ("searchsorted",))
    assert sorted_probe and all(
        key[1][0] == "_equi_candidates" for key in sorted_probe
    )
    assert ledger.under("_equi_candidates", ("argsort",))
