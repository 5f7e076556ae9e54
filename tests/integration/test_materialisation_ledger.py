"""The materialisation ledger: late materialisation must stay late.

The paper-faithful plans scan full-width rows and project *above* the
join chain, so the columnar interpreter is the only thing standing
between a five-way join and a copy of every comment/address column at
every level.  This test counts gathers (``Column._force`` calls), not
milliseconds: it runs TPC-H Q9 and Q18, traces every gathered column
back to the scan/receiver column it came from, and asserts that

* only columns some operator reads — a join key or residual, a filter,
  a project or aggregate argument, a sort key — or that a fragment
  ships are ever gathered, and the wide text columns are not;
* the batch a join chain hands to the project above it still carries
  every column that project ignores as an un-gathered index view (this
  catches an eager copy that bypasses ``_force`` altogether);
* a receiver's columns are concatenated only when read (the pinned
  concat and gather counts), and a broadcast receiver builds one batch
  per exchange, shared by every site it reached.
"""

from collections import Counter

import pytest

from repro.bench.ssb import load_ssb_cluster
from repro.bench.ssb.queries import SSB_QUERIES
from repro.bench.tpch import load_tpch_cluster
from repro.bench.tpch.queries import QUERIES
from repro.common.config import PRESETS
from repro.exec import columnar, operators
from repro.exec.fragments import PhysReceiver
from repro.exec.physical import (
    AggPhase,
    PhysAggregateBase,
    PhysFilter,
    PhysJoinBase,
    PhysProject,
    PhysSort,
)
from repro.rel.expr import ColRef, references

pytestmark = pytest.mark.columnar


def read_leaf_columns(node, needed, out):
    """Add to ``out`` every ``(id(leaf), position)`` that feeds the
    ``needed`` output positions of ``node`` or that an operator in the
    subtree reads on the way (the plan-side half of the ledger)."""
    if not node.inputs:
        out.update((id(node), pos) for pos in needed)
        return
    if isinstance(node, PhysJoinBase):
        split = node.left.width
        used = set(needed)
        for cond in (node.condition, getattr(node, "residual", None)):
            if cond is not None:
                used |= references(cond)
        for left_key, right_key in getattr(node, "pairs", ()):
            used |= {left_key, split + right_key}
        read_leaf_columns(node.left, {p for p in used if p < split}, out)
        read_leaf_columns(
            node.right, {p - split for p in used if p >= split}, out
        )
        return
    if isinstance(node, PhysProject):
        used = set()
        for pos, expr in enumerate(node.exprs):
            # A bare column reference is passed through un-gathered.
            if not isinstance(expr, ColRef) or pos in needed:
                used |= references(expr)
    elif isinstance(node, PhysFilter):
        used = set(needed) | references(node.condition)
    elif isinstance(node, PhysSort):
        used = set(needed) | {pos for pos, _ in node.keys}
    elif isinstance(node, PhysAggregateBase):
        if node.phase is AggPhase.REDUCE:
            used = set(range(node.input.width))
        else:
            used = set(node.group_keys)
            for call in node.agg_calls:
                if call.arg is not None:
                    used |= references(call.arg)
    else:  # PhysLimit
        used = set(needed)
    read_leaf_columns(node.inputs[0], used, out)


class Ledger:
    """Wraps every columnar handler, the fragment entry point and
    ``Column._force``."""

    def __init__(self, monkeypatch):
        self.origin = {}      # id(column) -> {(id(leaf), position)}
        self.names = {}       # (id(leaf), position) -> field name
        self.alive = []       # labelled columns/nodes: ids stay unique
        self.allowed = set()  # what the plans say may be gathered
        self.gathered = set()
        self.gathers = 0      # deferred columns gathered
        self.concats = 0      # chunked columns concatenated
        self.views_checked = 0
        self._last_output = {}
        self._force = columnar.Column._force
        run_fragment = columnar.execute_columnar

        def execute_root(node, site, ctx):  # its rows are shipped
            read_leaf_columns(node, set(range(node.width)), self.allowed)
            return run_fragment(node, site, ctx)

        monkeypatch.setattr(columnar, "execute_columnar", execute_root)
        for op_type, handler in columnar._HANDLERS.items():
            monkeypatch.setitem(
                columnar._HANDLERS, op_type, self.observed(handler)
            )
        monkeypatch.setattr(
            columnar.Column, "_force", lambda col: self.force(col)
        )

    def observed(self, handler):
        def handle(node, site, ctx, *inputs):
            result = handler(node, site, ctx, *inputs)
            self.observe(node, result[0] if type(result) is tuple else result)
            return result

        return handle

    def observe(self, node, batch):
        self._last_output[id(node)] = batch
        self.alive.append(node)
        if not node.inputs:
            for pos, col in enumerate(batch.columns):
                label = (id(node), pos)
                self.names[label] = node.fields[pos]
                for holder in (col, col._source):
                    if holder is not None:
                        self.origin.setdefault(id(holder), set()).add(label)
                        self.alive.append(holder)
        elif isinstance(node, PhysProject) and isinstance(
            node.input, PhysJoinBase
        ):
            read = set().union(*(references(e) for e in node.exprs))
            below = self._last_output[id(node.input)]
            for pos, col in enumerate(below.columns):
                if pos not in read:
                    assert col._source is not None, (
                        f"{node.input.fields[pos]} was copied by the join "
                        f"below a project that never reads it"
                    )
                    self.views_checked += 1

    def force(self, col):
        labels = self.origin.get(id(col)) or self.origin.get(id(col._source))
        if col._chunks is not None:
            self.concats += 1
        else:
            self.gathers += 1
        if labels:  # else: derived from a computed (project/aggregate) column
            self.origin[id(col)] = labels
            self.alive.append(col)
            self.gathered |= labels
        self._force(col)


CONFIG = PRESETS["IC+M"](4)


@pytest.fixture(scope="module")
def cluster():
    return load_tpch_cluster(CONFIG.with_(execution_backend="columnar"), 0.02)


@pytest.fixture(scope="module")
def ssb_cluster():
    return load_ssb_cluster(CONFIG.with_(execution_backend="columnar"), 0.02)


@pytest.mark.parametrize(
    "qid, never_gathered",
    [
        (9, {"l.l_comment", "l.l_shipinstruct", "o.o_comment", "s.s_address"}),
        (18, {"l.l_comment", "l.l_shipmode", "o.o_clerk", "c.c_address"}),
    ],
)
def test_only_columns_something_reads_are_gathered(
    cluster, monkeypatch, qid, never_gathered
):
    ledger = Ledger(monkeypatch)
    cluster.sql(QUERIES[qid].sql)
    assert ledger.gathers and ledger.gathered, "the force hook never fired"
    stray = ledger.gathered - ledger.allowed
    assert not stray, sorted(ledger.names[label] for label in stray)
    gathered_names = {ledger.names[label] for label in ledger.gathered}
    assert not (never_gathered & gathered_names)
    assert never_gathered <= set(ledger.names.values())
    assert ledger.views_checked, "no project-over-join seam was inspected"


#: ``Column._force`` calls of a warm run (scan caches built): (chunked
#: columns concatenated, deferred columns gathered).  Before receivers
#: concatenated lazily and hash exchanges shipped index views, every
#: force was a gather — 89, 29 and 101 of them — and gathers must not
#: rise past that.  Q13 gathered 14 columns (every orders column, for its
#: LEFT join's NULL pads and its LIKE) before LIKE ran on the stored
#: columns and a pad became a view.  Q18 concatenated 9 columns while an
#: aggregate over no rows still coded its empty group keys; it returns
#: before reading them now.
FORCES = {
    ("tpch", 9): (9, 49),
    ("tpch", 13): (4, 5),
    ("tpch", 18): (3, 5),
    ("ssb", "Q3.1"): (8, 25),
}
GATHERS_BEFORE = {
    ("tpch", 9): 89, ("tpch", 13): 14, ("tpch", 18): 29, ("ssb", "Q3.1"): 101,
}


@pytest.mark.parametrize("query", sorted(FORCES, key=str), ids="{0[0]}-{0[1]}".format)
def test_receivers_concatenate_only_what_is_read(
    cluster, ssb_cluster, monkeypatch, query
):
    bench, qid = query
    target, sql = (
        (cluster, QUERIES[qid].sql) if bench == "tpch"
        else (ssb_cluster, SSB_QUERIES[qid].sql)
    )
    target.sql(sql)  # warm the scan caches
    ledger = Ledger(monkeypatch)
    target.sql(sql)
    assert (ledger.concats, ledger.gathers) == FORCES[query]
    assert ledger.gathers <= GATHERS_BEFORE[query]


def test_a_warm_q13_gathers_no_comment(cluster, monkeypatch):
    """Q13's LEFT join tests ``o_comment NOT LIKE ...`` on its candidate
    pairs.  The pattern ran once on the stored comment columns, so a warm
    run gathers booleans, not comments; and its NULL pads leave every
    right column the project above does not read an index view."""
    sql = QUERIES[13].sql
    cluster.sql(sql)  # warm the scan caches and the LIKE results
    ledger = Ledger(monkeypatch)
    cluster.sql(sql)
    gathered = {ledger.names[label] for label in ledger.gathered}
    assert "o.o_orderkey" in gathered and "o.o_comment" not in gathered
    assert ledger.views_checked


def test_a_broadcast_receiver_builds_one_batch_per_exchange(monkeypatch):
    """One batch per broadcast exchange per run, whichever site receives
    it — while every site still records its own delivered rows and
    memory, as the row backend does."""
    sql = SSB_QUERIES["Q2.2"].sql
    received = {}
    per_site = {}
    built = Counter()
    concat = columnar.concat_batches
    monkeypatch.setattr(
        columnar, "concat_batches",
        lambda batches, width: built.update([1]) or concat(batches, width),
    )
    for backend, handlers in (
        ("row", operators._HANDLERS), ("columnar", columnar._HANDLERS)
    ):
        target = load_ssb_cluster(CONFIG.with_(execution_backend=backend), 0.02)
        target.sql(sql)  # warm the scan caches
        log = received[backend] = []
        receive = handlers[PhysReceiver]

        def observed(node, site, ctx, receive=receive, log=log):
            out = receive(node, site, ctx)
            log.append((node, site, out, ctx))
            return out

        monkeypatch.setitem(handlers, PhysReceiver, observed)
        built.clear()
        target.sql(sql)
        ctx = log[-1][3]
        per_site[backend] = (
            {(n.op_id, site): ctx.ops[n.op_id, site][0] for n, site, _, _ in log},
            dict(ctx.fragment_memory),
        )
    assert per_site["columnar"] == per_site["row"]

    batches, sites, others = {}, Counter(), 0
    for node, site, out, _ in received["columnar"]:
        if node.distribution.is_broadcast:
            batches.setdefault(node.exchange_id, set()).add(id(out))
            sites[node.exchange_id] += 1
        else:
            others += 1
    assert batches and max(sites.values()) > 1
    assert all(len(ids) == 1 for ids in batches.values())
    assert built[1] == len(batches) + others
