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
  catches an eager copy that bypasses ``_force`` altogether).
"""

import pytest

from repro.bench.tpch import load_tpch_cluster
from repro.bench.tpch.queries import QUERIES
from repro.common.config import PRESETS
from repro.exec import columnar
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
        self.gathers = 0
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
        self.gathers += 1
        if labels:  # else: derived from a computed (project/aggregate) column
            self.origin[id(col)] = labels
            self.alive.append(col)
            self.gathered |= labels
        self._force(col)


@pytest.fixture(scope="module")
def cluster():
    config = PRESETS["IC+M"](4).with_(execution_backend="columnar")
    return load_tpch_cluster(config, 0.02)


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
