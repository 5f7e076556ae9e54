"""Outside-in layer spans: timing wrappers around public callables.

The program under test has no wall-clock spans of its own yet, so the
traced phase borrows its layer boundaries: each entry of the tables below
names a public callable, and :func:`traced` swaps it for a wrapper that
records ``name, start, end, parent span, op``.  By-name imports are
patched where they are *bound* (``repro.core.cluster.parse`` is the name
``IgniteCalciteCluster._parse`` calls, not ``repro.sql.parser.parse``).

A wrap point that stops resolving after a refactor is reported as
unresolved and its metric reads zero; it never fails a run, and the
end-to-end metrics are taken with nothing installed at all.
"""

from __future__ import annotations

import importlib
import json
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: span name -> [(module, attribute path)] wrapped around every query.
QUERY_POINTS: Dict[str, List[Tuple[str, str]]] = {
    "sql.parse": [("repro.core.cluster", "parse")],
    "rel.sql2rel": [("repro.rel.sql2rel", "SqlToRelConverter.convert")],
    "planner.plan": [("repro.planner.volcano", "QueryPlanner.plan")],
    "planner.hep": [("repro.planner.hep", "HepPlanner.optimize")],
    "planner.join_order": [
        ("repro.planner.volcano", "JoinOrderEnumerator.reorder")
    ],
    "planner.physical": [("repro.planner.physical", "PhysicalPlanner.plan")],
    "adaptive.lookup": [
        ("repro.adaptive.controller", "AdaptiveController.lookup")
    ],
    "adaptive.observe": [
        ("repro.adaptive.controller", "AdaptiveController.observe")
    ],
    "exec.execute": [("repro.exec.engine", "ExecutionEngine.execute")],
    # One activation per (fragment, site): the engine's binding of the row
    # interpreter, and the columnar entry it imports at call time.
    "exec.operators": [
        ("repro.exec.engine", "execute_node"),
        ("repro.exec.columnar", "execute_columnar"),
    ],
    "exec.fragment": [("repro.exec.engine", "fragment_plan")],
    "cluster.simulate": [("repro.exec.engine", "simulate_makespan")],
}

#: Wrapped only while a traced run loads its data.
SETUP_POINTS: Dict[str, List[Tuple[str, str]]] = {
    "storage.load": [
        ("repro.core.cluster", "IgniteCalciteCluster.create_table")
    ],
    "storage.index": [
        ("repro.core.cluster", "IgniteCalciteCluster.create_index")
    ],
    "bench.datagen": [
        ("repro.bench.tpch", "generate_tpch"),
        ("repro.bench.ssb", "generate_ssb"),
    ],
}

#: The span the benchmark loop itself opens around one ``try_sql``.
OP_SPAN = "op"

_MARK = "__perfbench_original__"


class SpanRecorder:
    """In-memory span log; one per traced run."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        #: ``[name, start_ns, end_ns, parent index or -1, op sequence]``
        self.spans: List[list] = []
        self._clock = clock
        #: ``op_labels[n]`` names the statement op span number ``n`` ran.
        self.op_labels: List[str] = []
        self._stack: List[int] = []
        self._active: set = set()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as span ``name``.

        A recursive activation (``JoinOrderEnumerator.reorder`` re-entering
        itself) passes straight through, so each outermost call is counted
        once and covers its own recursion.
        """
        spans, stack, active, clock = (
            self.spans, self._stack, self._active, self._clock,
        )

        def wrapper(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            active.add(name)
            record = [name, 0, 0, stack[-1] if stack else -1, len(self.op_labels) - 1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                active.discard(name)

        setattr(wrapper, _MARK, fn)
        return wrapper

    def timed_op(self, label: str, fn: Callable, *args):
        """Run one benchmark op under a root span; ``(latency_ns, result)``."""
        record = [OP_SPAN, 0, 0, -1, len(self.op_labels)]
        self.op_labels.append(label)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = self._clock()
        try:
            result = fn(*args)
        finally:
            record[2] = self._clock()
            self._stack.pop()
        return record[2] - record[1], result

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                line = {
                    "id": index, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "op": op,
                }
                if name == OP_SPAN:
                    line["label"] = self.op_labels[op]
                out.write(json.dumps(line) + "\n")


def span_totals(
    spans: Sequence[Sequence], op_factors: Optional[Sequence[float]] = None
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per span name: (summed self time, summed inclusive time), in ns.

    Self time is a span's duration minus the durations of its direct
    children; wrappers never overlap, so children tile a sub-interval.
    With ``op_factors`` every span is scaled by the speed factor of the op
    it belongs to (:mod:`perfbench.speed`).
    """
    children = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    self_ns: Dict[str, float] = defaultdict(int)
    inclusive_ns: Dict[str, float] = defaultdict(int)
    for index, (name, start, end, _, op) in enumerate(spans):
        factor = op_factors[op] if op_factors is not None else 1
        inclusive_ns[name] += (end - start) * factor
        self_ns[name] += (end - start - children[index]) * factor
    return self_ns, inclusive_ns


# -- installing and removing wrappers --------------------------------------


def _resolve(module_name: str, path: str):
    """``(owner, leaf, plain function)`` or ``None`` when it no longer resolves."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    target = vars(owner).get(leaf)
    # Only plain functions: rebinding a static/class method or a builtin
    # through setattr would change how it is called.
    if not isinstance(target, types.FunctionType):
        return None
    return owner, leaf, target


@contextmanager
def traced(
    recorder: SpanRecorder, points: Dict[str, List[Tuple[str, str]]]
) -> Iterator[List[str]]:
    """Wrap every resolvable point for the block, put the originals back
    after it; yields the points that did not resolve (``name=module:path``)."""
    patches = []
    unresolved = []
    for name, targets in points.items():
        for module_name, path in targets:
            resolved = _resolve(module_name, path)
            if resolved is None:
                unresolved.append(f"{name}={module_name}:{path}")
                continue
            owner, leaf, original = resolved
            setattr(owner, leaf, recorder.wrap(name, original))
            patches.append((owner, leaf, original))
    try:
        yield unresolved
    finally:
        for owner, leaf, original in reversed(patches):
            setattr(owner, leaf, original)


def installed_wrappers() -> List[str]:
    """Wrap points currently bound to a wrapper (must be empty untraced)."""
    found = []
    for points in (QUERY_POINTS, SETUP_POINTS):
        for targets in points.values():
            for module_name, path in targets:
                resolved = _resolve(module_name, path)
                if resolved is not None and hasattr(resolved[2], _MARK):
                    found.append(f"{module_name}:{path}")
    return found
