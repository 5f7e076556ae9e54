"""Aggregate function state machines.

Supports the three execution phases of :class:`repro.exec.physical.AggPhase`:

* ``SINGLE`` — consume input rows, produce final values;
* ``MAP``    — consume input rows, produce *partial states* (AVG becomes a
  ``(sum, count)`` pair) that are safe to compute per partition or per
  variant fragment;
* ``REDUCE`` — consume partial states, produce final values.

SQL NULL semantics: aggregate arguments that evaluate to ``None`` are
skipped; SUM/MIN/MAX/AVG over no rows yield ``None``; COUNT yields 0.

The row interpreter runs every phase through :func:`aggregate_kernel`, a
generated loop over a flat slot list per group; :class:`AggAccumulator`
is the definition those slots follow, and what the reference executor
and the test oracles run.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.common.errors import ExecutionError
from repro.exec.physical import AggPhase
from repro.rel.expr import KernelBuilder, compile_expr
from repro.rel.logical import AggCall, AggFunc


class AggAccumulator:
    """One aggregate call's per-group accumulator."""

    __slots__ = ("func", "distinct", "_sum", "_count", "_min", "_max", "_seen")

    def __init__(self, func: AggFunc, distinct: bool):
        self.func = func
        self.distinct = distinct
        self._sum = 0.0
        self._count = 0
        self._min = None
        self._max = None
        self._seen = set() if distinct else None

    # -- input-row phase -------------------------------------------------------

    def add(self, value) -> None:
        """Consume one argument value (``None`` values are SQL NULLs).

        COUNT(*) calls ``add`` with the sentinel ``True`` for every row.
        """
        if value is None:
            return
        if self._seen is not None:
            if value in self._seen:
                return
            self._seen.add(value)
        func = self.func
        if func is AggFunc.COUNT:
            self._count += 1
        elif func is AggFunc.SUM or func is AggFunc.AVG:
            self._sum += value
            self._count += 1
        elif func is AggFunc.MIN:
            if self._min is None or value < self._min:
                self._min = value
        else:  # MAX
            if self._max is None or value > self._max:
                self._max = value

    # -- partial-state phase -----------------------------------------------------

    def partial(self):
        """Emit the MAP-phase partial state."""
        if self.distinct:
            raise ExecutionError("distinct aggregates cannot be split")
        func = self.func
        if func is AggFunc.COUNT:
            return self._count
        if func is AggFunc.SUM:
            return (self._sum, self._count)
        if func is AggFunc.AVG:
            return (self._sum, self._count)
        if func is AggFunc.MIN:
            return self._min
        return self._max

    def merge(self, partial) -> None:
        """Consume a MAP-phase partial state (REDUCE phase)."""
        func = self.func
        if func is AggFunc.COUNT:
            self._count += partial
        elif func is AggFunc.SUM or func is AggFunc.AVG:
            if partial is not None:
                self._sum += partial[0]
                self._count += partial[1]
        elif func is AggFunc.MIN:
            if partial is not None and (self._min is None or partial < self._min):
                self._min = partial
        else:
            if partial is not None and (self._max is None or partial > self._max):
                self._max = partial

    # -- finalisation -----------------------------------------------------------------

    def result(self):
        func = self.func
        if func is AggFunc.COUNT:
            return self._count
        if func is AggFunc.SUM:
            return self._sum if self._count else None
        if func is AggFunc.AVG:
            return self._sum / self._count if self._count else None
        if func is AggFunc.MIN:
            return self._min
        return self._max


class AggregateEvaluator:
    """Compiles an aggregate's calls once and evaluates groups."""

    def __init__(self, calls: Sequence[AggCall]):
        self.calls = tuple(calls)
        self._arg_fns: List[Optional[Callable]] = [
            compile_expr(call.arg) if call.arg is not None else None
            for call in calls
        ]

    def new_group(self) -> List[AggAccumulator]:
        return [AggAccumulator(c.func, c.distinct) for c in self.calls]

    def accumulate(self, accumulators: List[AggAccumulator], row: Tuple) -> None:
        for accumulator, arg_fn in zip(accumulators, self._arg_fns):
            accumulator.add(arg_fn(row) if arg_fn is not None else True)

    def merge_row(
        self, accumulators: List[AggAccumulator], partial_row: Tuple, offset: int
    ) -> None:
        """REDUCE phase: merge the partial states found at ``offset``."""
        for index, accumulator in enumerate(accumulators):
            accumulator.merge(partial_row[offset + index])

    def partials(self, accumulators: List[AggAccumulator]) -> Tuple:
        return tuple(a.partial() for a in accumulators)

    def results(self, accumulators: List[AggAccumulator]) -> Tuple:
        return tuple(a.result() for a in accumulators)


def aggregate_kernel(
    group_keys: Sequence[int], calls: Sequence[AggCall], phase: AggPhase, runs: bool
) -> Callable[[List[Tuple]], List[Tuple]]:
    """Generate ``rows -> output rows`` for one aggregate node.

    Each group owns one flat slot list (COUNT one slot, SUM/AVG a float
    sum from ``0.0`` plus a count, MIN/MAX one, DISTINCT a set of values
    seen) updated in call order exactly as :class:`AggAccumulator` would,
    so results are bit-identical.  ``runs`` groups consecutive equal keys
    (sort aggregate) instead of hashing.
    """
    reduce, partial = phase is AggPhase.REDUCE, phase is AggPhase.MAP
    builder = KernelBuilder()
    init: List[str] = []
    update: List[str] = []
    final: List[str] = []
    for position, call in enumerate(calls):
        slot = f"s[{len(init)}]"
        if reduce:
            update.append(f"v = row[{len(group_keys) + position}]")
        elif call.arg is not None:
            update.append(f"v = {builder.render(call.arg)}")
        guard = "v is not None"
        if call.func is AggFunc.COUNT:
            init.append("0")
            step = [f"{slot} += v" if reduce else f"{slot} += 1"]
            if reduce or call.arg is None:  # a partial count, COUNT(*)
                guard = ""
            final.append(slot)
        elif call.func in (AggFunc.SUM, AggFunc.AVG):
            count = f"s[{len(init) + 1}]"
            init += ["0.0", "0"]
            if reduce:
                step = [f"{slot} += v[0]", f"{count} += v[1]"]
            else:
                step = [f"{slot} += v", f"{count} += 1"]
            if partial:
                final.append(f"({slot}, {count})")
            else:
                value = slot if call.func is AggFunc.SUM else f"{slot} / {count}"
                final.append(f"({value} if {count} else None)")
        else:
            better = "<" if call.func is AggFunc.MIN else ">"
            init.append("None")
            guard += f" and ({slot} is None or v {better} {slot})"
            step = [f"{slot} = v"]
            final.append(slot)
        if call.distinct:
            if reduce or partial:
                raise ExecutionError("distinct aggregates cannot be split")
            seen = f"s[{len(init)}]"
            init.append("set()")
            guard += f" and v not in {seen}"
            step.append(f"{seen}.add(v)")
        update += [f"if {guard}:", *(f"    {line}" for line in step)] if guard else step
    key = "".join(f"row[{k}], " for k in group_keys)
    fresh = f"[{', '.join(init)}]"
    if runs:
        start = ["groups = []", "s = prev = None"]
        lookup = [
            "if s is None or k != prev:",
            f"    prev, s = k, {fresh}",
            "    groups.append((k, s))",
        ]
        empty, items = f"groups.append(((), {fresh}))", "groups"
    else:
        start = ["groups = {}", "get = groups.get"]
        lookup = ["s = get(k)", "if s is None:", f"    s = groups[k] = {fresh}"]
        empty, items = f"groups[()] = {fresh}", "groups.items()"
    body = start + ["for row in rows:", f"    k = ({key})"]
    body += [f"    {line}" for line in lookup + update]
    if not group_keys and not partial:
        # A scalar aggregate over an empty input still yields one row.
        body += ["if not groups:", f"    {empty}"]
    outputs = "".join(f"{value}, " for value in final)
    body.append(f"return [k + ({outputs}) for k, s in {items}]")
    return builder.function("aggregate", "rows", body)
