"""The engine's single total order over SQL values.

Sorting, sorted-stream merges and sorted index access all need to compare
values that may include SQL NULL (``None``) or, after outer joins, values of
mixed Python types.  Python's ``<`` raises ``TypeError`` for both, which
would abort a query mid-operator, so every ordered code path in the
engine wraps key components in :class:`NullsLast` instead of comparing
raw values:

* ``None`` compares *greater* than every value — NULLS LAST under an
  ascending sort, NULLS FIRST when the order is reversed for DESC.  This
  is Calcite's nulls-high default collation.
* Values of incomparable types fall back to ordering by type name, so a
  mixed-type key column yields a deterministic (if arbitrary) order
  instead of a ``TypeError``.
* Equal keys stay stable: the wrapper defines only the ordering, never
  perturbs sort stability.

The row interpreter (:mod:`repro.exec.operators`), the reference oracle
(:mod:`repro.verify.reference`), the storage indexes
(:mod:`repro.storage.table`) and the columnar backend
(:mod:`repro.exec.columnar`) must all agree on this order — keep it in
one place.

The wrapper costs a Python-level ``__lt__`` per comparison, so ordered
paths compare raw at C speed where raw ``<`` is the total order (one
orderable kind, numbers or strings, and no NULL): :func:`sort_rows`
tries raw keys and falls back when Python raises; the statistics and the
columnar sort ask :func:`orderable` first.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Iterable, List, Sequence, Tuple

_NUMBERS = frozenset({int, float, bool})
_STRINGS = frozenset({str})


class NullsLast:
    """Wrap one sort-key component in the engine's total order."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NullsLast({self.value!r})"

    def __eq__(self, other) -> bool:
        return self.value == other.value

    def __lt__(self, other) -> bool:
        a, b = self.value, other.value
        if a is None:
            return False  # NULL is the greatest value (never less).
        if b is None:
            return True
        try:
            return a < b
        except TypeError:
            return type(a).__name__ < type(b).__name__


def ordering_key(row: Tuple, positions: Sequence[int]) -> Tuple[NullsLast, ...]:
    """The total-order sort key for ``row`` over ``positions`` (all ASC)."""
    return tuple(NullsLast(row[p]) for p in positions)


def orderable(*columns: Iterable) -> bool:
    """Raw ``<`` over the values of ``columns`` together is the engine's
    total order: they hold one orderable kind and no NULL."""
    kinds = frozenset(map(type, chain(*columns)))
    return kinds <= _NUMBERS or kinds <= _STRINGS


def sort_rows(rows: Iterable[Tuple], keys: Sequence[Tuple[int, bool]]) -> List[Tuple]:
    """Stable multi-key sort supporting mixed ASC/DESC on any type.

    Keys compare through the engine's total order: NULLs sort last under
    ASC (first under DESC) and mixed-type keys cannot raise TypeError.
    Keys of one direction sort in one pass over a tuple key; mixed
    directions sort once per key, least significant first.

    Raw keys go first: a sort Python finishes compared only values that
    raw ``<`` orders as the total order does.  When Python raises, the
    untouched input is sorted again by ``ordering_key``.
    """
    if len({ascending for _, ascending in keys}) == 1:
        passes = [(tuple(index for index, _ in keys), keys[0][1])]
    else:
        passes = [((index,), ascending) for index, ascending in reversed(keys)]
    result = rows = rows if type(rows) is list else list(rows)
    try:
        for positions, ascending in passes:
            result = sorted(result, key=itemgetter(*positions), reverse=not ascending)
    except TypeError:
        result = rows
        for positions, ascending in passes:
            key = lambda row, positions=positions: ordering_key(row, positions)
            result = sorted(result, key=key, reverse=not ascending)
    return result
