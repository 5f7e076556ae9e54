"""The engine's single total order over SQL values.

Sorting, merge joins and sorted index access all need to compare values
that may include SQL NULL (``None``) or, after outer joins, values of
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

The wrapper costs a Python-level ``__lt__`` per comparison, so the
sorting paths ask :func:`orderable` first: a key column that holds one
orderable kind (numbers, or strings) and no NULL is already totally
ordered by raw ``<`` exactly as ``NullsLast`` orders it, and is compared
raw at C speed.
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
    """
    result = list(rows)
    if len({ascending for _, ascending in keys}) == 1:
        passes = [(tuple(index for index, _ in keys), keys[0][1])]
    else:
        passes = [((index,), ascending) for index, ascending in reversed(keys)]
    for positions, ascending in passes:
        if all(orderable(map(itemgetter(p), result)) for p in positions):
            key = itemgetter(*positions)
        else:
            key = lambda row, positions=positions: ordering_key(row, positions)
        result.sort(key=key, reverse=not ascending)
    return result
