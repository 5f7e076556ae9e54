"""The vectorized columnar execution backend.

Executes the same physical fragment trees as the row interpreter
(:mod:`repro.exec.operators`) but over :class:`ColumnBatch` values —
numpy column vectors plus null masks — instead of lists of Python
tuples.  Selected by ``SystemConfig.execution_backend = "columnar"``.

Three rules keep the backend honest:

* **Identical results.**  Every operator reproduces the row
  interpreter's output *rows and row order* exactly: joins expand
  left-major with build-side insertion order, aggregates emit groups in
  first-occurrence order, sorts are stable under the engine's single
  total order (:mod:`repro.common.ordering`: NULLS LAST, mixed-type
  safe), and SQL NULL semantics (a NULL join key matches nothing; NULL
  is a grouping value) are enforced through the null masks.  The row
  path is this backend's differential oracle — the property sweep in
  ``tests/property/test_columnar_differential.py`` pins the contract.

* **Identical work-unit charges.**  True by construction: handlers here
  are pure transforms run under the same operator shell as the row
  handlers (:func:`repro.exec.operators.run_operator`), which charges
  the one charge spec on the row counts it observes — so simulated
  makespans, traces, ``rows_in``/``rows_out`` and memory high-waters
  are backend-independent; only real wall-clock changes.

* **Row fallback, never wrong answers.**  Expressions the vectorizer
  does not cover (SUBSTRING, COALESCE, mixed-type object columns, ...)
  are evaluated row-at-a-time over only the referenced columns.
  DISTINCT aggregation dedupes ``(group, value)`` pairs in
  first-occurrence order and REDUCE merges MAP partial states with the
  same per-group accumulation sequence as the row cores, so both halves
  stay vectorized without changing a single output bit.

The engine seam is unchanged: :func:`execute_columnar` has the same
signature as ``execute_node``, so fragments, scheduling, fault
injection, tracing and the serve layer all work unchanged.  A fragment's
output stays a :class:`ColumnBatch` across single and broadcast
exchanges; whoever needs tuples (hash routing, seam capture, the result)
asks for ``to_rows()`` there, and receivers re-batch only row lists.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common import charges
from repro.common.constants import AFS
from repro.common.errors import ExecutionError
from repro.common.ordering import NullsLast
from repro.exec.aggregates import AggregateEvaluator
from repro.exec.fragments import PhysReceiver
from repro.exec.operators import (
    ExecContext,
    Rows,
    adapter_scan,
    apply_offset_fetch,
    exec_limit,
    merge_sorted,
    run_operator,
)
from repro.exec.physical import (
    AggPhase,
    PhysFilter,
    PhysHashAggregate,
    PhysHashJoin,
    PhysIndexScan,
    PhysLimit,
    PhysMergeJoin,
    PhysNestedLoopJoin,
    PhysNode,
    PhysProject,
    PhysSort,
    PhysSortAggregate,
    PhysTableScan,
    PhysValues,
)
from repro.rel.expr import (
    BinaryOp,
    CaseExpr,
    ColRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    LikeExpr,
    Literal,
    UnaryOp,
    compile_expr,
    references,
)
from repro.rel.logical import AggFunc, JoinType

#: Kind codes: 'b' bool, 'i' int64, 'f' float64, 'U' unicode, 'O' object,
#: 'n' no non-null value seen (typed only by the schema, if at all).
_FILLS = {"b": False, "i": 0, "f": 0.0, "U": ""}

#: numpy ``dtype.kind`` -> kind (anything else is 'O').
_DTYPE_KINDS = {"b": "b", "i": "i", "u": "i", "f": "f", "U": "U"}

#: ColumnType.value -> kind, for schema-typed scan batches.
_SCHEMA_KINDS = {
    "INTEGER": "i", "BIGINT": "i", "DOUBLE": "f", "DECIMAL": "f",
    "VARCHAR": "U", "CHAR": "U", "DATE": "U", "BOOLEAN": "b",
}

#: Nested-loop joins materialise the cross product in chunks of at most
#: this many candidate pairs (bounds peak memory, not results).
_NLJ_CHUNK_PAIRS = 1 << 20


class _Fallback(Exception):
    """Internal: this expression shape is not vectorized — evaluate the
    whole expression row-wise instead."""


# ---------------------------------------------------------------------------
# Columns and batches
# ---------------------------------------------------------------------------


class Column:
    """One column vector: dense ``values`` plus an optional null mask.

    ``mask[i] is True`` means row ``i`` is SQL NULL; ``values[i]`` then
    holds an arbitrary fill value (except object columns, which keep
    ``None`` in place).  ``mask is None`` means no NULLs.

    A column is either *materialised* or *deferred*: ``take`` copies
    nothing, it returns a reference to a materialised source column plus
    an int64 index vector.  Reading ``values``/``mask`` gathers once and
    caches; ``kind`` and ``len()`` answer from the source, and a further
    ``take``/``slice`` composes index vectors, so a column nobody reads
    is never gathered however many joins, filters and sorts it crosses.
    """

    __slots__ = ("_values", "_mask", "_source", "_index", "_ucache")

    def __init__(self, values: np.ndarray, mask: Optional[np.ndarray] = None):
        self._values = values
        # ``mask is None`` steers kernels, so an all-False mask is dropped.
        self._mask = mask if (mask is not None and mask.any()) else None
        self._source: Optional["Column"] = None
        self._index: Optional[np.ndarray] = None
        #: Lazily cached ``U``-dtype view of an all-string object column
        #: (False = known unconvertible).  Pays off when LIKE repeatedly
        #: scans a cached table column of wide strings.
        self._ucache = None

    @classmethod
    def _deferred(cls, source: "Column", index: np.ndarray) -> "Column":
        """``source`` (materialised) gathered at ``index`` — on first read."""
        col = cls.__new__(cls)
        col._values = col._mask = col._ucache = None
        col._source, col._index = source, index
        return col

    def _force(self) -> None:
        """Materialise a deferred column: the one place data is gathered."""
        source, index = self._source, self._index
        mask = source._mask
        if mask is not None:
            mask = mask[index]
            self._mask = mask if mask.any() else None
        self._values = source._values[index]
        self._source = self._index = None

    @property
    def values(self) -> np.ndarray:
        if self._source is not None:
            self._force()
        return self._values

    @property
    def mask(self) -> Optional[np.ndarray]:
        if self._source is not None:
            self._force()
        return self._mask

    def __len__(self) -> int:
        if self._source is not None:
            return len(self._index)
        return len(self._values)

    @property
    def kind(self) -> str:
        source = self._source
        dtype = (self if source is None else source)._values.dtype
        return _DTYPE_KINDS.get(dtype.kind, "O")

    def null_mask(self) -> np.ndarray:
        mask = self.mask
        if mask is not None:
            return mask
        return np.zeros(len(self), dtype=np.bool_)

    def take(self, indices: np.ndarray) -> "Column":
        return _take_columns((self,), indices)[0]

    def slice(self, start: int, stop: Optional[int]) -> "Column":
        if self._source is not None:
            return Column._deferred(self._source, self._index[start:stop])
        mask = self._mask
        return Column(
            self._values[start:stop],
            mask[start:stop] if mask is not None else None,
        )

    def to_list(self) -> list:
        out = self.values.tolist()
        if self._mask is not None:
            for i in np.flatnonzero(self._mask).tolist():
                out[i] = None
        return out


_KIND_OF_TYPE = {bool: "b", int: "i", float: "f", str: "U"}
_NONE_TYPE = type(None)


def _scan_values(values: Sequence) -> Tuple[str, bool]:
    """One C-speed pass over a value list: (kind, has_nulls).

    Mixed kinds (e.g. int and float in one column) stay Python objects
    so ``to_rows`` reproduces the row backend's values exactly.
    """
    types = set(map(type, values))
    has_null = _NONE_TYPE in types
    if has_null:
        types.discard(_NONE_TYPE)
    if not types:
        return "n", has_null
    if len(types) == 1:
        return _KIND_OF_TYPE.get(next(iter(types)), "O"), has_null
    return "O", has_null


def _infer_kind(values: Sequence) -> str:
    return _scan_values(values)[0]


def _merge_kind(a: str, b: str) -> str:
    if a == b:
        return a
    if a == "n":
        return b
    if b == "n":
        return a
    return "O"


def _object_column(values: Sequence) -> Column:
    n = len(values)
    arr = np.empty(n, dtype=object)
    arr[:] = list(values)
    mask = np.fromiter((v is None for v in values), np.bool_, count=n)
    return Column(arr, mask)


#: Strings longer than this stay Python objects: a fixed-width ``U``
#: array would copy ``max_len`` chars per value at every gather/concat,
#: which loses to the row path's pointer moves for TPC-H comment-sized
#: text.  Short strings (keys, flags, names, ISO dates) vectorize well.
_WIDE_STR_CHARS = 32


def column_from_values(values: Sequence, kind: Optional[str] = None) -> Column:
    """Build a column from Python values, inferring the dtype if needed."""
    values = list(values)
    if kind is None:
        kind, has_null = _scan_values(values)
    else:
        has_null = None in values
    if kind == "U" and values:
        if has_null:
            longest = max(len(v) for v in values if v is not None)
        else:
            longest = max(map(len, values))
        if longest > _WIDE_STR_CHARS:
            kind = "O"
    if kind in ("O", "n"):
        return _object_column(values)
    n = len(values)
    mask: Optional[np.ndarray] = None
    if has_null:
        mask = np.fromiter((v is None for v in values), np.bool_, count=n)
        fill = _FILLS[kind]
        values = [fill if v is None else v for v in values]
    if kind == "i":
        try:
            arr = np.array(values, dtype=np.int64)
        except OverflowError:
            return _object_column(values if mask is None else [
                None if m else v for v, m in zip(values, mask)
            ])
    elif kind == "f":
        arr = np.array(values, dtype=np.float64)
    elif kind == "b":
        arr = np.array(values, dtype=np.bool_)
    else:  # 'U'
        arr = np.array(values, dtype="U") if values else np.empty(0, "U1")
    return Column(arr, mask)


class ColumnBatch:
    """A batch of rows in columnar form.

    ``columns`` may contain ``None`` placeholders for columns that were
    never materialised (join candidate batches only build the columns a
    residual references); such a batch supports expression evaluation
    over the materialised columns but not ``to_rows``.
    """

    __slots__ = ("columns", "length")

    def __init__(self, columns: Sequence[Optional[Column]], length: int):
        self.columns = list(columns)
        self.length = length

    @property
    def width(self) -> int:
        return len(self.columns)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, rows: slice) -> "ColumnBatch":
        return self.slice(rows.start or 0, rows.stop)

    def column(self, index: int) -> Column:
        col = self.columns[index]
        if col is None:
            raise ExecutionError(
                f"column {index} was not materialised in this batch"
            )
        return col

    def take(self, indices: np.ndarray) -> "ColumnBatch":
        return ColumnBatch(
            _take_columns(self.columns, indices), int(len(indices))
        )

    def slice(self, start: int, stop: Optional[int]) -> "ColumnBatch":
        end = self.length if stop is None else min(stop, self.length)
        start = min(start, self.length)
        return ColumnBatch(
            [c.slice(start, stop) if c is not None else None
             for c in self.columns],
            max(0, end - start),
        )

    def to_rows(self) -> Rows:
        if not self.columns:
            return [() for _ in range(self.length)]
        lists = [self.column(i).to_list() for i in range(self.width)]
        return list(zip(*lists))

    def partial_rows(self, refs: Sequence[int]) -> Rows:
        """Row tuples with only ``refs`` populated (rest ``None``) — the
        input of a row-wise fallback evaluation."""
        refs = set(refs)
        lists = [
            self.column(i).to_list() if i in refs else [None] * self.length
            for i in range(self.width)
        ]
        if not lists:
            return [() for _ in range(self.length)]
        return list(zip(*lists))


def _take_columns(
    columns: Sequence[Optional[Column]], indices: np.ndarray
) -> List[Optional[Column]]:
    """Rows ``indices`` of sibling columns, deferred (``None`` stays).

    Columns already deferred over one index vector — everything a join
    side produced — compose it with ``indices`` once, so a join level
    costs one int64 gather per side, not one per column.
    """
    composed: Dict[int, np.ndarray] = {}
    out: List[Optional[Column]] = []
    for col in columns:
        if col is None:
            out.append(None)
        elif col._source is None:
            out.append(Column._deferred(col, indices))
        else:
            index = composed.get(id(col._index))
            if index is None:
                index = composed[id(col._index)] = col._index[indices]
            out.append(Column._deferred(col._source, index))
    return out


def from_rows(
    rows: Rows, width: int, kinds: Optional[Sequence[str]] = None
) -> ColumnBatch:
    if not rows:
        value_lists: Sequence[Sequence] = [()] * width
    else:
        value_lists = list(zip(*rows))
    columns = [
        column_from_values(value_lists[i], kinds[i] if kinds else None)
        for i in range(width)
    ]
    return ColumnBatch(columns, len(rows))


def concat_columns(columns: Sequence[Column]) -> Column:
    if len(columns) == 1:
        return columns[0]
    if len({c.kind for c in columns}) > 1:
        # Heterogeneous parts (one stream inferred ints, another floats,
        # or a narrow-string part meets a demoted wide-string part):
        # ``np.concatenate`` would silently promote and rewrite values
        # (1 -> 1.0), so fall back to an object column holding the exact
        # Python values, NULLs as in-place ``None``.
        total = sum(len(c) for c in columns)
        values = np.empty(total, dtype=object)
        pos = 0
        for c in columns:
            values[pos : pos + len(c)] = c.to_list()
            pos += len(c)
        mask = np.concatenate([c.null_mask() for c in columns])
        return Column(values, mask)
    values = np.concatenate([c.values for c in columns])
    if any(c.mask is not None for c in columns):
        mask = np.concatenate([c.null_mask() for c in columns])
    else:
        mask = None
    return Column(values, mask)


def concat_batches(batches: Sequence[ColumnBatch], width: int) -> ColumnBatch:
    if not batches:
        return from_rows([], width)
    if len(batches) == 1:
        return batches[0]
    columns = [
        concat_columns([b.column(i) for b in batches]) for i in range(width)
    ]
    return ColumnBatch(columns, sum(b.length for b in batches))


# ---------------------------------------------------------------------------
# Vectorized expression evaluation
# ---------------------------------------------------------------------------


def _literal_column(value, n: int) -> Column:
    if value is None:
        arr = np.empty(n, dtype=object)
        arr[:] = None
        return Column(arr, np.ones(n, dtype=np.bool_))
    t = type(value)
    if t is bool:
        return Column(np.full(n, value, dtype=np.bool_))
    if t is int:
        try:
            return Column(np.full(n, value, dtype=np.int64))
        except OverflowError:
            pass
    elif t is float:
        return Column(np.full(n, value, dtype=np.float64))
    elif t is str:
        return Column(np.full(n, value))
    arr = np.empty(n, dtype=object)
    arr[:] = [value] * n
    return Column(arr)


def _truthy(col: Column) -> np.ndarray:
    """Row-path WHERE semantics: NULL and falsy values are both False."""
    values = col.values
    kind = col.kind
    if kind == "b":
        out = values.copy()
    elif kind in ("i", "f"):
        out = values != 0
    elif kind == "U":
        out = values != ""
    else:
        out = np.fromiter(
            (bool(v) for v in values.tolist()), np.bool_, count=len(values)
        )
    if col.mask is not None:
        out &= ~col.mask
    return out


def _eval_on_subset(
    expr: Expr, batch: ColumnBatch, indices: np.ndarray, test: bool = False
) -> Column:
    """Evaluate ``expr`` only on the given row subset.

    Replicates the row interpreter's short-circuit/branch semantics: a
    row that AND/OR/CASE never evaluates a subexpression for must not
    trigger that subexpression's side effects (``ZeroDivisionError``)
    in the columnar backend either.  Only the columns the expression
    references are gathered.
    """
    refs = references(expr)
    columns = _take_columns(
        [col if i in refs else None for i, col in enumerate(batch.columns)],
        indices,
    )
    return eval_expr(expr, ColumnBatch(columns, int(len(indices))), test)


def _can_raise(expr: Expr) -> bool:
    """True if evaluating ``expr`` on an arbitrary row may raise — i.e.
    it contains a division.  Division-free subexpressions of AND/OR may
    be evaluated eagerly over the whole batch: the row interpreter's
    short-circuit is then unobservable."""
    if isinstance(expr, BinaryOp) and expr.op == "/":
        return True
    return any(_can_raise(child) for child in expr.children())


def _numeric_values(col: Column) -> np.ndarray:
    if col.kind in ("b", "i", "f"):
        return col.values
    raise _Fallback


def _kleene(op: str, ltrue, lnull, rtrue, rnull) -> Column:
    """Three-valued AND/OR: FALSE decides an AND and TRUE an OR even
    beside a NULL; otherwise a NULL operand makes the result NULL."""
    if op == "AND":
        decided = ~(ltrue | lnull) | ~(rtrue | rnull)
        return Column(ltrue & rtrue, (lnull | rnull) & ~decided)
    decided = ltrue | rtrue
    return Column(decided, (lnull | rnull) & ~decided)


def _eval_binary(expr: BinaryOp, batch: ColumnBatch, test: bool = False) -> Column:
    op = expr.op
    n = batch.length
    if op in ("AND", "OR"):
        left = _eval_vec(expr.left, batch, test)
        if left.kind != "b":
            raise _Fallback
        lnull = left.null_mask()
        ltrue = left.values & ~lnull
        if not _can_raise(expr.right):
            # Division-free right side: evaluate eagerly on the whole
            # batch and combine with masks — short-circuit unobservable.
            right = _eval_vec(expr.right, batch, test)
            if right.kind != "b":
                raise _Fallback
            rnull = right.null_mask()
            return _kleene(op, ltrue, lnull, right.values & ~rnull, rnull)
        # The row path short-circuits: the right side runs only where the
        # left has not decided the result — and, where only truth is
        # tested (NULL as good as FALSE), not behind a NULL left AND.
        if op == "OR":
            decided = ltrue
        else:
            decided = ~ltrue if test else ~(ltrue | lnull)
        sub = np.flatnonzero(~decided)
        rtrue = np.zeros(n, np.bool_)  # a skipped right side changes nothing
        rnull = np.zeros(n, np.bool_)
        if sub.size:
            right = _eval_on_subset(expr.right, batch, sub, test)
            if right.kind != "b":
                raise _Fallback
            rnull[sub] = right.null_mask()
            rtrue[sub] = right.values & ~rnull[sub]
        return _kleene(op, ltrue, lnull, rtrue, rnull)

    left = _eval_vec(expr.left, batch)
    right = _eval_vec(expr.right, batch)
    lk, rk = left.kind, right.kind
    numeric = ("b", "i", "f")
    if not (
        (lk in numeric and rk in numeric) or (lk == "U" and rk == "U")
    ):
        raise _Fallback
    null = None
    if left.mask is not None or right.mask is not None:
        null = left.null_mask() | right.null_mask()
    lv, rv = left.values, right.values
    if op == "=":
        return Column(lv == rv, null)
    if op == "<>":
        return Column(lv != rv, null)
    if op == "<":
        return Column(lv < rv, null)
    if op == "<=":
        return Column(lv <= rv, null)
    if op == ">":
        return Column(lv > rv, null)
    if op == ">=":
        return Column(lv >= rv, null)
    if lk == "U" or rk == "U":
        raise _Fallback  # string arithmetic: rare, row fallback
    if op == "+":
        return Column(lv + rv, null)
    if op == "-":
        return Column(lv - rv, null)
    if op == "*":
        return Column(lv * rv, null)
    if op == "/":
        valid = ~null if null is not None else np.ones(n, np.bool_)
        if bool(np.any((rv == 0) & valid)):
            raise ZeroDivisionError("division by zero")
        safe = np.where(valid, rv, 1)
        return Column(lv / safe, null)
    raise _Fallback


def _eval_func(expr: FuncCall, batch: ColumnBatch) -> Column:
    name = expr.name
    if name == "EXTRACT_YEAR" or name == "EXTRACT_MONTH":
        arg = _eval_vec(expr.args[0], batch)
        if arg.kind != "U":
            raise _Fallback
        values = arg.values
        if arg.mask is not None:
            values = values.copy()
            values[arg.mask] = "0000-01-01"
        if name == "EXTRACT_YEAR":
            out = values.astype("U4").astype(np.int64)
        else:
            padded = np.asarray(values.astype("U7"), order="C")
            chars = padded.view("U1").reshape(len(values), 7)
            out = (
                chars[:, 5].astype(np.int64) * 10
                + chars[:, 6].astype(np.int64)
            )
        return Column(out, arg.mask)
    if name == "ABS":
        arg = _eval_vec(expr.args[0], batch)
        return Column(np.abs(_numeric_values(arg)), arg.mask)
    if name in ("UPPER", "LOWER"):
        arg = _eval_vec(expr.args[0], batch)
        if arg.kind != "U":
            raise _Fallback
        fn = np.char.upper if name == "UPPER" else np.char.lower
        return Column(np.asarray(fn(arg.values)), arg.mask)
    raise _Fallback  # SUBSTRING, COALESCE: row fallback


def _eval_like(expr: LikeExpr, batch: ColumnBatch) -> Column:
    operand = _eval_vec(expr.operand, batch)
    pattern = expr.pattern
    if operand.kind == "U":
        values = operand.values
    elif operand.kind == "O":
        # Wide strings are stored as objects (see _WIDE_STR_CHARS); the
        # pattern scan still vectorizes after a one-off U conversion,
        # cached on the column (table-scan columns are long-lived).
        if operand._ucache is False:
            raise _Fallback
        values = operand._ucache
        if values is None:
            lst = operand.values.tolist()
            if not lst:
                return Column(np.zeros(0, np.bool_))
            types = set(map(type, lst))
            types.discard(_NONE_TYPE)
            if types - {str}:
                operand._ucache = False
                raise _Fallback
            values = np.array(
                ["" if v is None else v for v in lst]
                if operand.mask is not None
                else lst
            )
            operand._ucache = values
    else:
        raise _Fallback
    if "_" not in pattern:
        pieces = pattern.split("%")
        if len(pieces) == 1:
            out = values == pieces[0]
        else:
            # The vectorized version of ``_compile_like``'s matcher:
            # anchor the prefix and suffix, then greedy left-to-right
            # finds for each middle piece within the unanchored span.
            prefix, suffix = pieces[0], pieces[-1]
            middles = [p for p in pieces[1:-1] if p]
            n = len(values)
            out = np.ones(n, dtype=np.bool_)
            if prefix:
                out &= np.strings.startswith(values, prefix)
            if suffix:
                out &= np.strings.endswith(values, suffix)
            if middles or prefix or suffix:
                limit = np.strings.str_len(values) - len(suffix)
                pos = np.full(n, len(prefix), dtype=limit.dtype)
                for mid in middles:
                    found = np.strings.find(values, mid, pos, limit)
                    hit = found >= 0
                    out &= hit
                    pos = np.where(hit, found + len(mid), pos)
                out &= pos <= limit
    else:
        matcher = expr._matcher
        out = np.fromiter(
            (matcher(v) for v in values.tolist()),
            np.bool_,
            count=len(values),
        )
    out = np.asarray(out, dtype=np.bool_)
    if expr.negated:
        out = ~out
    return Column(out, operand.mask)


def _eval_in_list(expr: InList, batch: ColumnBatch) -> Column:
    operand = _eval_vec(expr.operand, batch)
    kind = operand.kind
    if kind == "O":
        raise _Fallback
    if kind in ("b", "i", "f"):
        members = [
            v for v in expr.values if isinstance(v, (bool, int, float))
        ]
    else:
        members = [v for v in expr.values if isinstance(v, str)]
    out = (
        np.isin(operand.values, members)
        if members
        else np.zeros(batch.length, np.bool_)
    )
    # The row path evaluates ``operand in values`` without null
    # propagation: a NULL operand tests whether None is in the list.
    if operand.mask is not None:
        out[operand.mask] = None in expr.values
    if expr.negated:
        out = ~out
    return Column(out)


def _eval_case(expr: CaseExpr, batch: ColumnBatch, test: bool = False) -> Column:
    n = batch.length
    remaining = np.arange(n)
    pieces: List[Tuple[np.ndarray, Column]] = []
    for cond, value in expr.whens:
        if remaining.size == 0:
            break
        cond_col = _eval_on_subset(cond, batch, remaining, True)
        hit = _truthy(cond_col)
        chosen = remaining[hit]
        if chosen.size:
            # The value expression runs only on the rows this branch
            # won — division in an unreached branch must not raise.
            pieces.append((chosen, _eval_on_subset(value, batch, chosen, test)))
        remaining = remaining[~hit]
    if remaining.size:
        pieces.append(
            (remaining, _eval_on_subset(expr.default, batch, remaining, test))
        )
    if not pieces:
        return _object_column([])
    kinds = {col.kind for _, col in pieces}
    kinds.discard("n")
    if len(kinds) == 1 and "O" not in kinds:
        dtype = np.result_type(*[col.values.dtype for _, col in pieces])
        values = np.empty(n, dtype=dtype)
        mask = np.zeros(n, np.bool_)
        for indices, col in pieces:
            values[indices] = col.values
            mask[indices] = col.null_mask()
        return Column(values, mask)
    out = [None] * n
    for indices, col in pieces:
        for i, v in zip(indices.tolist(), col.to_list()):
            out[i] = v
    return column_from_values(out)


def _eval_vec(expr: Expr, batch: ColumnBatch, test: bool = False) -> Column:
    """``test``: only the truth of the result is looked at (see
    ``KernelBuilder.render``); it reaches AND/OR and CASE branches."""
    if isinstance(expr, ColRef):
        return batch.column(expr.index)
    if isinstance(expr, Literal):
        return _literal_column(expr.value, batch.length)
    if isinstance(expr, BinaryOp):
        return _eval_binary(expr, batch, test)
    if isinstance(expr, UnaryOp):
        operand = _eval_vec(expr.operand, batch)
        if expr.op == "NOT":
            if operand.kind != "b":
                raise _Fallback
            return Column(~operand.values, operand.mask)
        return Column(-_numeric_values(operand), operand.mask)
    if isinstance(expr, FuncCall):
        return _eval_func(expr, batch)
    if isinstance(expr, CaseExpr):
        return _eval_case(expr, batch, test)
    if isinstance(expr, InList):
        return _eval_in_list(expr, batch)
    if isinstance(expr, LikeExpr):
        return _eval_like(expr, batch)
    if isinstance(expr, IsNull):
        operand = _eval_vec(expr.operand, batch)
        null = operand.null_mask()
        return Column(~null if expr.negated else null.copy())
    raise _Fallback


def eval_expr(expr: Expr, batch: ColumnBatch, test: bool = False) -> Column:
    """Evaluate an expression over a batch, vectorized where possible.

    Unsupported shapes fall back to the compiled row evaluator over only
    the columns the expression references — same results, row speed.
    """
    try:
        return _eval_vec(expr, batch, test)
    except _Fallback:
        fn = compile_expr(expr, test)
        rows = batch.partial_rows(references(expr))
        return column_from_values([fn(row) for row in rows])


# ---------------------------------------------------------------------------
# Key factorization (joins and grouping)
# ---------------------------------------------------------------------------


#: Key codes are combined as ``codes * n + next`` in int64; past this
#: bound they are re-numbered densely first.
_CODE_LIMIT = 1 << 62

#: Keys whose code span is at most this multiple of the rows at hand are
#: *dense* (surrogate keys, flags): a table with one slot per code is
#: addressed directly.  Anything sparser (SSB's ``yyyymmdd`` date keys,
#: multi-column products) keeps the sort-based kernels, whose cost does
#: not depend on the span.
_DENSE_SPAN = 8


def _dense_codes(
    left: np.ndarray, right: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Order-preserving dense re-numbering (from 0) of a value pair."""
    _, inv = np.unique(np.concatenate([left, right]), return_inverse=True)
    codes = inv.astype(np.int64, copy=False)
    return codes[: len(left)], codes[len(left) :]


def _dict_codes(values: list) -> Tuple[np.ndarray, int]:
    """First-occurrence codes under Python ``==``/``hash`` (``None`` is
    a value like any other) and the number of distinct values."""
    mapping: Dict = {}
    codes = np.fromiter(
        (mapping.setdefault(v, len(mapping)) for v in values),
        np.int64,
        count=len(values),
    )
    return codes, len(mapping)


def _code_count(left: np.ndarray, right: np.ndarray) -> int:
    return int(max(left.max(initial=-1), right.max(initial=-1))) + 1


def _float_exact(col: Column) -> bool:
    """True if a float64 cast keeps the column's values apart: beyond
    +-2**53 neighbouring integers share one float."""
    if col.kind != "i":
        return True
    values, limit = col.values, 1 << 53
    return bool(((values >= -limit) & (values <= limit)).all())


def _codes_pair(
    left: Column, right: Column
) -> Tuple[np.ndarray, np.ndarray]:
    """Integer codes for one join-key column pair.

    Equal values (by Python ``==``, the hash table's bucket equality)
    receive equal codes; NULLs receive ``-1`` on both sides, so a NULL
    key can never match anything — SQL ``NULL = NULL`` is not true.
    Codes need not be dense: a sparse span takes the sorted probe.
    """
    lk, rk = left.kind, right.kind
    lv, rv = left.values, right.values
    if lk in "bi" and rk in "bi":
        # Integer keys are their own codes, shifted to start at zero;
        # int64 throughout, so neighbours beyond 2**53 stay distinct.
        lv = lv.astype(np.int64, copy=False)
        rv = rv.astype(np.int64, copy=False)
        low = int(min(lv.min(initial=0), rv.min(initial=0)))
        high = int(max(lv.max(initial=0), rv.max(initial=0)))
        if high - low < _CODE_LIMIT:
            lcodes, rcodes = lv - low, rv - low
        else:
            lcodes, rcodes = _dense_codes(lv, rv)
    elif lk == "U" and rk == "U":
        lcodes, rcodes = _dense_codes(lv, rv)
    elif (
        lk in "bif" and rk in "bif"
        and _float_exact(left) and _float_exact(right)
    ):
        lcodes, rcodes = _dense_codes(
            lv.astype(np.float64), rv.astype(np.float64)
        )
    else:
        codes, _ = _dict_codes(left.to_list() + right.to_list())
        lcodes, rcodes = codes[: len(left)], codes[len(left) :]
    if left.mask is not None:
        lcodes[left.mask] = -1
    if right.mask is not None:
        rcodes[right.mask] = -1
    return lcodes, rcodes


def _join_codes(
    left: ColumnBatch, right: ColumnBatch, pairs: Sequence[Tuple[int, int]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Combined key codes over all equi-key pairs (``-1`` = has a NULL)."""
    lcodes: Optional[np.ndarray] = None
    rcodes: Optional[np.ndarray] = None
    for lk_pos, rk_pos in pairs:
        lc, rc = _codes_pair(left.column(lk_pos), right.column(rk_pos))
        if lcodes is None:
            lcodes, rcodes = lc, rc
            continue
        lnull = (lcodes < 0) | (lc < 0)
        rnull = (rcodes < 0) | (rc < 0)
        n_codes = _code_count(lc, rc)
        if _code_count(lcodes, rcodes) * n_codes >= _CODE_LIMIT:
            # Raw integer codes are as wide as the key range: re-number
            # both halves densely (NULL rows are overwritten below).
            lcodes, rcodes = _dense_codes(lcodes, rcodes)
            lc, rc = _dense_codes(lc, rc)
            n_codes = _code_count(lc, rc)
        lcodes = lcodes * n_codes + lc
        rcodes = rcodes * n_codes + rc
        lcodes[lnull] = -1
        rcodes[rnull] = -1
    assert lcodes is not None and rcodes is not None
    return lcodes, rcodes


def _group_codes(col: Column) -> Tuple[np.ndarray, int]:
    """Grouping codes for one GROUP BY column and a bound above them.

    Unlike join keys, NULL *is* a grouping value here: all NULLs share
    one fresh code (the row path groups by the raw tuple, where
    ``(None,) == (None,)``).
    """
    if col.kind == "O":
        return _dict_codes(col.to_list())
    values, codes = col.values, None
    if col.kind in "bi" and len(values):
        values = values.astype(np.int64, copy=False)
        low = int(values.min())
        count = int(values.max()) - low + 1
        if count <= _DENSE_SPAN * len(values):
            codes = values - low  # dense integers are their own codes
    if codes is None:
        uniques, inv = np.unique(values, return_inverse=True)
        codes = inv.astype(np.int64, copy=True)
        count = len(uniques)
    if col.mask is not None:
        codes[col.mask] = count
        count += 1
    return codes, count


# ---------------------------------------------------------------------------
# Sorting
# ---------------------------------------------------------------------------


def sort_batch(
    batch: ColumnBatch, keys: Sequence[Tuple[int, bool]]
) -> ColumnBatch:
    """Stable multi-key sort under the engine's total order.

    Equivalent to ``sort_rows``: NULLS LAST under ASC, NULLS FIRST under
    DESC, stable for equal keys.  Object-kind key columns use a Python
    permutation sort (mixed types need ``NullsLast``'s type-name
    fallback); everything else is a single ``np.lexsort``.
    """
    n = batch.length
    if n <= 1 or not keys:
        return batch
    if any(batch.column(pos).kind == "O" for pos, _ in keys):
        perm = list(range(n))
        lists = {pos: batch.column(pos).to_list() for pos, _ in keys}
        for pos, ascending in reversed(list(keys)):
            values = lists[pos]
            perm.sort(
                key=lambda i, v=values: NullsLast(v[i]),
                reverse=not ascending,
            )
        return batch.take(np.asarray(perm, dtype=np.int64))
    sort_keys: List[np.ndarray] = []
    for pos, ascending in reversed(list(keys)):
        col = batch.column(pos)
        kind = col.kind
        if kind == "U":
            _, inv = np.unique(col.values, return_inverse=True)
            values = inv.astype(np.int64, copy=False)
        elif kind == "b":
            values = col.values.astype(np.int8)
        else:
            values = col.values
        if ascending:
            flag = np.zeros(n, np.int8)
            if col.mask is not None:
                flag[col.mask] = 1  # NULLS LAST
        else:
            # Reverse the order: ``~v`` for integers (``-v`` wraps
            # INT64_MIN onto itself), negation for floats.
            values = -values if kind == "f" else ~values
            flag = np.ones(n, np.int8)
            if col.mask is not None:
                flag[col.mask] = 0  # NULLS FIRST under DESC
        sort_keys.append(values)
        sort_keys.append(flag)
    perm = np.lexsort(sort_keys)
    return batch.take(perm)


# ---------------------------------------------------------------------------
# The interpreter
# ---------------------------------------------------------------------------


def execute_columnar(node: PhysNode, site: int, ctx: ExecContext) -> ColumnBatch:
    """Drop-in replacement for ``execute_node``: same fragment trees under
    the same operator shell, a :class:`ColumnBatch` out — ``len()`` works
    on it, ``to_rows()`` gives the row backend's tuples."""
    return run_operator(_HANDLERS, node, site, ctx)


# -- scans --------------------------------------------------------------------


def _table_plan(data) -> List[str]:
    """Per-column dtype kinds for one table, derived from the stored
    values (schema types break ties for empty/all-NULL columns) and
    shared by every partition so concatenation never promotes dtypes."""
    kinds = data.__dict__.get("_columnar_kinds")
    if kinds is None:
        width = data.schema.width
        kinds = ["n"] * width
        for partition in data.partitions:
            for i in range(width):
                kinds[i] = _merge_kind(
                    kinds[i], _infer_kind([row[i] for row in partition])
                )
        for i, column in enumerate(data.schema.columns):
            if kinds[i] == "n":
                kinds[i] = _SCHEMA_KINDS.get(column.type.value, "O")
        data.__dict__["_columnar_kinds"] = kinds
    return kinds


def _partition_batch(data, partition: int) -> ColumnBatch:
    cache = data.__dict__.setdefault("_columnar_cache", {})
    batch = cache.get(partition)
    if batch is None:
        batch = from_rows(
            data.partitions[partition], data.schema.width, _table_plan(data)
        )
        cache[partition] = batch
    return batch


def _exec_table_scan(
    node: PhysTableScan, site: int, ctx: ExecContext
) -> ColumnBatch:
    data = ctx.store.table(node.table)
    scan = adapter_scan(node, site, ctx, data)
    if scan is not None:
        # Adapter-backed (or pushed) scans go through the shared adapter
        # seam so charges, scan counters and pushdown metrics match the
        # row backend exactly — and are never cached: every execution
        # must re-read the source (remote request counters, zone-map
        # pruning stats) just like the row path does.
        rows, detail = scan
        kinds = _table_plan(data)
        if node.pushed_project is not None:
            kinds = [kinds[i] for i in node.pushed_project]
        return from_rows(rows, len(node.fields), kinds), detail
    partitions = tuple(ctx.partitions_for(data, site))
    # Stored rows are immutable after load, so the concatenated batch for
    # one site's partition set is cached too (keyed by the partition set:
    # failover reassignments get their own entries).
    cache = data.__dict__.setdefault("_columnar_scan_cache", {})
    batch = cache.get(partitions)
    if batch is None:
        batch = concat_batches(
            [_partition_batch(data, p) for p in partitions],
            data.schema.width,
        )
        cache[partitions] = batch
    return batch


def _index_order_batch(
    data, index_name: str, partitions: Tuple[int, ...]
) -> ColumnBatch:
    """One site's rows in index order: its partitions' sorted streams
    merged once (by the row path's own merge, ties to the earlier
    partition) and cached per partition set like ``_columnar_scan_cache``."""
    cache = data.__dict__.setdefault("_columnar_index_cache", {})
    batch = cache.get((index_name, partitions))
    if batch is None:
        indexes = data.index(index_name)
        keys = [(k, True) for k in indexes[0].key_positions] if indexes else ()
        rows = merge_sorted([indexes[p].rows for p in partitions], keys)
        batch = from_rows(rows, data.schema.width, _table_plan(data))
        cache[index_name, partitions] = batch
    return batch


def _exec_index_scan(
    node: PhysIndexScan, site: int, ctx: ExecContext
) -> ColumnBatch:
    data = ctx.store.table(node.table)
    partitions = tuple(ctx.partitions_for(data, site))
    batch = _index_order_batch(data, node.index_name, partitions)
    if node.is_range_scan:
        # The leading key orders the merged batch, so the rows in range
        # are one block of it: it starts after every partition's rows
        # below the range and holds every partition's rows inside it, in
        # merged order — the merge of the per-partition slices.
        indexes = data.index(node.index_name)
        bounds = [
            indexes[p].range_bounds(
                node.low, node.high, node.low_inclusive, node.high_inclusive
            )
            for p in partitions
        ]
        batch = batch.slice(
            sum(lo for lo, _ in bounds), sum(hi for _, hi in bounds)
        )
    return batch


def _exec_receiver(
    node: PhysReceiver, site: int, ctx: ExecContext
) -> ColumnBatch:
    streams = ctx.inbound.get((node.exchange_id, site), [])
    # Singleton and broadcast exchanges deliver the sender's batch as it
    # is; hash exchanges deliver per-destination row lists.
    batches = [
        stream if isinstance(stream, ColumnBatch)
        else from_rows(stream, node.width)
        for stream in streams
    ]
    batch = concat_batches(batches, node.width)
    if node.collation.is_sorted and len(streams) > 1:
        batch = sort_batch(batch, node.collation.keys)
    ctx.record_input(node, site, sum(len(s) for s in streams))
    ctx.note_memory(site, batch.length * node.width * AFS)
    return batch


# -- filter / project / values ------------------------------------------------


def _exec_filter(
    node: PhysFilter, site: int, ctx: ExecContext, batch: ColumnBatch
) -> ColumnBatch:
    keep = _truthy(eval_expr(node.condition, batch, True))
    return batch.take(np.flatnonzero(keep))


def _exec_project(
    node: PhysProject, site: int, ctx: ExecContext, batch: ColumnBatch
) -> ColumnBatch:
    return ColumnBatch([eval_expr(e, batch) for e in node.exprs], batch.length)


def _exec_values(node: PhysValues, site: int, ctx: ExecContext) -> ColumnBatch:
    return from_rows(list(node.rows), len(node.fields))


# -- joins --------------------------------------------------------------------


def _combined_batch(
    left: ColumnBatch,
    right: ColumnBatch,
    left_idx: np.ndarray,
    right_idx: np.ndarray,
    refs: Sequence[int],
) -> ColumnBatch:
    """The candidate-pair batch for residual evaluation: only referenced
    columns are present."""
    refs = set(refs)
    width_left = left.width
    columns = _take_columns(
        [c if i in refs else None for i, c in enumerate(left.columns)],
        left_idx,
    ) + _take_columns(
        [
            c if i + width_left in refs else None
            for i, c in enumerate(right.columns)
        ],
        right_idx,
    )
    return ColumnBatch(columns, int(len(left_idx)))


def _gather_joined(
    left: ColumnBatch,
    right: ColumnBatch,
    left_idx: np.ndarray,
    right_idx: np.ndarray,
) -> ColumnBatch:
    """Joined output rows (deferred); ``right_idx == -1`` pads NULLs,
    which forces the right columns: the pad joins their null masks."""
    n = int(len(left_idx))
    columns = _take_columns(left.columns, left_idx)
    pad = right_idx < 0
    if not pad.any():
        columns += _take_columns(right.columns, right_idx)
    elif right.length == 0:
        # Every output row is a pad (LEFT join against an empty right
        # side): there is no row 0 to gather the fill from.
        for _ in range(right.width):
            values = np.empty(n, dtype=object)
            values[:] = None
            columns.append(Column(values, pad))
    else:
        for col in _take_columns(right.columns, np.where(pad, 0, right_idx)):
            columns.append(Column(col.values, col.null_mask() | pad))
    return ColumnBatch(columns, n)


def _assemble_join_output(
    node,
    left: ColumnBatch,
    right: ColumnBatch,
    match_li: np.ndarray,
    match_ri: np.ndarray,
    match_counts: np.ndarray,
) -> ColumnBatch:
    """Combine matched pairs (left-major, build order — already the row
    path's emit order) and per-join-type unmatched handling."""
    join_type = node.join_type
    if join_type is JoinType.INNER:
        return _gather_joined(left, right, match_li, match_ri)
    if join_type is JoinType.SEMI:
        return left.take(np.flatnonzero(match_counts > 0))
    if join_type is JoinType.ANTI:
        return left.take(np.flatnonzero(match_counts == 0))
    # LEFT: each unmatched left row emits one NULL-padded row, in left
    # order interleaved with the matched pairs.
    unmatched = np.flatnonzero(match_counts == 0)
    if unmatched.size == 0:
        return _gather_joined(left, right, match_li, match_ri)
    all_li = np.concatenate([match_li, unmatched])
    all_ri = np.concatenate([
        match_ri, np.full(unmatched.size, -1, dtype=np.int64)
    ])
    order = np.argsort(all_li, kind="stable")
    return _gather_joined(left, right, all_li[order], all_ri[order])


def _equi_candidates(
    left: ColumnBatch,
    right: ColumnBatch,
    pairs: Sequence[Tuple[int, int]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All candidate pairs of an equi join, left-major with build-side
    rows in insertion order — the row hash table's probe order.

    Returns ``(cand_left, cand_right, counts, offsets, pos_in_bucket)``,
    the same arrays whether dense codes address a table directly or
    sparse ones are sorted and binary-searched.
    """
    n_left, n_right = left.length, right.length
    if n_left == 0 or n_right == 0:
        none, zeros = np.empty(0, np.int64), np.zeros(n_left, np.int64)
        return none, none, zeros, zeros.copy(), none
    lcodes, rcodes = _join_codes(left, right, pairs)
    slots = _code_count(lcodes, rcodes) + 1
    if (
        slots <= _DENSE_SPAN * (n_left + n_right)
        and slots * n_right < _CODE_LIMIT
    ):
        # Direct addressing: one slot per code (slot 0 collects the -1
        # NULL codes and is never probed), bucket sizes by counting.
        build, rows = rcodes + 1, np.arange(n_right, dtype=np.int64)
        sizes = np.bincount(build, minlength=slots)
        starts = lcodes + 1
        counts = sizes[starts]
        if sizes[1:].max(initial=0) <= 1:
            # Key-unique build side: the scatter table *is* the bucket
            # array, each bucket starting at its own slot.
            order = np.zeros(slots, np.int64)
            order[build] = rows
        else:
            # Buckets in slot order, insertion order inside each: the
            # (slot, row) pairs are distinct, so any sort is stable.
            order = np.sort(build * n_right + rows) % n_right
            starts = (np.cumsum(sizes) - sizes)[starts]
    else:
        order = np.argsort(rcodes, kind="stable")
        sorted_codes = rcodes[order]
        starts = np.searchsorted(sorted_codes, lcodes, side="left")
        counts = np.searchsorted(sorted_codes, lcodes, side="right") - starts
    counts[lcodes < 0] = 0  # NULL keys probe nothing
    total = int(counts.sum())
    offsets = np.zeros(len(counts), dtype=np.int64)
    if len(counts):
        np.cumsum(counts[:-1], out=offsets[1:])
    cand_left = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    pos_in_bucket = (
        np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    )
    cand_right = order[pos_in_bucket + np.repeat(starts, counts)]
    return cand_left, cand_right, counts, offsets, pos_in_bucket


def _exec_equi_join(
    node, site: int, ctx: ExecContext, left: ColumnBatch, right: ColumnBatch
) -> Tuple[ColumnBatch, int]:
    """Hash and merge join: the output and the bucket candidates a hash
    join tests finding it.  Both inputs of a merge join arrive sorted on
    the keys, so its matches per left row equal the hash join's — the
    merge scan is an access-path detail (its charge ignores the count)."""
    if isinstance(node, PhysHashJoin):
        ctx.note_memory(site, right.length * node.right.width * AFS)
    cand_left, cand_right, counts, _, pos_in_bucket = _equi_candidates(
        left, right, node.pairs
    )
    residual = node.residual
    join_type = node.join_type
    if residual is None:
        match_li, match_ri = cand_left, cand_right
        match_counts = counts
        matches_scanned = (
            int(counts.sum()) if join_type.projects_right else 0
        )
    else:
        combined = _combined_batch(
            left, right, cand_left, cand_right, references(residual)
        )
        passed = _truthy(eval_expr(residual, combined, True))
        match_li, match_ri = cand_left[passed], cand_right[passed]
        match_counts = np.bincount(match_li, minlength=left.length)
        if join_type.projects_right:
            matches_scanned = int(len(cand_left))
        else:
            # SEMI/ANTI stop scanning a bucket at the first residual
            # pass; unmatched probes scan the whole bucket.
            examined = counts.copy()
            np.minimum.at(examined, match_li, pos_in_bucket[passed] + 1)
            matches_scanned = int(examined.sum())
    out = _assemble_join_output(
        node, left, right, match_li, match_ri, match_counts
    )
    return out, matches_scanned


def _exec_nested_loop_join(
    node: PhysNestedLoopJoin, site: int, ctx: ExecContext,
    left: ColumnBatch, right: ColumnBatch,
) -> ColumnBatch:
    n_left, n_right = left.length, right.length
    ctx.precheck(node, site, charges.nested_loop_pairs(n_left, n_right))
    condition = node.condition
    if condition is None or n_left == 0 or n_right == 0:
        if n_right == 0:
            match_li = np.empty(0, np.int64)
            match_ri = np.empty(0, np.int64)
            match_counts = np.zeros(n_left, np.int64)
        else:
            match_li = np.repeat(np.arange(n_left, dtype=np.int64), n_right)
            match_ri = np.tile(np.arange(n_right, dtype=np.int64), n_left)
            match_counts = np.full(n_left, n_right, np.int64)
    else:
        refs = references(condition)
        chunk = max(1, _NLJ_CHUNK_PAIRS // max(1, n_right))
        li_parts: List[np.ndarray] = []
        ri_parts: List[np.ndarray] = []
        match_counts = np.zeros(n_left, np.int64)
        base_ri = np.arange(n_right, dtype=np.int64)
        for start in range(0, n_left, chunk):
            stop = min(start + chunk, n_left)
            li = np.repeat(np.arange(start, stop, dtype=np.int64), n_right)
            ri = np.tile(base_ri, stop - start)
            combined = _combined_batch(left, right, li, ri, refs)
            passed = _truthy(eval_expr(condition, combined, True))
            li_parts.append(li[passed])
            ri_parts.append(ri[passed])
            match_counts[start:stop] = np.bincount(
                li[passed] - start, minlength=stop - start
            )
        match_li = (
            np.concatenate(li_parts) if li_parts else np.empty(0, np.int64)
        )
        match_ri = (
            np.concatenate(ri_parts) if ri_parts else np.empty(0, np.int64)
        )
    return _assemble_join_output(
        node, left, right, match_li, match_ri, match_counts
    )


# -- sort / limit -------------------------------------------------------------


def _exec_sort(
    node: PhysSort, site: int, ctx: ExecContext, batch: ColumnBatch
) -> ColumnBatch:
    ctx.note_memory(site, batch.length * node.width * AFS)
    out = sort_batch(batch, node.keys)
    if node.fetch is not None or node.offset is not None:
        out, _ = apply_offset_fetch(out, node.offset, node.fetch)
    return out


# -- aggregates ---------------------------------------------------------------


def _group_ids(
    batch: ColumnBatch, keys: Sequence[int]
) -> Tuple[np.ndarray, int, np.ndarray]:
    """Group id per row (first-occurrence order), group count, and the
    first-occurrence row index of each group — the row hash table's
    insertion order and representative key values."""
    n = batch.length
    combined = np.zeros(n, dtype=np.int64)
    bound = 1
    for key in keys:
        codes, count = _group_codes(batch.column(key))
        if bound * count >= _CODE_LIMIT:  # keep the product inside int64
            uniques, combined = np.unique(combined, return_inverse=True)
            bound = len(uniques)
        combined = combined * count + codes
        bound *= count
    if bound <= _DENSE_SPAN * n:
        # One slot per combined code; ``minimum.at`` is the documented
        # unbuffered form, so repeated codes keep their smallest row.
        rows = np.arange(n, dtype=np.int64)
        first = np.full(bound, n, dtype=np.int64)
        np.minimum.at(first, combined, rows)
        first_idx = np.flatnonzero(first[combined] == rows)
        first[combined[first_idx]] = rows[: len(first_idx)]  # now: group id
        return first[combined], len(first_idx), first_idx
    uniques, first_idx, inv = np.unique(
        combined, return_index=True, return_inverse=True
    )
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(uniques), dtype=np.int64)
    rank[order] = np.arange(len(uniques), dtype=np.int64)
    return rank[inv.astype(np.int64, copy=False)], len(uniques), first_idx[order]


def _run_ids(
    batch: ColumnBatch, keys: Sequence[int]
) -> Tuple[np.ndarray, int, np.ndarray]:
    """Group ids for the sort aggregate: *consecutive runs* of equal
    keys.  Non-adjacent equal keys are distinct groups, exactly like the
    row path's current-key comparison."""
    n = batch.length
    if n == 0:
        return np.empty(0, np.int64), 0, np.empty(0, np.int64)
    boundary = np.zeros(n, dtype=np.bool_)
    boundary[0] = True
    for key in keys:
        col = batch.column(key)
        if col.kind == "O":
            values = col.to_list()
            neq = np.fromiter(
                (values[i] != values[i - 1] for i in range(1, n)),
                np.bool_,
                count=n - 1,
            )
        else:
            values = col.values
            neq = values[1:] != values[:-1]
            if col.mask is not None:
                m0, m1 = col.mask[:-1], col.mask[1:]
                neq = (m0 != m1) | (~m0 & ~m1 & neq)
        boundary[1:] |= neq
    ids = np.cumsum(boundary) - 1
    count = int(ids[-1]) + 1
    return ids.astype(np.int64, copy=False), count, np.flatnonzero(boundary)


def _group_minmax(
    group_ids: np.ndarray, n_groups: int, col: Column, is_min: bool
) -> list:
    """Per-group MIN/MAX preserving the stored values' Python types."""
    valid = ~col.null_mask()
    out: list = [None] * n_groups
    if col.kind == "O":
        gids = group_ids.tolist()
        for i, value in enumerate(col.to_list()):
            if value is None:
                continue
            g = gids[i]
            current = out[g]
            if current is None or (
                value < current if is_min else value > current
            ):
                out[g] = value
        return out
    values = col.values[valid]
    gids = group_ids[valid]
    if len(values) == 0:
        return out
    uniques, inv = np.unique(values, return_inverse=True)
    sentinel = len(uniques) if is_min else -1
    codes = np.full(n_groups, sentinel, dtype=np.int64)
    reducer = np.minimum if is_min else np.maximum
    reducer.at(codes, gids, inv.astype(np.int64, copy=False))
    found = codes != sentinel
    winners = uniques[codes[found]].tolist()
    for slot, value in zip(np.flatnonzero(found).tolist(), winners):
        out[slot] = value
    return out


def _distinct_keep(gids: np.ndarray, col: Column) -> np.ndarray:
    """Indices of first-occurrence distinct ``(group, value)`` pairs.

    Reproduces the row accumulator's ``_seen`` set: within each group
    only the first row carrying each value survives, and the surviving
    indices stay in row order so float sums accumulate in the identical
    sequence.  ``col`` must already be the NULL-free argument subset.
    """
    n = len(gids)
    if n == 0:
        return np.empty(0, np.int64)
    if col.kind == "O":
        seen = set()
        keep: List[int] = []
        for i, (g, v) in enumerate(zip(gids.tolist(), col.to_list())):
            if (g, v) not in seen:
                seen.add((g, v))
                keep.append(i)
        return np.asarray(keep, dtype=np.int64)
    _, inv = np.unique(col.values, return_inverse=True)
    inv = inv.astype(np.int64, copy=False)
    pair = gids * (int(inv.max(initial=0)) + 1) + inv
    _, first = np.unique(pair, return_index=True)
    return np.sort(first)


def _agg_columns(
    node, batch: ColumnBatch, group_ids: np.ndarray, n_groups: int
) -> List[Column]:
    """One result column per aggregate call (vectorized accumulators).

    Float sums use ``np.bincount`` with weights, which accumulates in
    row order — the identical sequence of float additions as the row
    accumulator, so SUM/AVG are bit-for-bit equal.  DISTINCT calls
    first reduce the argument to first-occurrence ``(group, value)``
    pairs and then aggregate that subset the ordinary way.
    """
    is_map = node.phase is AggPhase.MAP
    columns: List[Column] = []
    for call in node.agg_calls:
        func = call.func
        if is_map and call.distinct:
            raise ExecutionError("distinct aggregates cannot be split")
        if call.arg is None:  # COUNT(*)
            counts = np.bincount(group_ids, minlength=n_groups)
            if call.distinct:
                # The row accumulator dedupes the ``True`` sentinel.
                counts = np.minimum(counts, 1)
            values = [int(c) for c in counts.tolist()]
            columns.append(column_from_values(values, "i"))
            continue
        arg = eval_expr(call.arg, batch)
        valid = ~arg.null_mask()
        gids = group_ids[valid]
        if call.distinct and func is not AggFunc.MIN and func is not AggFunc.MAX:
            # MIN/MAX are dedup-invariant; COUNT/SUM/AVG are not.
            sub = arg.take(np.flatnonzero(valid))
            keep = _distinct_keep(gids, sub)
            gids = gids[keep]
            arg_values = sub.values[keep]
        else:
            arg_values = arg.values[valid]
        if func is AggFunc.COUNT:
            counts = np.bincount(gids, minlength=n_groups)
            columns.append(column_from_values(
                [int(c) for c in counts.tolist()], "i"
            ))
        elif func is AggFunc.SUM or func is AggFunc.AVG:
            weights = np.asarray(arg_values, dtype=np.float64)
            sums = np.bincount(gids, weights=weights, minlength=n_groups)
            counts = np.bincount(gids, minlength=n_groups)
            if is_map:
                values = [
                    (float(s), int(c))
                    for s, c in zip(sums.tolist(), counts.tolist())
                ]
            elif func is AggFunc.SUM:
                values = [
                    float(s) if c else None
                    for s, c in zip(sums.tolist(), counts.tolist())
                ]
            else:
                values = [
                    float(s) / int(c) if c else None
                    for s, c in zip(sums.tolist(), counts.tolist())
                ]
            columns.append(column_from_values(values))
        else:  # MIN / MAX
            values = _group_minmax(
                group_ids, n_groups, arg, func is AggFunc.MIN
            )
            columns.append(column_from_values(values))
    return columns


def _reduce_columns(
    node, batch: ColumnBatch, group_ids: np.ndarray, n_groups: int
) -> List[Column]:
    """REDUCE phase: merge the MAP partial states found after the keys.

    Column ``len(keys) + i`` holds call ``i``'s partials — COUNT an int,
    SUM/AVG a ``(sum, count)`` pair, MIN/MAX a value-or-None.  Per-group
    merges proceed in batch row order, the same sequence the row core's
    ``merge_row`` loop follows, so float sums stay bit-for-bit equal.
    """
    offset = len(node.group_keys)
    columns: List[Column] = []
    for index, call in enumerate(node.agg_calls):
        func = call.func
        col = batch.column(offset + index)
        n = len(col)
        if func is AggFunc.COUNT:
            acc = np.zeros(n_groups, dtype=np.int64)
            if col.kind in ("i", "b"):
                np.add.at(acc, group_ids, col.values.astype(np.int64, copy=False))
            else:
                for g, v in zip(group_ids.tolist(), col.to_list()):
                    acc[g] += v
            columns.append(column_from_values(
                [int(v) for v in acc.tolist()], "i"
            ))
        elif func is AggFunc.SUM or func is AggFunc.AVG:
            partials = col.to_list()
            comp_sum = np.fromiter(
                (p[0] if p is not None else 0.0 for p in partials),
                np.float64,
                count=n,
            )
            comp_count = np.fromiter(
                (p[1] if p is not None else 0 for p in partials),
                np.int64,
                count=n,
            )
            sums = np.bincount(group_ids, weights=comp_sum, minlength=n_groups)
            counts = np.bincount(
                group_ids, weights=comp_count, minlength=n_groups
            ).astype(np.int64)
            if func is AggFunc.SUM:
                values = [
                    float(s) if c else None
                    for s, c in zip(sums.tolist(), counts.tolist())
                ]
            else:
                values = [
                    float(s) / int(c) if c else None
                    for s, c in zip(sums.tolist(), counts.tolist())
                ]
            columns.append(column_from_values(values))
        else:  # MIN / MAX over value-or-None partials
            columns.append(column_from_values(_group_minmax(
                group_ids, n_groups, col, func is AggFunc.MIN
            )))
    return columns


def _aggregate_batch(node, batch: ColumnBatch, sorted_runs: bool) -> ColumnBatch:
    keys = node.group_keys
    if sorted_runs:
        group_ids, n_groups, rep_idx = _run_ids(batch, keys)
    else:
        group_ids, n_groups, rep_idx = _group_ids(batch, keys)
    if n_groups == 0:
        if not keys and node.phase is not AggPhase.MAP:
            # Scalar aggregate over an empty input still yields one row.
            evaluator = AggregateEvaluator(node.agg_calls)
            row = evaluator.results(evaluator.new_group())
            return from_rows([row], node.width)
        return from_rows([], node.width)
    columns = _take_columns([batch.column(k) for k in keys], rep_idx)
    if node.phase is AggPhase.REDUCE:
        columns.extend(_reduce_columns(node, batch, group_ids, n_groups))
    else:
        columns.extend(_agg_columns(node, batch, group_ids, n_groups))
    return ColumnBatch(columns, n_groups)


def _exec_hash_aggregate(
    node: PhysHashAggregate, site: int, ctx: ExecContext, batch: ColumnBatch
) -> ColumnBatch:
    out = _aggregate_batch(node, batch, sorted_runs=False)
    ctx.note_memory(site, out.length * node.width * AFS)
    return out


def _exec_sort_aggregate(
    node: PhysSortAggregate, site: int, ctx: ExecContext, batch: ColumnBatch
) -> ColumnBatch:
    if node.phase is AggPhase.REDUCE:
        raise ExecutionError("sort aggregate does not implement REDUCE")
    return _aggregate_batch(node, batch, sorted_runs=True)


_HANDLERS = {
    PhysTableScan: _exec_table_scan,
    PhysIndexScan: _exec_index_scan,
    PhysReceiver: _exec_receiver,
    PhysFilter: _exec_filter,
    PhysProject: _exec_project,
    PhysValues: _exec_values,
    PhysNestedLoopJoin: _exec_nested_loop_join,
    PhysHashJoin: _exec_equi_join,
    PhysMergeJoin: _exec_equi_join,
    PhysSort: _exec_sort,
    PhysLimit: exec_limit,  # slices whatever it is given
    PhysHashAggregate: _exec_hash_aggregate,
    PhysSortAggregate: _exec_sort_aggregate,
}