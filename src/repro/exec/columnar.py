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
output stays a :class:`ColumnBatch` across every exchange: single and
broadcast exchanges ship the batch itself, hash exchanges index views of
it (:func:`hash_views`), and receivers concatenate lazily
(:func:`concat_columns`); whoever needs tuples (seam capture, the
result) asks for ``to_rows()`` there.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common import charges
from repro.common.constants import AFS
from repro.common.errors import ExecutionError
from repro.common.ordering import NullsLast, orderable
from repro.exec.aggregates import AggregateEvaluator
from repro.exec.fragments import PhysReceiver
from repro.exec.operators import (
    ExecContext,
    Rows,
    adapter_scan,
    apply_offset_fetch,
    exec_limit,
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
    TOTAL_ORDER,
    UnaryOp,
    compile_expr,
    references,
)
from repro.rel.logical import AggFunc, JoinType
from repro.storage.table import affinity_partitions

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

    A column is *materialised*, *deferred* or *chunked*.  ``take`` copies
    nothing: it returns a reference to a materialised or chunked source
    column plus an int64 index vector.  ``concat_columns`` copies nothing
    either: it returns the parts end to end as chunks.  Reading
    ``values``/``mask`` gathers or concatenates once (``_force``) and
    caches; ``kind`` and ``len()`` answer from the source or the chunks,
    and a further ``take``/``slice`` composes index vectors, so a column
    nobody reads is never gathered or concatenated however many
    exchanges, joins, filters and sorts it crosses.
    """

    __slots__ = ("_values", "_mask", "_source", "_index", "_chunks", "_likes")

    def __init__(self, values: np.ndarray, mask: Optional[np.ndarray] = None):
        self._values = values
        # ``mask is None`` steers kernels, so an all-False mask is dropped.
        self._mask = mask if (mask is not None and mask.any()) else None
        self._source: Optional["Column"] = None
        self._index: Optional[np.ndarray] = None
        self._chunks: Optional[Tuple["Column", ...]] = None
        self._likes: Optional[Dict[str, object]] = None  # _like_leaf

    @classmethod
    def _deferred(cls, source: "Column", index: np.ndarray) -> "Column":
        """``source`` (materialised, chunked, or a cached index scan
        column) gathered at ``index`` — on first read."""
        col = cls.__new__(cls)
        col._values = col._mask = col._chunks = col._likes = None
        col._source, col._index = source, index
        return col

    @classmethod
    def _chunked(cls, chunks: Sequence["Column"]) -> "Column":
        """``chunks`` end to end — concatenated on first read."""
        col = cls.__new__(cls)
        col._values = col._mask = col._source = col._index = col._likes = None
        col._chunks = tuple(chunks)
        return col

    def _gather(self) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """A deferred or chunked column's ``(values, mask)``, not cached
        here.  A deferred column's chunked source is concatenated, and
        cached on the source, by the first read of any view of it."""
        if self._chunks is not None:
            return _concat_chunks(self._chunks)
        source, index = self._source, self._index
        mask = source.mask
        return source.values[index], None if mask is None else mask[index]

    def _force(self) -> None:
        """Materialise a deferred or chunked column: the one place data is
        gathered or concatenated."""
        values, mask = self._gather()
        self._values = values
        self._mask = mask if mask is not None and mask.any() else None
        self._source = self._index = self._chunks = None

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._force()
        return self._values

    @property
    def mask(self) -> Optional[np.ndarray]:
        if self._values is None:
            self._force()
        return self._mask

    def __len__(self) -> int:
        if self._values is not None:
            return len(self._values)
        if self._chunks is not None:
            return sum(map(len, self._chunks))
        return len(self._index)

    @property
    def kind(self) -> str:
        values = self._values
        if values is not None:
            return _DTYPE_KINDS.get(values.dtype.kind, "O")
        if self._chunks is not None:
            kinds = {chunk.kind for chunk in self._chunks}
            return kinds.pop() if len(kinds) == 1 else "O"
        return self._source.kind

    def null_mask(self) -> np.ndarray:
        mask = self.mask
        if mask is not None:
            return mask
        return np.zeros(len(self), dtype=np.bool_)

    def take(self, indices: np.ndarray) -> "Column":
        return _take_columns((self,), indices)[0]

    def slice(self, start: int, stop: Optional[int]) -> "Column":
        if self._values is None:
            if self._chunks is not None:
                bounds = slice(start, stop).indices(len(self))
                return Column._deferred(self, np.arange(*bounds, dtype=np.int64))
            return Column._deferred(self._source, self._index[start:stop])
        mask = self._mask
        return Column(
            self._values[start:stop],
            mask[start:stop] if mask is not None else None,
        )

    def to_list(self) -> list:
        return _python_values(self.values, self.mask)


def _python_values(values: np.ndarray, mask: Optional[np.ndarray]) -> list:
    """Python values of a column's parts, ``None`` where ``mask`` is set."""
    out = values.tolist()
    if mask is not None:
        for i in np.flatnonzero(mask).tolist():
            out[i] = None
    return out


def _concat_chunks(
    chunks: Sequence[Column],
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``(values, mask)`` of ``chunks`` end to end.

    A deferred chunk is gathered for the concatenation only, not cached
    on the chunk (a hash exchange's views stay in the run's inbound
    buffers).  Chunks of different kinds (one stream inferred ints,
    another floats, or a narrow-string part meets a demoted wide-string
    part) must not meet in ``np.concatenate``, which would silently
    promote and rewrite values (1 -> 1.0): they become an object column
    holding the exact Python values, NULLs as in-place ``None``.
    """
    parts = [
        (chunk.values, chunk.mask) if chunk._source is None
        else chunk._gather()
        for chunk in chunks
    ]
    if len({chunk.kind for chunk in chunks}) > 1:
        values = np.empty(sum(len(v) for v, _ in parts), dtype=object)
        pos = 0
        for part, mask in parts:
            values[pos : pos + len(part)] = _python_values(part, mask)
            pos += len(part)
    else:
        values = np.concatenate([part for part, _ in parts])
    if all(mask is None for _, mask in parts):
        return values, None
    return values, np.concatenate([
        np.zeros(len(part), dtype=np.bool_) if mask is None else mask
        for part, mask in parts
    ])


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
        strings = [v for v in values if v is not None] if has_null else values
        # ``default``: a schema-typed part may hold only NULLs.  A fixed-
        # width ``U`` array drops trailing NULs, so strings with one stay
        # Python objects.
        if (
            max(map(len, strings), default=0) > _WIDE_STR_CHARS
            or "\x00" in "".join(strings)
        ):
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
    """``columns`` end to end, as one column that holds them as chunks:
    nothing is copied until it is read (``Column._force``)."""
    if len(columns) == 1:
        return columns[0]
    return Column._chunked(columns)


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


#: Patterns whose LIKE results a column keeps, oldest dropped first.
_LIKE_MEMO = 4


def _like_values(values: np.ndarray, expr: LikeExpr) -> np.ndarray:
    """Whether each string of a ``U`` array matches ``expr``'s pattern."""
    pattern = expr.pattern
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
    return np.asarray(out, dtype=np.bool_)


def _like_leaf(leaf: Column, expr: LikeExpr) -> np.ndarray:
    """``expr``'s matches over a materialised column, kept on it for warm
    runs (False: it holds a non-string).  Wide strings are objects (see
    ``_WIDE_STR_CHARS``) and match after a ``U`` conversion."""
    memo = leaf._likes = leaf._likes or {}
    out = memo.get(expr.pattern)
    if out is None:
        values = leaf.values
        if leaf.kind == "O":
            strings = values.tolist()
            if set(map(type, strings)) <= {str, _NONE_TYPE}:
                values = np.array(["" if v is None else v for v in strings], "U")
        out = _like_values(values, expr) if values.dtype.kind == "U" else False
        if len(memo) >= _LIKE_MEMO:
            del memo[next(iter(memo))]
        memo[expr.pattern] = out
    if out is False:
        raise _Fallback
    return out


def _leafwise(col: Column, read) -> np.ndarray:
    """``read(leaf)`` of each materialised column under ``col``, taken
    through its index vectors and chunks; ``col`` is not gathered."""
    if col._values is not None:
        return read(col)
    if col._chunks is not None:
        return np.concatenate([_leafwise(chunk, read) for chunk in col._chunks])
    return _leafwise(col._source, read)[col._index]


def _eval_like(expr: LikeExpr, batch: ColumnBatch) -> Column:
    """LIKE runs once per stored leaf column of the operand; a deferred
    or chunked operand then only gathers booleans."""
    operand = _eval_vec(expr.operand, batch)
    if operand.kind not in ("U", "O"):
        raise _Fallback
    out = _leafwise(operand, lambda leaf: _like_leaf(leaf, expr))
    return Column(
        ~out if expr.negated else out, _leafwise(operand, Column.null_mask)
    )


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

#: A join keeps only the rows that can match first (``_semi_reduce``)
#: when its probe keys cover at most ``1/_REDUCE_SPAN`` of the span and
#: the span tops ``_REDUCE_SPAN`` slots per row or the build side is big:
#: ``_REDUCE_MIN`` rows and ``_REDUCE_RATIO`` per probe row.  Smaller,
#: mid-size sparse shapes pay more for the reduction than it saves.
_REDUCE_SPAN, _REDUCE_RATIO, _REDUCE_MIN = 4, 16, 4096

#: Up to this many slots per row the reduction uses ``bool`` tables, an
#: eighth of the int64 slot direct addressing pays.
_FLAG_SPAN = 8 * _DENSE_SPAN


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
    fallback, which a column of one orderable kind skips, as in
    ``sort_rows``); everything else is a single ``np.lexsort``.
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
                key=values.__getitem__ if orderable(values)
                else lambda i, v=values: NullsLast(v[i]),
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


def _site_batch(data, partitions: Tuple[int, ...]) -> ColumnBatch:
    """The one columnar copy of the stored rows of ``partitions``: built
    once from their rows, end to end, and cached per partition set
    (stored rows are immutable after load; failover reassignments get
    their own entries).  Every columnar scan and index scan of those
    partitions is this batch or an index view of it."""
    cache = data.__dict__.setdefault("_columnar_scan_cache", {})
    batch = cache.get(partitions)
    if batch is None:
        batch = from_rows(
            list(chain.from_iterable(data.partitions[p] for p in partitions)),
            data.schema.width,
            _table_plan(data),
        )
        cache[partitions] = batch
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
    return _site_batch(data, tuple(ctx.partitions_for(data, site)))


def _index_order_batch(
    data, index_name: str, partitions: Tuple[int, ...]
) -> ColumnBatch:
    """One site's rows in index order: the site batch stably sorted by
    the index key, an index view of it cached per ``(index, partition
    set)``.  The site batch holds the partitions end to end, so the
    stable sort orders by key with ties to the earlier partition — the
    row path's merge of the per-partition index streams."""
    cache = data.__dict__.setdefault("_columnar_index_cache", {})
    batch = cache.get((index_name, partitions))
    if batch is None:
        positions = data.index(index_name)[0].key_positions
        batch = sort_batch(
            _site_batch(data, partitions), [(k, True) for k in positions]
        )
        cache[index_name, partitions] = batch
    return batch


def _exec_index_scan(
    node: PhysIndexScan, site: int, ctx: ExecContext
) -> ColumnBatch:
    data = ctx.store.table(node.table)
    partitions = tuple(ctx.partitions_for(data, site))
    batch = _index_order_batch(data, node.index_name, partitions)
    start, stop = 0, batch.length
    if node.is_range_scan:
        # The leading key orders the sorted batch, so the rows in range
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
        start, stop = sum(lo for lo, _ in bounds), sum(hi for _, hi in bounds)
    # A column some scan read is the cached one, or a slice of it; any
    # other is deferred over the cached column itself, not composed
    # through to the site batch, so its first read gathers it into the
    # index batch once and later scans read it in index order.
    whole = (start, stop) == (0, batch.length)
    index = None
    columns = []
    for column in batch.columns:
        if column._values is None:
            if index is None:
                index = np.arange(start, stop, dtype=np.int64)
            columns.append(Column._deferred(column, index))
        else:
            columns.append(column if whole else column.slice(start, stop))
    return ColumnBatch(columns, stop - start)


def hash_views(
    batch: ColumnBatch,
    keys: Sequence[int],
    owners: Sequence[int],
    destinations: Sequence[int],
) -> Dict[int, ColumnBatch]:
    """A hash exchange's split of ``batch``: per destination, an index
    view of the rows whose key partition ``owners`` maps there, in the
    batch's row order (the row backend's buckets, as deferred takes)."""
    partitions = affinity_partitions(
        [batch.column(k) for k in keys], len(owners)
    )
    sites = np.asarray(owners, dtype=np.int64)[partitions]
    return {
        dest: batch.take(np.flatnonzero(sites == dest))
        for dest in destinations
    }


def _exec_receiver(
    node: PhysReceiver, site: int, ctx: ExecContext
) -> ColumnBatch:
    streams = ctx.inbound.get((node.exchange_id, site), [])
    # Every exchange delivers batches: single and broadcast ones the
    # sender's own, hash ones index views of it.  A broadcast delivers the
    # same streams to every site, so their batch is built once per run.
    kept = ctx.broadcast_batches.get(node.exchange_id)
    if (
        kept is not None
        and len(kept[0]) == len(streams)
        and all(a is b for a, b in zip(kept[0], streams))
    ):
        batch = kept[1]
    else:
        batch = concat_batches(streams, node.width)
        if node.collation.is_sorted and len(streams) > 1:
            batch = sort_batch(batch, node.collation.keys)
        if node.distribution.is_broadcast:
            ctx.broadcast_batches[node.exchange_id] = (streams, batch)
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
    """Joined output rows (deferred); ``right_idx == -1`` pads NULLs, a
    view of one NULL row past each right column's end."""
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
        index = np.where(pad, right.length, right_idx)
        for col in right.columns:
            null = column_from_values([None], col.kind)
            columns.append(Column._deferred(concat_columns([col, null]), index))
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


def _semi_reduce(
    lcodes: np.ndarray, rcodes: np.ndarray, slots: int
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(probes, kept)``, ascending: the probe rows that may match and
    the build rows whose code some probe row has, by a ``bool`` table
    per side — past ``_FLAG_SPAN`` by a search of the probe side's sorted
    codes, keeping every non-NULL probe row.  ``None``: it does not pay."""
    n_left, n_right = len(lcodes), len(rcodes)
    n = n_left + n_right
    big = n_right >= max(_REDUCE_RATIO * n_left, _REDUCE_MIN)
    if slots <= _REDUCE_SPAN * n_left or not (big or slots > _REDUCE_SPAN * n):
        return None
    if slots <= _FLAG_SPAN * n:
        flags = np.zeros(slots, np.bool_)
        flags[lcodes + 1] = True
        flags[0] = False  # slot 0 is the NULL code's: it asks for nothing
        kept = np.flatnonzero(flags[rcodes + 1])
        flags[:] = False
        flags[rcodes[kept] + 1] = True
        return np.flatnonzero(flags[lcodes + 1]), kept
    if not big:
        return None
    wanted = np.sort(lcodes)  # not np.unique: it imports numpy.ma, ≈ 1 MiB
    at = np.minimum(np.searchsorted(wanted, rcodes), n_left - 1)
    kept = np.flatnonzero((wanted[at] == rcodes) & (rcodes >= 0))
    return np.flatnonzero(lcodes >= 0), kept


def _equi_candidates(
    left: ColumnBatch,
    right: ColumnBatch,
    pairs: Sequence[Tuple[int, int]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All candidate pairs of an equi join, left-major with build-side
    rows in insertion order — the row hash table's probe order.

    Returns ``(cand_left, cand_right, counts, offsets, pos_in_bucket)``,
    the same arrays whether the sides are semi-join reduced first, dense
    codes address a table directly or sparse ones are sorted and
    binary-searched.
    """
    n_left, n_right = left.length, right.length
    if n_left == 0 or n_right == 0:
        none, zeros = np.empty(0, np.int64), np.zeros(n_left, np.int64)
        return none, none, zeros, zeros.copy(), none
    lcodes, rcodes = _join_codes(left, right, pairs)
    slots = _code_count(lcodes, rcodes) + 1
    reduced = _semi_reduce(lcodes, rcodes, slots)
    if reduced is None:
        probes = np.arange(n_left, dtype=np.int64)
    else:
        probes, kept = reduced
        lcodes, rcodes = lcodes[probes], rcodes[kept]
        n_right = len(rcodes)
    if (
        slots <= _DENSE_SPAN * (len(lcodes) + n_right)
        and slots * n_right < _CODE_LIMIT
    ):
        # Direct addressing: one slot per code (slot 0 collects the -1
        # NULL codes and is never probed), bucket sizes by counting.
        build, rows = rcodes + 1, np.arange(n_right, dtype=np.int64)
        sizes = np.bincount(build, minlength=slots)
        starts = lcodes + 1
        hits = sizes[starts]
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
        hits = np.searchsorted(sorted_codes, lcodes, side="right") - starts
    hits[lcodes < 0] = 0  # NULL keys probe nothing
    counts = hits
    if reduced is not None:
        counts = np.zeros(n_left, np.int64)
        counts[probes] = hits
    offsets = np.zeros(n_left, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    cand_left = np.repeat(probes, hits)
    firsts = offsets if reduced is None else offsets[probes]
    pos_in_bucket = (
        np.arange(len(cand_left), dtype=np.int64) - np.repeat(firsts, hits)
    )
    cand_right = order[pos_in_bucket + np.repeat(starts, hits)]
    if reduced is not None:
        cand_right = kept[cand_right]
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
        gids, values = group_ids.tolist(), col.to_list()
        if TOTAL_ORDER.get():  # see ``run_operator``
            values = [v if v is None else NullsLast(v) for v in values]
        for i, value in enumerate(values):
            if value is None:
                continue
            g = gids[i]
            current = out[g]
            if current is None or (
                value < current if is_min else value > current
            ):
                out[g] = value
        if TOTAL_ORDER.get():
            return [None if v is None else v.value for v in out]
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