"""Property: the columnar comparison, AND/OR and projection kernels equal
their pre-change versions.

``columnar._eval_binary`` compares a column with a non-NULL int64, float
or str literal of its own kind against the scalar itself, and combines
two NULL-free boolean sides of AND/OR with a plain ``&``/``|``;
``_exec_project`` picks the columns of a projection made only of column
references.  The versions they replaced (``tests/helpers.py``) build the
literal column, combine null masks always, and evaluate every projected
expression.  For every column kind (``b i f U O``) with no, some or only
NULLs, int64 edge and out-of-range literals, NaN, strings with a trailing
``\\x00``, every comparison operator, either operand order and AND/OR over
masked and mask-free sides, both must give the same values, masks and
kinds — or raise the same exception type.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ExecutionError
from repro.exec import columnar
from repro.exec.columnar import Column, ColumnBatch
from repro.exec.physical import PhysProject
from repro.rel.expr import BinaryOp, ColRef, Literal

from helpers import evaluating_project, literal_column_eval

pytestmark = pytest.mark.columnar

INT64 = (-(1 << 63), (1 << 63) - 1)
COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")

KIND_VALUES = {
    "b": st.booleans(),
    "i": st.integers(-3, 3) | st.sampled_from(INT64),
    "f": st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, 1.5]),
    "U": st.text(alphabet="ab\x00", max_size=3),
    "O": st.text(alphabet="ab", max_size=2) | st.integers(-2, 2),
}
DTYPES = {"b": np.bool_, "i": np.int64, "f": np.float64, "U": str, "O": object}

LITERALS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.sampled_from([*INT64, INT64[0] - 1, INT64[1] + 1, 1 << 70])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, 0.0, 2.0])
    | st.text(alphabet="ab\x00", max_size=3)
)


@st.composite
def columns(draw, n, kind=None):
    kind = kind or draw(st.sampled_from(sorted(KIND_VALUES)))
    values = draw(st.lists(KIND_VALUES[kind], min_size=n, max_size=n))
    if kind == "O":
        array = np.empty(n, dtype=object)
        array[:] = values
    else:
        array = np.array(values, dtype=DTYPES[kind]) if n else np.empty(0, DTYPES[kind])
    nulls = draw(st.sampled_from(["none", "some", "all"]))
    if nulls == "none":
        mask = None
    elif nulls == "all":
        mask = np.ones(n, np.bool_)
    else:
        mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), np.bool_)
    column = Column(array, mask)
    if n and draw(st.booleans()):  # a deferred view of a stored column
        column = column.take(np.arange(n, dtype=np.int64))
    return column


def _plain(value):
    return "nan" if isinstance(value, float) and math.isnan(value) else value


def outcome(evaluate, expr, batch, test):
    """What ``evaluate`` gives: the column's kind, dtype, values and mask,
    or the type of the exception it raises."""
    try:
        col = evaluate(expr, batch, test)
    except (columnar._Fallback, ArithmeticError, TypeError, ExecutionError) as error:
        return type(error)
    mask = None if col.mask is None else col.mask.tolist()
    values = [_plain(v) for v in col.values.tolist()]
    return col.kind, str(col.values.dtype), values, mask


@st.composite
def comparisons(draw, width):
    op = draw(st.sampled_from(COMPARISONS))
    column = ColRef(draw(st.integers(0, width - 1)))
    other = (
        ColRef(draw(st.integers(0, width - 1)))
        if draw(st.integers(0, 4)) == 0
        else Literal(draw(LITERALS))
    )
    return BinaryOp(op, column, other) if draw(st.booleans()) else BinaryOp(op, other, column)


@st.composite
def conditions(draw, width):
    """A comparison, or AND/OR of two sides: comparisons, boolean columns
    (masked or not), or a side that divides (the short-circuit path)."""
    shape = draw(st.sampled_from(["cmp", "and-or", "and-or-divides"]))
    if shape == "cmp":
        return draw(comparisons(width))
    sides = []
    for _ in range(2):
        sides.append(
            ColRef(draw(st.integers(0, width - 1)))
            if draw(st.booleans())
            else draw(comparisons(width))
        )
    if shape == "and-or-divides":
        divisor = ColRef(draw(st.integers(0, width - 1)))
        sides[1] = BinaryOp(">", BinaryOp("/", Literal(1), divisor), Literal(0))
    return BinaryOp(draw(st.sampled_from(["AND", "OR"])), *sides)


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_comparisons_and_conjunctions_match_the_literal_column_kernel(data):
    n = data.draw(st.integers(0, 6))
    width = 3
    # Boolean columns come up often, so AND/OR meet real boolean sides.
    kinds = [data.draw(st.sampled_from(["b", "b", "i", "f", "U", "O"])) for _ in range(width)]
    batch = ColumnBatch([data.draw(columns(n, kind)) for kind in kinds], n)
    expr = data.draw(conditions(width))
    test = data.draw(st.booleans())
    assert outcome(columnar._eval_vec, expr, batch, test) == outcome(
        literal_column_eval, expr, batch, test
    )


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_projections_match_the_evaluating_kernel(data):
    n = data.draw(st.integers(0, 5))
    width = data.draw(st.integers(1, 4))
    batch = ColumnBatch(
        [None if data.draw(st.integers(0, 5)) == 0 else data.draw(columns(n)) for _ in range(width)],
        n,
    )
    item = st.builds(ColRef, st.integers(0, width - 1))
    if data.draw(st.booleans()):
        item = item | st.builds(Literal, st.integers(-2, 2) | st.text(alphabet="ab", max_size=2))
    exprs = data.draw(st.lists(item, max_size=5))
    node = PhysProject.__new__(PhysProject)
    node.exprs = exprs

    def project(run):
        try:
            out = run(node, 0, None, batch)
        except ExecutionError as error:  # a column the batch never built
            return type(error)
        return out.length, [
            (c.kind, [_plain(v) for v in c.to_list()]) for c in out.columns
        ]

    assert project(columnar._exec_project) == project(evaluating_project)
