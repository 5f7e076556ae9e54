"""Row expressions ("rex"): the expression language of relational operators.

These are the resolved, positional expressions that live inside Filter,
Project and Join operators after SQL-to-rel conversion — the analogue of
Calcite's ``RexNode``.  Column references are positional indexes into the
operator's input row (for joins, into the concatenation of left and right
rows), which makes rewriting under operator reordering a pure index-remap.

The module also carries the analysis utilities the planner rules need:
conjunction splitting, referenced-column extraction, input-side
classification for join conditions, equi-key extraction, the
column-versus-literal recogniser, index shifting, and the common-conjunct
factoring of Section 5.2.
"""

from __future__ import annotations

import linecache
from contextvars import ContextVar
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.common.errors import ValidationError
from repro.common.ordering import NullsLast

# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------


class Expr:
    """Base class for all row expressions.  Immutable.

    Because an expression never changes after construction, its digest is
    built once (``_build_digest``) and kept in the ``_digest`` slot;
    equality and hashing, which go through the digest, cost one attribute
    read from then on.
    """

    __slots__ = ("_digest",)

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def with_children(self, children: Sequence["Expr"]) -> "Expr":
        if children:
            raise ValidationError(f"{type(self).__name__} takes no children")
        return self

    def digest(self) -> str:
        """Canonical text of this expression (computed once)."""
        try:
            return self._digest
        except AttributeError:
            digest = self._digest = self._build_digest()
            return digest

    def _build_digest(self) -> str:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.digest() == other.digest()

    def __hash__(self) -> int:
        return hash(self.digest())

    def __repr__(self) -> str:
        return self.digest()


class ColRef(Expr):
    """Reference to input column ``index``; ``name`` is for display only."""

    __slots__ = ("index", "name")

    def __init__(self, index: int, name: str = ""):
        self.index = index
        self.name = name or f"$%d" % index

    def digest(self) -> str:
        return f"${self.index}"  # cheaper to format than to cache


class Literal(Expr):
    """A constant value."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def digest(self) -> str:
        return repr(self.value)


COMPARISONS = frozenset({"=", "<>", "<", "<=", ">", ">="})

#: Every binary operator: comparisons and arithmetic propagate NULL
#: (``KernelBuilder._strict``), AND/OR are three-valued.
_BINARY_OPS = COMPARISONS | {"+", "-", "*", "/", "AND", "OR"}

#: Mirror image of each comparison, for normalising ``lit op col``.
MIRRORED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class BinaryOp(Expr):
    """A binary operation: comparison, arithmetic or AND/OR."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _BINARY_OPS:
            raise ValidationError(f"unknown binary operator {op}")
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[Expr]) -> "BinaryOp":
        left, right = children
        return BinaryOp(self.op, left, right)

    def _build_digest(self) -> str:
        return f"({self.left.digest()} {self.op} {self.right.digest()})"


class UnaryOp(Expr):
    """NOT or arithmetic negation."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        if op not in ("NOT", "-"):
            raise ValidationError(f"unknown unary operator {op}")
        self.op = op
        self.operand = operand

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def with_children(self, children: Sequence[Expr]) -> "UnaryOp":
        (operand,) = children
        return UnaryOp(self.op, operand)

    def _build_digest(self) -> str:
        return f"({self.op} {self.operand.digest()})"


class FuncCall(Expr):
    """A scalar function call (EXTRACT_YEAR, SUBSTRING, ...)."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expr]):
        self.name = name.upper()
        if self.name not in SCALAR_FUNCTIONS:
            raise ValidationError(f"unknown function {name}")
        self.args = tuple(args)

    def children(self) -> Tuple[Expr, ...]:
        return self.args

    def with_children(self, children: Sequence[Expr]) -> "FuncCall":
        return FuncCall(self.name, children)

    def _build_digest(self) -> str:
        inner = ", ".join(a.digest() for a in self.args)
        return f"{self.name}({inner})"


class CaseExpr(Expr):
    """CASE WHEN c1 THEN v1 ... ELSE e END."""

    __slots__ = ("whens", "default")

    def __init__(self, whens: Sequence[Tuple[Expr, Expr]], default: Expr):
        self.whens = tuple(whens)
        self.default = default

    def children(self) -> Tuple[Expr, ...]:
        flat: List[Expr] = []
        for cond, value in self.whens:
            flat.append(cond)
            flat.append(value)
        flat.append(self.default)
        return tuple(flat)

    def with_children(self, children: Sequence[Expr]) -> "CaseExpr":
        children = list(children)
        default = children.pop()
        pairs = list(zip(children[0::2], children[1::2]))
        return CaseExpr(pairs, default)

    def _build_digest(self) -> str:
        parts = " ".join(
            f"WHEN {c.digest()} THEN {v.digest()}" for c, v in self.whens
        )
        return f"CASE {parts} ELSE {self.default.digest()} END"


class InList(Expr):
    """``expr IN (v1, v2, ...)`` over literal values."""

    __slots__ = ("operand", "values", "negated")

    def __init__(self, operand: Expr, values: Sequence[object], negated: bool = False):
        self.operand = operand
        self.values = frozenset(values)
        self.negated = negated

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def with_children(self, children: Sequence[Expr]) -> "InList":
        (operand,) = children
        return InList(operand, self.values, self.negated)

    def _build_digest(self) -> str:
        op = "NOT IN" if self.negated else "IN"
        return f"({self.operand.digest()} {op} {sorted(map(repr, self.values))})"


class LikeExpr(Expr):
    """SQL LIKE with ``%`` and ``_`` wildcards."""

    __slots__ = ("operand", "pattern", "negated", "_matcher")

    def __init__(self, operand: Expr, pattern: str, negated: bool = False):
        self.operand = operand
        self.pattern = pattern
        self.negated = negated
        self._matcher = _compile_like(pattern)

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def with_children(self, children: Sequence[Expr]) -> "LikeExpr":
        (operand,) = children
        return LikeExpr(operand, self.pattern, self.negated)

    def _build_digest(self) -> str:
        op = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand.digest()} {op} {self.pattern!r})"


class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    __slots__ = ("operand", "negated")

    def __init__(self, operand: Expr, negated: bool = False):
        self.operand = operand
        self.negated = negated

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)

    def with_children(self, children: Sequence[Expr]) -> "IsNull":
        (operand,) = children
        return IsNull(operand, self.negated)

    def _build_digest(self) -> str:
        op = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.digest()} {op})"


TRUE = Literal(True)
FALSE = Literal(False)


# ---------------------------------------------------------------------------
# Scalar function implementations
# ---------------------------------------------------------------------------


def _extract_year(value: str) -> int:
    return int(value[:4])


def _extract_month(value: str) -> int:
    return int(value[5:7])


def _substring(value: str, start: int, length: Optional[int] = None) -> str:
    begin = int(start) - 1
    if length is None:
        return value[begin:]
    return value[begin : begin + int(length)]


SCALAR_FUNCTIONS: Dict[str, Callable] = {
    "EXTRACT_YEAR": _extract_year,
    "EXTRACT_MONTH": _extract_month,
    "SUBSTRING": _substring,
    "UPPER": lambda s: s.upper(),
    "LOWER": lambda s: s.lower(),
    "ABS": abs,
    "COALESCE": lambda *args: next((a for a in args if a is not None), None),
}


def _compile_like(pattern: str) -> Callable[[str], bool]:
    """Compile a LIKE pattern into a predicate.

    TPC-H only uses ``%``-style patterns; ``_`` is supported via regex
    fallback.
    """
    if "_" not in pattern:
        pieces = pattern.split("%")
        if len(pieces) == 1:
            literal = pieces[0]
            return lambda s: s == literal
        prefix, suffix = pieces[0], pieces[-1]
        middles = [p for p in pieces[1:-1] if p]

        def match(s: str, prefix=prefix, suffix=suffix, middles=middles) -> bool:
            if prefix and not s.startswith(prefix):
                return False
            if suffix and not s.endswith(suffix):
                return False
            pos = len(prefix)
            limit = len(s) - len(suffix)
            for mid in middles:
                found = s.find(mid, pos, limit)
                if found < 0:
                    return False
                pos = found + len(mid)
            return pos <= limit

        return match

    import re

    regex = re.compile(
        "^" + re.escape(pattern).replace("%", ".*").replace("_", ".") + "$",
        re.DOTALL,
    )
    return lambda s: bool(regex.match(s))


# ---------------------------------------------------------------------------
# Compilation to Python source
# ---------------------------------------------------------------------------

_PYTHON_OPS = {"=": "==", "<>": "!="}

#: True while ``run_operator`` runs a handler again because Python could
#: not order two of its values (``3 < 'a'``): kernels made meanwhile
#: compare as the engine's total order (``NullsLast``) does.
TOTAL_ORDER: ContextVar[bool] = ContextVar("total_order", default=False)
_TOTAL_ORDER = {
    "<": lambda a, b: NullsLast(a) < NullsLast(b),
    ">": lambda a, b: NullsLast(b) < NullsLast(a),
    "<=": lambda a, b: not NullsLast(b) < NullsLast(a),
    ">=": lambda a, b: not NullsLast(a) < NullsLast(b),
}


def _can_raise(expr: Expr) -> bool:
    """Whether evaluating ``expr`` can raise: it holds an arithmetic,
    comparison, function or LIKE node (type errors, division by zero)."""
    if isinstance(expr, (ColRef, Literal)):
        return False
    logical = getattr(expr, "op", None) in ("AND", "OR", "NOT")
    if logical or isinstance(expr, (IsNull, InList, CaseExpr)):
        return any(_can_raise(child) for child in expr.children())
    return True


class KernelBuilder:
    """Turns expression trees into Python source and source into functions.

    One builder makes one function.  ``render`` gives the source of one
    expression with SQL NULL propagation written out; a column reference
    is whatever ``ref(index)`` says (``row[i]`` by default, ``l[i]`` /
    ``r[i - width]`` for a join condition over two rows).  Only ``None``,
    ``True`` and ``False`` appear as literals in the source; every other
    constant, and every helper function, is bound by name in
    ``namespace``, which becomes the function's globals.
    """

    def __init__(self, ref: Callable[[int], str] = "row[{}]".format):
        self.ref = ref
        self.namespace: Dict[str, object] = {}
        self._temps = 0

    def bind(self, value: object) -> str:
        name = f"_k{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def _temp(self) -> str:
        self._temps += 1
        return f"_t{self._temps}"

    def compare(self, op: str, left: str, right: str) -> str:
        """Source for ``left op right``, a comparison or arithmetic."""
        if op in _TOTAL_ORDER and TOTAL_ORDER.get():
            return f"{self.bind(_TOTAL_ORDER[op])}({left}, {right})"
        return f"{left} {_PYTHON_OPS.get(op, op)} {right}"

    def _strict(self, operands: Sequence[Expr], apply: str) -> str:
        """``apply.format(*operands)``, or NULL when an operand is NULL.

        Each operand is evaluated once, left to right.  The NULL tests
        short-circuit unless a later operand can raise; then they are
        joined with ``|`` so it still runs (and raises) behind a NULL.
        """
        names: List[str] = []
        checks: List[str] = []
        for operand in operands:
            code = self.render(operand)
            if not isinstance(operand, (ColRef, Literal)):
                code, value = self._temp(), code
                checks.append(f"({code} := {value}) is None")
            elif not isinstance(operand, Literal) or operand.value is None:
                checks.append(f"{code} is None")
            names.append(code)
        value = apply.format(*names)
        if not checks:
            return f"({value})"
        if any(_can_raise(operand) for operand in operands[1:]):
            nulls = " | ".join(f"({check})" for check in checks)
        else:
            nulls = " or ".join(checks)
        return f"(None if {nulls} else {value})"

    def render(self, expr: Expr, test: bool = False) -> str:
        """Python source for ``expr``.

        ``test`` says only the truth of the value will be looked at (a
        filter or join condition), where NULL and FALSE are the same:
        AND/OR stay Python's short-circuit operators there, and are
        three-valued (Kleene) wherever the value itself can be seen.
        """
        if isinstance(expr, ColRef):
            return self.ref(expr.index)
        if isinstance(expr, Literal):
            value = expr.value
            inline = value is None or type(value) is bool
            return repr(value) if inline else self.bind(value)
        if isinstance(expr, BinaryOp):
            op = expr.op
            if op in ("AND", "OR"):
                return self._logical(expr, test)
            if op == "=" and test:
                # Equal to a non-NULL means non-NULL: x == y, and unless
                # one is a non-NULL literal, y is not None (one chain,
                # so each is evaluated once).
                known = any(
                    isinstance(side, Literal) and side.value is not None
                    for side in expr.children()
                )
                chain = f"{self.render(expr.left)} == {self.render(expr.right)}"
                return f"({chain})" if known else f"({chain} is not None)"
            return self._strict(expr.children(), self.compare(op, "{}", "{}"))
        if isinstance(expr, UnaryOp):
            return self._strict([expr.operand], "not {}" if expr.op == "NOT" else "-{}")
        if isinstance(expr, FuncCall):
            fn = self.bind(SCALAR_FUNCTIONS[expr.name])
            if expr.name == "COALESCE":
                return f"{fn}({', '.join(map(self.render, expr.args))})"
            slots = ", ".join(["{}"] * len(expr.args))
            return self._strict(expr.args, f"{fn}({slots})")
        if isinstance(expr, CaseExpr):
            code = self.render(expr.default, test)
            for cond, value in reversed(expr.whens):
                hit = self.render(value, test)
                code = f"({hit} if {self.render(cond, True)} else {code})"
            return code
        if isinstance(expr, InList):
            op = "not in" if expr.negated else "in"
            return f"({self.render(expr.operand)} {op} {self.bind(expr.values)})"
        if isinstance(expr, LikeExpr):
            matcher = self.bind(expr._matcher)
            call = f"not {matcher}({{}})" if expr.negated else f"{matcher}({{}})"
            return self._strict([expr.operand], call)
        if isinstance(expr, IsNull):
            op = "is not" if expr.negated else "is"
            operand = expr.operand
            if isinstance(operand, Literal):  # "5 is None" is a SyntaxWarning
                return repr((operand.value is None) is not expr.negated)
            code = self.render(operand)
            if not isinstance(operand, ColRef):
                # So is "(-False) is None": test a temporary, as _strict does.
                code = f"({self._temp()} := {code})"
            return f"({code} {op} None)"
        raise ValidationError(f"cannot compile expression {expr!r}")

    def _logical(self, expr: BinaryOp, test: bool) -> str:
        left, right = self.render(expr.left, test), self.render(expr.right, test)
        if test:
            return f"({left} {expr.op.lower()} {right})"
        a, b = self._temp(), self._temp()
        if expr.op == "AND":  # FALSE wins, then NULL
            return (
                f"({a} if ({a} := {left}) is not None and not {a} else "
                f"{b} if (({b} := {right}) is not None and not {b}) or {a} else None)"
            )
        return (  # TRUE wins, then NULL
            f"({a} if ({a} := {left}) else "
            f"{b} if ({b} := {right}) or {a} is not None else None)"
        )

    def function(self, name: str, params: str, body: Sequence[str]) -> Callable:
        """Compile ``def name(params): body``.  The source stays on the
        function (``__source__``) and in ``linecache`` under a filename
        derived from it, so a traceback through the kernel shows its line."""
        source = f"def {name}({params}):\n"
        source += "".join(f"    {line}\n" for line in body)
        filename = f"<kernel {name} {hash(source) & 0xFFFFFFFFFFFFFFFF:016x}>"
        lines = source.splitlines(True)
        linecache.cache[filename] = (len(source), None, lines, filename)
        exec(compile(source, filename, "exec"), self.namespace)
        function = self.namespace.pop(name)  # no globals -> function cycle
        function.__source__ = source
        return function


def compile_expr(expr: Expr, test: bool = False) -> Callable[[Tuple], object]:
    """Compile an expression tree into a ``row -> value`` callable."""
    builder = KernelBuilder()
    return builder.function("expr", "row", [f"return {builder.render(expr, test)}"])


# ---------------------------------------------------------------------------
# Analysis utilities
# ---------------------------------------------------------------------------


def references(expr: Expr) -> FrozenSet[int]:
    """All input column indexes referenced by ``expr``."""
    found: set = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ColRef):
            found.add(node.index)
        else:
            stack.extend(node.children())
    return frozenset(found)


def split_conjunction(expr: Optional[Expr]) -> List[Expr]:
    """Flatten nested ANDs into a list of conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return split_conjunction(expr.left) + split_conjunction(expr.right)
    if isinstance(expr, Literal) and expr.value is True:
        return []
    return [expr]


def split_disjunction(expr: Optional[Expr]) -> List[Expr]:
    """Flatten nested ORs into a list of disjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "OR":
        return split_disjunction(expr.left) + split_disjunction(expr.right)
    return [expr]


def make_conjunction(conjuncts: Sequence[Optional[Expr]]) -> Optional[Expr]:
    """Combine conjuncts back into a single AND tree (None if empty).

    ``None`` entries (absent conditions, e.g. a cross join's) are skipped.
    """
    conjuncts = [
        c
        for c in conjuncts
        if c is not None and not (isinstance(c, Literal) and c.value is True)
    ]
    if not conjuncts:
        return None
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = BinaryOp("AND", result, conjunct)
    return result


def make_disjunction(disjuncts: Sequence[Expr]) -> Optional[Expr]:
    if not disjuncts:
        return None
    result = disjuncts[0]
    for disjunct in disjuncts[1:]:
        result = BinaryOp("OR", result, disjunct)
    return result


def shift_refs(expr: Expr, offset: int) -> Expr:
    """Shift every column reference by ``offset``."""
    if offset == 0:
        return expr
    return remap_refs(expr, lambda i: i + offset)


def remap_refs(expr: Expr, mapping: Callable[[int], int]) -> Expr:
    """Rewrite column indexes through ``mapping``."""
    if isinstance(expr, ColRef):
        return ColRef(mapping(expr.index), expr.name)
    children = expr.children()
    if not children:
        return expr
    return expr.with_children([remap_refs(c, mapping) for c in children])


def is_literal_condition(expr: Expr, left_width: int) -> Optional[str]:
    """Classify a join conjunct by the input sides it touches.

    Returns ``"left"`` / ``"right"`` if the conjunct references only the
    corresponding join input, ``"both"`` if it spans the join, and
    ``"none"`` for constant conditions.
    """
    refs = references(expr)
    if not refs:
        return "none"
    left = any(i < left_width for i in refs)
    right = any(i >= left_width for i in refs)
    if left and right:
        return "both"
    return "left" if left else "right"


def extract_equi_keys(
    condition: Optional[Expr], left_width: int
) -> Tuple[List[Tuple[int, int]], List[Expr]]:
    """Split a join condition into equi-join key pairs and a remainder.

    Returns ``(pairs, remainder)`` where each pair is ``(left_index,
    right_index)`` with the right index relative to the right input, and
    remainder is the list of non-equi conjuncts.
    """
    pairs: List[Tuple[int, int]] = []
    remainder: List[Expr] = []
    for conjunct in split_conjunction(condition):
        matched = False
        if isinstance(conjunct, BinaryOp) and conjunct.op == "=":
            left, right = conjunct.left, conjunct.right
            if isinstance(left, ColRef) and isinstance(right, ColRef):
                lo, hi = left.index, right.index
                if lo > hi:
                    lo, hi = hi, lo
                if lo < left_width <= hi:
                    pairs.append((lo, hi - left_width))
                    matched = True
        if not matched:
            remainder.append(conjunct)
    return pairs, remainder


def column_vs_literal(conjunct: Expr) -> Optional[Tuple[ColRef, str, object]]:
    """``(column, op, value)`` when ``conjunct`` compares one column with
    one literal, else None.

    ``op`` reads with the column on the left whichever side it was written
    on: ``5 < $2`` is ``($2, ">", 5)``.  This is the only recogniser of the
    shape; what to do with it (interval pairing, index bounds, zone-map
    ranges, canonical digests) is each caller's policy, and so is refusing
    a NULL literal, which is handed through as ``None``.
    """
    if not isinstance(conjunct, BinaryOp) or conjunct.op not in COMPARISONS:
        return None
    left, right = conjunct.left, conjunct.right
    if isinstance(left, ColRef) and isinstance(right, Literal):
        return left, conjunct.op, right.value
    if isinstance(left, Literal) and isinstance(right, ColRef):
        return right, MIRRORED[conjunct.op], left.value
    return None


def factor_common_conjuncts(expr: Expr) -> Optional[Expr]:
    """Section 5.2: pull conjuncts common to every OR branch outside the OR.

    ``(c1 AND c2) OR (c1 AND c3)`` becomes ``c1 AND (c2 OR c3)``.  Returns
    the rewritten expression, or None if no common conjunct exists.
    """
    disjuncts = split_disjunction(expr)
    if len(disjuncts) < 2:
        return None
    branch_conjuncts = [split_conjunction(d) for d in disjuncts]
    first = branch_conjuncts[0]
    common: List[Expr] = []
    for candidate in first:
        if all(
            any(candidate == other for other in branch)
            for branch in branch_conjuncts[1:]
        ):
            common.append(candidate)
    if not common:
        return None
    residual_branches: List[Expr] = []
    for branch in branch_conjuncts:
        residual = [c for c in branch if not any(c == g for g in common)]
        residual_branches.append(make_conjunction(residual) or TRUE)
    pieces = list(common)
    # Any branch reduced to TRUE makes the whole OR vacuous.
    if not any(
        isinstance(b, Literal) and b.value is True for b in residual_branches
    ):
        residual_or = make_disjunction(residual_branches)
        if residual_or is not None:
            pieces.append(residual_or)
    return make_conjunction(pieces)
