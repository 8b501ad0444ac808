"""Expression AST used by the query layer.

Expressions are built programmatically (``col("rating") == "high"``,
``(col("reactions") > 10) & col("is_covid")``) and are evaluated against
plain row dictionaries.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ...errors import ColumnNotFound


class Expression:
    """Base class of every expression node."""

    def evaluate(self, row: Mapping[str, Any]) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def columns(self) -> set[str]:
        """Names of the columns referenced by this expression."""
        return set()

    # -- comparison operators -------------------------------------------------

    def __eq__(self, other: object) -> "Comparison":  # type: ignore[override]
        return Comparison(self, _wrap(other), operator.eq, "=")

    def __ne__(self, other: object) -> "Comparison":  # type: ignore[override]
        return Comparison(self, _wrap(other), operator.ne, "!=")

    def __lt__(self, other: object) -> "Comparison":
        return Comparison(self, _wrap(other), operator.lt, "<")

    def __le__(self, other: object) -> "Comparison":
        return Comparison(self, _wrap(other), operator.le, "<=")

    def __gt__(self, other: object) -> "Comparison":
        return Comparison(self, _wrap(other), operator.gt, ">")

    def __ge__(self, other: object) -> "Comparison":
        return Comparison(self, _wrap(other), operator.ge, ">=")

    # -- boolean combinators ---------------------------------------------------

    def __and__(self, other: "Expression") -> "BooleanOp":
        return BooleanOp("and", [self, _wrap(other)])

    def __or__(self, other: "Expression") -> "BooleanOp":
        return BooleanOp("or", [self, _wrap(other)])

    def __invert__(self) -> "Not":
        return Not(self)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: object) -> "Arithmetic":
        return Arithmetic(self, _wrap(other), operator.add, "+")

    def __sub__(self, other: object) -> "Arithmetic":
        return Arithmetic(self, _wrap(other), operator.sub, "-")

    def __mul__(self, other: object) -> "Arithmetic":
        return Arithmetic(self, _wrap(other), operator.mul, "*")

    def __truediv__(self, other: object) -> "Arithmetic":
        return Arithmetic(self, _wrap(other), operator.truediv, "/")

    # -- predicates -------------------------------------------------------------

    def is_in(self, values) -> "InList":
        return InList(self, list(values))

    def is_null(self) -> "IsNull":
        return IsNull(self, negate=False)

    def is_not_null(self) -> "IsNull":
        return IsNull(self, negate=True)

    def like(self, pattern: str) -> "Like":
        return Like(self, pattern)

    # dataclass-like equality is intentionally repurposed for the DSL, so the
    # objects are identity-hashed.
    __hash__ = object.__hash__


def _wrap(value: object) -> Expression:
    return value if isinstance(value, Expression) else Literal(value)


class ColumnRef(Expression):
    """Reference to a column of the current row."""

    def __init__(self, name: str) -> None:
        self.name = name

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        if self.name not in row:
            raise ColumnNotFound(f"row has no column {self.name!r}")
        return row[self.name]

    def columns(self) -> set[str]:
        return {self.name}

    def __repr__(self) -> str:
        return f"col({self.name!r})"


class Literal(Expression):
    """A constant value."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        return self.value

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


class Comparison(Expression):
    """Binary comparison; NULL on either side yields False (SQL-ish semantics)."""

    def __init__(self, left: Expression, right: Expression,
                 op: Callable[[Any, Any], bool], symbol: str) -> None:
        self.left = left
        self.right = right
        self.op = op
        self.symbol = symbol

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        if left is None or right is None:
            # SQL three-valued logic collapsed to False for filtering purposes,
            # except IS-style equality with None handled by IsNull.
            if self.symbol == "=":
                return left is None and right is None
            if self.symbol == "!=":
                return (left is None) != (right is None)
            return False
        return bool(self.op(left, right))

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.symbol} {self.right!r})"


class Arithmetic(Expression):
    """Binary arithmetic over row values (NULL propagates)."""

    def __init__(self, left: Expression, right: Expression,
                 op: Callable[[Any, Any], Any], symbol: str) -> None:
        self.left = left
        self.right = right
        self.op = op
        self.symbol = symbol

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        left = self.left.evaluate(row)
        right = self.right.evaluate(row)
        if left is None or right is None:
            return None
        return self.op(left, right)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.symbol} {self.right!r})"


class BooleanOp(Expression):
    """AND / OR over any number of operands."""

    def __init__(self, kind: str, operands: list[Expression]) -> None:
        if kind not in ("and", "or"):
            raise ValueError(f"unknown boolean operator: {kind}")
        self.kind = kind
        self.operands = operands

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        values = (bool(op.evaluate(row)) for op in self.operands)
        return all(values) if self.kind == "and" else any(values)

    def columns(self) -> set[str]:
        out: set[str] = set()
        for op in self.operands:
            out |= op.columns()
        return out

    def __repr__(self) -> str:
        joiner = f" {self.kind.upper()} "
        return "(" + joiner.join(repr(op) for op in self.operands) + ")"


class Not(Expression):
    """Logical negation."""

    def __init__(self, operand: Expression) -> None:
        self.operand = operand

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        return not bool(self.operand.evaluate(row))

    def columns(self) -> set[str]:
        return self.operand.columns()

    def __repr__(self) -> str:
        return f"NOT {self.operand!r}"


class InList(Expression):
    """Membership test against a fixed list of values."""

    def __init__(self, operand: Expression, values: list[Any]) -> None:
        self.operand = operand
        self.values = values

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        value = self.operand.evaluate(row)
        if value is None:
            return False
        return value in self.values

    def columns(self) -> set[str]:
        return self.operand.columns()

    def __repr__(self) -> str:
        return f"{self.operand!r} IN {self.values!r}"


class IsNull(Expression):
    """IS NULL / IS NOT NULL test."""

    def __init__(self, operand: Expression, negate: bool) -> None:
        self.operand = operand
        self.negate = negate

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        is_null = self.operand.evaluate(row) is None
        return not is_null if self.negate else is_null

    def columns(self) -> set[str]:
        return self.operand.columns()

    def __repr__(self) -> str:
        return f"{self.operand!r} IS {'NOT ' if self.negate else ''}NULL"


class Like(Expression):
    """SQL LIKE with ``%`` (any run) and ``_`` (single char) wildcards.

    Matching is case-sensitive (standard SQL LIKE semantics), which is what
    lets the planner answer ``col LIKE 'abc%'`` from a sorted index as the
    range ``['abc', 'abd')`` — a case-folding match would not be a subset of
    that range.
    """

    def __init__(self, operand: Expression, pattern: str) -> None:
        import re

        self.operand = operand
        self.pattern = pattern
        # Protect the wildcards, escape everything else, then expand them.
        protected = pattern.replace("%", "\x00").replace("_", "\x01")
        escaped = re.escape(protected).replace("\x00", ".*").replace("\x01", ".")
        self._regex = re.compile(f"^{escaped}$")

    def evaluate(self, row: Mapping[str, Any]) -> bool:
        value = self.operand.evaluate(row)
        if value is None:
            return False
        return bool(self._regex.match(str(value)))

    def columns(self) -> set[str]:
        return self.operand.columns()

    def __repr__(self) -> str:
        return f"{self.operand!r} LIKE {self.pattern!r}"


def col(name: str) -> ColumnRef:
    """Build a column reference (entry point of the expression DSL)."""
    return ColumnRef(name)


def lit(value: Any) -> Literal:
    """Build a literal expression."""
    return Literal(value)


@dataclass
class RangeConstraint:
    """A (possibly half-open) interval constraint on one column.

    ``low``/``high`` of ``None`` mean unbounded on that side.  Bounds are
    *necessary* conditions implied by the predicate, so a planner may use them
    to narrow candidates while still re-evaluating the full predicate.
    """

    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = True

    def tighten_low(self, value: Any, inclusive: bool) -> None:
        if self.low is None:
            self.low, self.include_low = value, inclusive
            return
        try:
            if value > self.low:
                self.low, self.include_low = value, inclusive
            elif value == self.low:
                self.include_low = self.include_low and inclusive
        except TypeError:
            # Heterogeneous bounds: keeping the existing (looser-or-equal)
            # bound is always safe for a candidate superset.
            pass

    def tighten_high(self, value: Any, inclusive: bool) -> None:
        if self.high is None:
            self.high, self.include_high = value, inclusive
            return
        try:
            if value < self.high:
                self.high, self.include_high = value, inclusive
            elif value == self.high:
                self.include_high = self.include_high and inclusive
        except TypeError:
            pass

    def is_bounded(self) -> bool:
        return self.low is not None or self.high is not None


def like_prefix(pattern: str) -> str | None:
    """Leading literal run of a LIKE pattern, before the first wildcard.

    Every match of the pattern starts with this prefix (LIKE is
    case-sensitive), so it is a necessary condition the planner can answer
    from a sorted index.  ``None`` when the pattern opens with a wildcard.
    """
    for i, char in enumerate(pattern):
        if char in ("%", "_"):
            return pattern[:i] or None
    return pattern or None


@dataclass(frozen=True)
class BranchAtom:
    """One OR branch normalised to an index-answerable atom.

    ``kind`` is ``"eq"`` (``value`` holds the literal), ``"in"`` (``values``
    holds the non-NULL list members), ``"range"`` (``interval`` holds the
    bounds) or ``"prefix"`` (``value`` holds the LIKE prefix).
    """

    kind: str
    column: str
    value: Any = None
    values: tuple[Any, ...] = ()
    interval: RangeConstraint | None = None


@dataclass
class PredicateConstraints:
    """Index-usable constraints extracted from the top-level AND conjuncts.

    * ``equalities`` — ``column = literal`` conjuncts.
    * ``ranges`` — merged ``<``/``<=``/``>``/``>=`` bounds per column
      (a BETWEEN-style ``(col >= a) & (col <= b)`` collapses to one range).
    * ``prefixes`` — ``column LIKE 'abc%'``-style conjuncts, reduced to the
      longest literal prefix per column (answerable as a sorted-index range).
    * ``disjunctions`` — OR conjuncts whose every branch normalises to a
      :class:`BranchAtom` (equality, IN list, range or LIKE prefix).

    Every entry is a necessary condition of the predicate, so candidate rows
    derived from any subset remain a superset of the true matches.
    """

    equalities: dict[str, Any] = field(default_factory=dict)
    ranges: dict[str, RangeConstraint] = field(default_factory=dict)
    prefixes: dict[str, str] = field(default_factory=dict)
    disjunctions: list[list[BranchAtom]] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not (self.equalities or self.ranges or self.prefixes or self.disjunctions)


_RANGE_SYMBOLS = {"<", "<=", ">", ">="}
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _column_literal(node: Comparison) -> tuple[str, Any, str] | None:
    """Normalise a comparison to ``(column, literal, symbol)`` (column left)."""
    if isinstance(node.left, ColumnRef) and isinstance(node.right, Literal):
        return node.left.name, node.right.value, node.symbol
    if isinstance(node.right, ColumnRef) and isinstance(node.left, Literal):
        symbol = _FLIPPED.get(node.symbol, node.symbol)
        return node.right.name, node.left.value, symbol
    return None


def _branch_atoms(node: Expression) -> list[BranchAtom] | None:
    """Flatten an OR subtree into index-answerable :class:`BranchAtom`\\ s.

    Returns ``None`` when any branch cannot be normalised (the disjunction
    would miss rows if answered partially from indexes).  An empty-IN branch
    matches nothing and contributes no atom at all.
    """
    if isinstance(node, BooleanOp) and node.kind == "or":
        atoms: list[BranchAtom] = []
        for operand in node.operands:
            sub = _branch_atoms(operand)
            if sub is None:
                return None
            atoms.extend(sub)
        return atoms
    if isinstance(node, Comparison):
        normalized = _column_literal(node)
        if normalized is None:
            return None
        column, value, symbol = normalized
        if value is None:
            # ``col = NULL`` matches rows whose value IS NULL, and NULLs are
            # never indexed — an index union would silently drop those rows.
            return None
        if symbol == "=":
            return [BranchAtom(kind="eq", column=column, value=value)]
        if symbol in _RANGE_SYMBOLS:
            interval = RangeConstraint()
            if symbol in (">", ">="):
                interval.tighten_low(value, symbol == ">=")
            else:
                interval.tighten_high(value, symbol == "<=")
            return [BranchAtom(kind="range", column=column, interval=interval)]
        return None
    if isinstance(node, InList) and isinstance(node.operand, ColumnRef):
        # NULL list members are inert (IN never matches through NULL), so
        # they are simply skipped rather than poisoning the whole branch.
        values = tuple(value for value in node.values if value is not None)
        if not values:
            return []  # IN () matches nothing — the branch adds no rows
        return [BranchAtom(kind="in", column=node.operand.name, values=values)]
    if isinstance(node, Like) and isinstance(node.operand, ColumnRef):
        prefix = like_prefix(node.pattern)
        if prefix is None:
            return None  # leading wildcard: no index-answerable prefix
        return [BranchAtom(kind="prefix", column=node.operand.name, value=prefix)]
    return None


def extract_constraints(expression: Expression | None) -> PredicateConstraints:
    """Extract every index-usable constraint from a predicate.

    Walks the top-level AND tree and collects equalities, range bounds,
    LIKE-prefix bounds and OR disjunctions (equality / IN / range / prefix
    branches); anything else (NOT, arithmetic, column-to-column
    comparisons …) is ignored, which is safe because the executor
    re-evaluates the full predicate on every candidate row.
    """
    constraints = PredicateConstraints()
    if expression is None:
        return constraints

    def visit(node: Expression) -> None:
        if isinstance(node, BooleanOp) and node.kind == "and":
            for operand in node.operands:
                visit(operand)
            return
        if isinstance(node, Comparison):
            normalized = _column_literal(node)
            if normalized is None:
                return
            column, value, symbol = normalized
            if value is None:
                return  # NULL comparisons never match through an index
            if symbol == "=":
                constraints.equalities[column] = value
            elif symbol in _RANGE_SYMBOLS:
                rng = constraints.ranges.setdefault(column, RangeConstraint())
                if symbol in (">", ">="):
                    rng.tighten_low(value, symbol == ">=")
                else:
                    rng.tighten_high(value, symbol == "<=")
            return
        if isinstance(node, Like) and isinstance(node.operand, ColumnRef):
            prefix = like_prefix(node.pattern)
            if prefix is not None:
                column = node.operand.name
                # Several LIKEs on one column: the longest prefix is tightest.
                if len(prefix) > len(constraints.prefixes.get(column, "")):
                    constraints.prefixes[column] = prefix
            return
        branches = _branch_atoms(node)
        if branches:
            constraints.disjunctions.append(branches)

    visit(expression)
    return constraints
