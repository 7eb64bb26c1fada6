"""Predicate/expression AST with consistent multi-backend evaluation.

One AST drives everything the paper's pruning stack needs:

* :func:`bounds`      — derived min/max interval of a value expression from
  partition metadata (§3.1 "Deriving Min/Max Ranges");
* :func:`eval3`       — tri-state partition evaluation returning the set of
  *possible per-row outcomes* ``⊆ {'T','F','N'}``; a partition is prunable
  iff ``'T'`` is impossible (no false negatives), and **fully-matching**
  (§4.2) iff the set is exactly ``{'T'}``;
* :func:`invert`      — the paper's inverted predicate for the second
  LIMIT-pruning pass;
* :func:`to_spark`    — compile to Spark SQL text for execution;
* :func:`to_sql`      — compile to SQL text (DuckDB oracle, workload
  classifier), sharing the node walk with :func:`to_spark`;
* :func:`to_arrow`    — compile to an Arrow compute expression with SQL
  three-valued-logic semantics and Spark's NaN order, which the
  simulated warehouse worker runs on the rows it reads.

Keeping all backends on one AST lets tests assert they agree row-for-row,
so a pruning decision proven sound against ``eval3`` is sound for the
plan Spark actually executes.
"""
from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass
from decimal import Decimal
from typing import Any, FrozenSet, List, Optional, Sequence, Set, Tuple

import pyarrow as pa
import pyarrow.compute as pc

from . import intervals as iv
from .intervals import TOP, Interval
from .stats import PartitionStats, Value

# --------------------------------------------------------------------------
# Tri-state outcome sets
# --------------------------------------------------------------------------

#: Possible per-row outcomes of a predicate on a partition.
Outcomes = FrozenSet[str]

T_ONLY: Outcomes = frozenset("T")
F_ONLY: Outcomes = frozenset("F")
N_ONLY: Outcomes = frozenset("N")
TF: Outcomes = frozenset("TF")
TFN: Outcomes = frozenset("TFN")


def can_match(s: Outcomes) -> bool:
    """May some row satisfy the predicate? (False ⇒ prune, §3)"""
    return "T" in s


def always_match(s: Outcomes) -> bool:
    """Does *every* row satisfy the predicate? (fully-matching, §4.2)"""
    return s == T_ONLY


def _not3(x: str) -> str:
    return {"T": "F", "F": "T", "N": "N"}[x]


def _and3(x: str, y: str) -> str:
    if x == "F" or y == "F":
        return "F"
    if x == "N" or y == "N":
        return "N"
    return "T"


def _or3(x: str, y: str) -> str:
    if x == "T" or y == "T":
        return "T"
    if x == "N" or y == "N":
        return "N"
    return "F"


# --------------------------------------------------------------------------
# AST nodes
# --------------------------------------------------------------------------


class Expr:
    """Base class; operator overloads build predicate trees ergonomically."""

    # -- value operators ---------------------------------------------------
    def __add__(self, other: Any) -> "Arith":
        return Arith("+", self, _wrap(other))

    def __sub__(self, other: Any) -> "Arith":
        return Arith("-", self, _wrap(other))

    def __mul__(self, other: Any) -> "Arith":
        return Arith("*", self, _wrap(other))

    def __truediv__(self, other: Any) -> "Arith":
        return Arith("/", self, _wrap(other))

    def __rmul__(self, other: Any) -> "Arith":
        return Arith("*", _wrap(other), self)

    def __radd__(self, other: Any) -> "Arith":
        return Arith("+", _wrap(other), self)

    # -- comparison operators ---------------------------------------------
    def __lt__(self, other: Any) -> "Cmp":
        return Cmp("<", self, _wrap(other))

    def __le__(self, other: Any) -> "Cmp":
        return Cmp("<=", self, _wrap(other))

    def __gt__(self, other: Any) -> "Cmp":
        return Cmp(">", self, _wrap(other))

    def __ge__(self, other: Any) -> "Cmp":
        return Cmp(">=", self, _wrap(other))

    def eq(self, other: Any) -> "Cmp":
        return Cmp("=", self, _wrap(other))

    def ne(self, other: Any) -> "Cmp":
        return Cmp("!=", self, _wrap(other))


@dataclass(frozen=True)
class Col(Expr):
    """Reference to a base-table column."""

    name: str


@dataclass(frozen=True)
class Lit(Expr):
    """Literal scalar; ``None`` is SQL NULL."""

    value: Optional[Value]


@dataclass(frozen=True)
class Arith(Expr):
    """Binary arithmetic over value expressions (+ − × ÷)."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Cmp(Expr):
    """Comparison predicate: ``< <= > >= = !=``."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class And(Expr):
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class Or(Expr):
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class Not(Expr):
    arg: Expr


@dataclass(frozen=True)
class If(Expr):
    """``IF(cond, then, otherwise)`` — a value expression (§3.1 example).

    SQL semantics: a NULL condition takes the ELSE branch.
    """

    cond: Expr
    then: Expr
    otherwise: Expr


@dataclass(frozen=True)
class Like(Expr):
    """SQL ``LIKE`` with ``%``/``_`` wildcards over a string expression."""

    arg: Expr
    pattern: str


@dataclass(frozen=True)
class StartsWith(Expr):
    """``STARTSWITH(arg, prefix)`` — target of the imprecise LIKE rewrite."""

    arg: Expr
    prefix: str


@dataclass(frozen=True)
class InList(Expr):
    arg: Expr
    values: Tuple[Value, ...]


@dataclass(frozen=True)
class IsNull(Expr):
    arg: Expr


# -- constructor helpers ----------------------------------------------------


def _wrap(v: Any) -> Expr:
    return v if isinstance(v, Expr) else Lit(v)


def col(name: str) -> Col:
    return Col(name)


def lit(v: Optional[Value]) -> Lit:
    return Lit(v)


def and_(*args: Expr) -> Expr:
    flat: List[Expr] = []
    for a in args:
        flat.extend(a.args) if isinstance(a, And) else flat.append(a)
    return flat[0] if len(flat) == 1 else And(tuple(flat))


def or_(*args: Expr) -> Expr:
    flat: List[Expr] = []
    for a in args:
        flat.extend(a.args) if isinstance(a, Or) else flat.append(a)
    return flat[0] if len(flat) == 1 else Or(tuple(flat))


def not_(arg: Expr) -> Not:
    return Not(arg)


def if_(cond: Expr, then: Any, otherwise: Any) -> If:
    return If(cond, _wrap(then), _wrap(otherwise))


def like(arg: Expr, pattern: str) -> Like:
    return Like(arg, pattern)


def startswith(arg: Expr, prefix: str) -> StartsWith:
    return StartsWith(arg, prefix)


def isin(arg: Expr, values: Sequence[Value]) -> InList:
    return InList(arg, tuple(values))


def isnull(arg: Expr) -> IsNull:
    return IsNull(arg)


def between(arg: Expr, lo: Any, hi: Any) -> Expr:
    return and_(Cmp(">=", arg, _wrap(lo)), Cmp("<=", arg, _wrap(hi)))


# --------------------------------------------------------------------------
# Column extraction
# --------------------------------------------------------------------------


def columns(e: Expr) -> Set[str]:
    """All base-table columns referenced by ``e``."""
    out: Set[str] = set()

    def walk(x: Expr) -> None:
        if isinstance(x, Col):
            out.add(x.name)
        elif isinstance(x, (Arith, Cmp)):
            walk(x.left), walk(x.right)
        elif isinstance(x, (And, Or)):
            for a in x.args:
                walk(a)
        elif isinstance(x, Not):
            walk(x.arg)
        elif isinstance(x, If):
            walk(x.cond), walk(x.then), walk(x.otherwise)
        elif isinstance(x, (Like, StartsWith, InList, IsNull)):
            walk(x.arg)

    walk(e)
    return out


# --------------------------------------------------------------------------
# Backend 1 — interval bounds of value expressions (§3.1)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class VBounds:
    """Value-expression bounds: interval over non-null outcomes + null info."""

    interval: Interval
    may_null: bool
    all_null: bool = False


def _unbounded_if_nan(v: Optional[Value]) -> Optional[Value]:
    """Spark orders NaN above every double, so a NaN bound (Spark's
    ``max`` when any NaN is present) is no finite bound at all."""
    return None if isinstance(v, float) and math.isnan(v) else v


def bounds(e: Expr, stats: PartitionStats) -> VBounds:
    """Derive the min/max range of value expression ``e`` on a partition.

    Sound over-approximation: every non-null value the expression can take
    on any row of the partition lies within the returned interval.
    Unknown columns or non-comparable mixtures degrade to :data:`TOP`.
    """
    if isinstance(e, Col):
        cs = stats.col(e.name)
        if cs is None:
            return VBounds(TOP, may_null=True)
        if cs.all_null:
            return VBounds(TOP, may_null=True, all_null=stats.row_count > 0)
        return VBounds(
            Interval(_unbounded_if_nan(cs.min), _unbounded_if_nan(cs.max)),
            may_null=cs.has_nulls(),
        )
    if isinstance(e, Lit):
        if e.value is None:
            return VBounds(TOP, may_null=True, all_null=True)
        return VBounds(iv.point(e.value), may_null=False)
    if isinstance(e, Arith):
        lb, rb = bounds(e.left, stats), bounds(e.right, stats)
        op = {"+": iv.add, "-": iv.sub, "*": iv.mul, "/": iv.div}[e.op]
        try:
            out = op(lb.interval, rb.interval)
        except (TypeError, ValueError):
            out = TOP
        return VBounds(
            out,
            may_null=lb.may_null or rb.may_null,
            all_null=lb.all_null or rb.all_null,
        )
    if isinstance(e, If):
        c = eval3(e.cond, stats)
        branches: List[VBounds] = []
        if "T" in c:
            branches.append(bounds(e.then, stats))
        if "F" in c or "N" in c:  # SQL: NULL condition takes ELSE
            branches.append(bounds(e.otherwise, stats))
        if not branches:  # empty partition
            return VBounds(TOP, may_null=True)
        try:
            hull = iv.hull(b.interval for b in branches)
        except (TypeError, ValueError):
            hull = TOP
        return VBounds(
            hull,
            may_null=any(b.may_null for b in branches),
            all_null=all(b.all_null for b in branches),
        )
    raise TypeError(f"not a value expression: {e!r}")


# --------------------------------------------------------------------------
# Backend 2 — tri-state partition evaluation
# --------------------------------------------------------------------------


def _cmp_outcomes(op: str, l: Interval, r: Interval) -> Set[str]:
    """Possible {T,F} outcomes of ``l op r`` over rows with non-null sides.

    T-impossibility and F-impossibility claims rely only on the interval
    containment guarantee, hence are sound; T/F-possibility may be a
    false positive (over-approximation), which is safe for pruning.
    """
    out: Set[str] = set()
    if op == "<":
        if not r.entirely_le(l):  # some x < some y possible
            out.add("T")
        if not l.entirely_lt(r):  # some x >= some y possible
            out.add("F")
    elif op == "<=":
        if not r.entirely_lt(l):
            out.add("T")
        if not l.entirely_le(r):
            out.add("F")
    elif op == ">":
        return {_not3(x) for x in _cmp_outcomes("<=", l, r)}
    elif op == ">=":
        return {_not3(x) for x in _cmp_outcomes("<", l, r)}
    elif op == "=":
        if l.overlaps(r):
            out.add("T")
        if not (l.is_point and r.is_point and l.lo == r.lo):
            out.add("F")
    elif op == "!=":
        return {_not3(x) for x in _cmp_outcomes("=", l, r)}
    else:
        raise ValueError(f"unknown comparison {op}")
    return out


_WILDCARDS = ("%", "_")


def like_prefix(pattern: str) -> Tuple[str, bool]:
    """Literal prefix of a LIKE pattern and whether it is a *pure* prefix
    pattern (``'abc%'`` — exactly one trailing ``%``, no other wildcards).

    The widening step of the paper's imprecise filter rewrite: any pattern
    with a literal prefix is relaxed to ``STARTSWITH(prefix)`` for pruning.
    Backslash escapes are honoured.
    """
    prefix_chars: List[str] = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch == "\\" and i + 1 < len(pattern):
            prefix_chars.append(pattern[i + 1])
            i += 2
            continue
        if ch in _WILDCARDS:
            break
        prefix_chars.append(ch)
        i += 1
    prefix = "".join(prefix_chars)
    pure = i == len(pattern) - 1 and pattern[i:] == "%"
    return prefix, pure


def eval3(e: Expr, stats: PartitionStats) -> Outcomes:
    """Set of possible per-row outcomes of predicate ``e`` on a partition.

    Guarantee (the soundness invariant all pruning rests on): the returned
    set is a superset of ``{outcome(e, row) for row in partition}``.
    """
    if isinstance(e, Cmp):
        try:
            lb, rb = bounds(e.left, stats), bounds(e.right, stats)
        except TypeError:
            return TFN
        if lb.all_null or rb.all_null:
            return N_ONLY if stats.row_count > 0 else frozenset()
        try:
            out = _cmp_outcomes(e.op, lb.interval, rb.interval)
        except TypeError:  # non-comparable types in metadata: cannot prune
            return TFN
        if lb.may_null or rb.may_null:
            out = out | {"N"}
        return frozenset(out)

    if isinstance(e, And):
        sets = [eval3(a, stats) for a in e.args]
        out = sets[0]
        for s in sets[1:]:
            out = frozenset(_and3(x, y) for x in out for y in s)
        return out

    if isinstance(e, Or):
        sets = [eval3(a, stats) for a in e.args]
        out = sets[0]
        for s in sets[1:]:
            out = frozenset(_or3(x, y) for x in out for y in s)
        return out

    if isinstance(e, Not):
        return frozenset(_not3(x) for x in eval3(e.arg, stats))

    if isinstance(e, (Like, StartsWith)):
        b = bounds(e.arg, stats)
        if b.all_null:
            return N_ONLY
        if isinstance(e, Like):
            prefix, pure = like_prefix(e.pattern)
            if not any(
                c in e.pattern.replace("\\%", "").replace("\\_", "")
                for c in _WILDCARDS
            ):
                # No wildcards at all: LIKE degenerates to equality.
                return eval3(Cmp("=", e.arg, Lit(e.pattern.replace("\\", ""))), stats)
        else:
            prefix, pure = e.prefix, True
        out: Set[str] = set()
        try:
            if prefix == "" or iv.prefix_overlap(b.interval, prefix):
                out.add("T")
            if pure:
                if not iv.prefix_covers(b.interval, prefix):
                    out.add("F")
            else:
                # Widened (imprecise) rewrite: match never guaranteed.
                out.add("F")
        except TypeError:
            out = {"T", "F"}
        if b.may_null:
            out.add("N")
        return frozenset(out)

    if isinstance(e, InList):
        b = bounds(e.arg, stats)
        if b.all_null:
            return N_ONLY
        out = set()
        try:
            if any(b.interval.contains(v) for v in e.values):
                out.add("T")
            if not (
                b.interval.is_point and any(b.interval.lo == v for v in e.values)
            ):
                out.add("F")
        except TypeError:
            out = {"T", "F"}
        if b.may_null:
            out.add("N")
        return frozenset(out)

    if isinstance(e, IsNull):
        b = bounds(e.arg, stats)
        out = set()
        if b.may_null:
            out.add("T")
        if not b.all_null:
            out.add("F")
        return frozenset(out)

    if isinstance(e, Lit):  # boolean literal predicates (WHERE true)
        if e.value is None:
            return N_ONLY
        return T_ONLY if e.value else F_ONLY

    raise TypeError(f"not a predicate: {e!r}")


# --------------------------------------------------------------------------
# Inverted predicate (§4.2 second pruning pass)
# --------------------------------------------------------------------------

_CMP_INVERSE = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "=": "!=", "!=": "="}


def invert(e: Expr) -> Expr:
    """Structural negation with De Morgan pushdown.

    NOTE: over rows this is SQL NOT — a row where ``e`` is NULL is NULL
    under ``invert(e)`` too.  The fully-matching test must therefore use
    :func:`always_match` (or additionally require null-freeness) rather
    than "inverted pass yields NEVER" alone; see the test-side reference
    ``tests/helpers.fully_matching_by_inverted_pass``.
    """
    if isinstance(e, Cmp):
        return Cmp(_CMP_INVERSE[e.op], e.left, e.right)
    if isinstance(e, And):
        return Or(tuple(invert(a) for a in e.args))
    if isinstance(e, Or):
        return And(tuple(invert(a) for a in e.args))
    if isinstance(e, Not):
        return e.arg
    if isinstance(e, Lit):
        return Lit(None if e.value is None else (not e.value))
    return Not(e)


# --------------------------------------------------------------------------
# Backend 3 — SQL text: Spark SQL (execution), DuckDB (oracle, classifier)
# --------------------------------------------------------------------------


def to_spark(e: Expr) -> str:
    """Compile to Spark SQL text, for ``spark.sql`` statements and
    ``DataFrame.filter``.  Spark's dialect differs from :func:`to_sql` in
    four places: identifiers are backticked, a finite float is a DOUBLE
    literal (``900.0D``; a plain ``900.0`` is a DECIMAL in Spark),
    string literals escape ``\\`` and ``'`` with a backslash, and
    STARTSWITH is Spark's ``startswith`` function."""
    return _render(e, spark=True)


def to_sql(e: Expr) -> str:
    """Compile to SQL text in a dialect DuckDB and Spark SQL both accept."""
    return _render(e, spark=False)


def _sql_lit(v: Optional[Value], spark: bool = False) -> str:
    if v is None:
        return "NULL"
    if isinstance(v, str):
        if spark:
            return "'" + v.replace("\\", "\\\\").replace("'", "\\'") + "'"
        return "'" + v.replace("'", "''") + "'"
    if isinstance(v, _dt.datetime):
        return f"TIMESTAMP '{v.isoformat(sep=' ')}'"
    if isinstance(v, _dt.date):
        return f"DATE '{v.isoformat()}'"
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    if isinstance(v, float):
        if not math.isfinite(v):
            word = "NaN" if math.isnan(v) else ("Infinity" if v > 0 else "-Infinity")
            return f"CAST('{word}' AS DOUBLE)"
        return repr(v) + ("D" if spark else "")
    if isinstance(v, Decimal):
        # Exact, and DECIMAL in both dialects: a bare ``2`` would be an
        # INT, and ``2BD`` is Spark's alone.
        _, digits, exp = v.as_tuple()
        if not isinstance(exp, int):
            raise ValueError(f"no SQL literal for {v!r}")
        scale = max(-exp, 0)
        precision = max(len(digits) + max(exp, 0), scale, 1)
        return f"CAST('{v:f}' AS DECIMAL({precision}, {scale}))"
    return repr(v)


def _render(e: Expr, spark: bool) -> str:
    def r(x: Expr) -> str:
        return _render(x, spark)

    if isinstance(e, Col):
        return "`" + e.name.replace("`", "``") + "`" if spark else e.name
    if isinstance(e, Lit):
        return _sql_lit(e.value, spark)
    if isinstance(e, (Arith, Cmp)):
        op = "<>" if e.op == "!=" else e.op
        return f"({r(e.left)} {op} {r(e.right)})"
    if isinstance(e, And):
        return "(" + " AND ".join(map(r, e.args)) + ")"
    if isinstance(e, Or):
        return "(" + " OR ".join(map(r, e.args)) + ")"
    if isinstance(e, Not):
        return f"(NOT {r(e.arg)})"
    if isinstance(e, If):
        return f"(CASE WHEN {r(e.cond)} THEN {r(e.then)} ELSE {r(e.otherwise)} END)"
    if isinstance(e, Like):
        return f"({r(e.arg)} LIKE {_sql_lit(e.pattern, spark)})"
    if isinstance(e, StartsWith):
        if spark:
            return f"startswith({r(e.arg)}, {_sql_lit(e.prefix, spark)})"
        if any(c in e.prefix for c in "%_\\"):
            raise ValueError("prefix with wildcard chars not supported in SQL")
        return f"({r(e.arg)} LIKE {_sql_lit(e.prefix + '%')})"
    if isinstance(e, InList):
        listed = ", ".join(_sql_lit(v, spark) for v in e.values)
        return f"({r(e.arg)} IN ({listed}))"
    if isinstance(e, IsNull):
        return f"({r(e.arg)} IS NULL)"
    raise TypeError(f"cannot compile {e!r}")


# --------------------------------------------------------------------------
# Backend 4 — Arrow compute expression (the simulated warehouse worker)
# --------------------------------------------------------------------------


def to_arrow(e: Expr) -> pc.Expression:
    """Compile to a ``pyarrow.compute.Expression`` with SQL semantics.

    The worker read filters a partition's rows with it.
    Arrow's ``&``/``|``/``~`` are already Kleene, and its comparisons,
    LIKE and STARTSWITH give NULL on a NULL argument; four cases need
    help to match SQL as Spark runs it: comparisons order NaN above
    every double with NaN = NaN (Arrow compares as IEEE does, see
    :func:`_arrow_cmp`), IN on a NULL argument is NULL (Arrow's
    ``is_in`` says False), an IF whose condition is NULL takes the ELSE
    branch, and ``/`` divides as float64.
    """
    if isinstance(e, Col):
        return pc.field(e.name)
    if isinstance(e, Lit):
        return pc.scalar(e.value)
    if isinstance(e, Arith):
        l, r = to_arrow(e.left), to_arrow(e.right)
        if e.op == "/":
            return pc.divide(l.cast(pa.float64()), r.cast(pa.float64()))
        return {"+": l + r, "-": l - r, "*": l * r}[e.op]
    if isinstance(e, Cmp):
        return _arrow_cmp(e)
    if isinstance(e, And):
        out = to_arrow(e.args[0])
        for a in e.args[1:]:
            out = out & to_arrow(a)
        return out
    if isinstance(e, Or):
        out = to_arrow(e.args[0])
        for a in e.args[1:]:
            out = out | to_arrow(a)
        return out
    if isinstance(e, Not):
        return ~to_arrow(e.arg)
    if isinstance(e, If):
        return pc.if_else(
            pc.coalesce(to_arrow(e.cond), False),
            to_arrow(e.then),
            to_arrow(e.otherwise),
        )
    if isinstance(e, Like):
        return pc.match_like(to_arrow(e.arg), e.pattern)
    if isinstance(e, StartsWith):
        return pc.starts_with(to_arrow(e.arg), e.prefix)
    if isinstance(e, InList):
        a = to_arrow(e.arg)
        return pc.if_else(
            a.is_null(), pa.scalar(None, pa.bool_()), a.isin(list(e.values))
        )
    if isinstance(e, IsNull):
        return to_arrow(e.arg).is_null()
    raise TypeError(f"cannot compile {e!r}")


def _arrow_nan(x: Expr, ax: pc.Expression) -> Any:
    """"``x`` is NaN" as an Arrow expression — NaN is the one value not
    equal to itself, whatever the column type — or as a constant when
    ``x`` is a literal."""
    if isinstance(x, Lit):
        return isinstance(x.value, float) and math.isnan(x.value)
    return ax != ax


def _and_const(a: Any, b: Any) -> Any:
    """Kleene AND of two Arrow expressions or Python bools, folding the
    bools away."""
    if a is False or b is False:
        return False
    if a is True:
        return b
    return a if b is True else a & b


def _arrow_cmp(e: Cmp) -> pc.Expression:
    """Comparison in Spark's total order on doubles: NaN is greater than
    every other value and equal to itself.  Arrow's IEEE result is
    right unless a NaN meets a non-NULL value, so each operator ORs in
    the pairs that order makes TRUE:

    * ``l < r``  — ``r`` is NaN and ``l`` is not;
    * ``l <= r`` — ``r`` is NaN and ``l`` is not NULL;
    * ``l = r``  — both are NaN (``!=`` is its negation).

    ``>``/``>=`` swap their sides.  Each added term is NULL or FALSE
    whenever a side is NULL, so NULL still propagates; against a
    non-NaN literal most terms fold away and the plain comparison is
    left.  A NULL literal makes the comparison NULL."""
    op, left, right = e.op, e.left, e.right
    if any(isinstance(x, Lit) and x.value is None for x in (left, right)):
        return pc.scalar(pa.scalar(None, pa.bool_()))
    if op in (">", ">="):
        op, left, right = op.replace(">", "<"), right, left
    l, r = to_arrow(left), to_arrow(right)
    nan_l, nan_r = _arrow_nan(left, l), _arrow_nan(right, r)
    if op == "<":
        base = l < r
        not_nan_l = (not nan_l) if isinstance(nan_l, bool) else ~nan_l
        extra = _and_const(nan_r, not_nan_l)
    elif op == "<=":
        base = l <= r
        extra = _and_const(nan_r, True if isinstance(left, Lit) else l.is_valid())
    else:
        base = l == r
        extra = _and_const(nan_l, nan_r)
    out = base if extra is False else base | extra
    return ~out if op == "!=" else out
