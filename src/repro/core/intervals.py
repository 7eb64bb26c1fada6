"""Interval arithmetic for deriving min/max ranges of expressions (§3.1).

The paper's filter pruning evaluates predicates like
``IF(unit='feet', altit * 0.3048, altit) > 1500`` against per-partition
min/max metadata.  This requires every scalar function to "provide a
mechanism to derive transformed min/max ranges from its input" — that
mechanism is the closed interval arithmetic implemented here.

Intervals are closed ``[lo, hi]``; ``None`` bounds mean unbounded
(−∞ / +∞).  ``TOP`` is the fully unknown interval.  Values must be
mutually comparable (numbers with numbers, strings with strings, dates
with dates) — mixed-type comparison raises, which pruning callers catch
and treat as "cannot prune".
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .stats import Value


@dataclass(frozen=True)
class Interval:
    """A closed interval over an ordered domain; None bound = unbounded."""

    lo: Optional[Value]
    hi: Optional[Value]

    def __post_init__(self) -> None:
        if self.lo is not None and self.hi is not None and _lt(self.hi, self.lo):
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def is_point(self) -> bool:
        """True iff the interval holds exactly one value."""
        return self.lo is not None and self.lo == self.hi

    def contains(self, v: Value) -> bool:
        if self.lo is not None and _lt(v, self.lo):
            return False
        if self.hi is not None and _lt(self.hi, v):
            return False
        return True

    def overlaps(self, other: "Interval") -> bool:
        """True iff some value lies in both intervals."""
        if self.hi is not None and other.lo is not None and _lt(self.hi, other.lo):
            return False
        if other.hi is not None and self.lo is not None and _lt(other.hi, self.lo):
            return False
        return True

    def entirely_lt(self, other: "Interval") -> bool:
        """Every value of self < every value of other."""
        return self.hi is not None and other.lo is not None and _lt(self.hi, other.lo)

    def entirely_le(self, other: "Interval") -> bool:
        """Every value of self <= every value of other."""
        return (
            self.hi is not None
            and other.lo is not None
            and not _lt(other.lo, self.hi)
        )


#: The fully unknown interval (−∞, +∞).
TOP = Interval(None, None)


def _lt(a: Value, b: Value) -> bool:
    return a < b


def point(v: Value) -> Interval:
    """Degenerate interval [v, v]."""
    return Interval(v, v)


def hull(intervals: Iterable[Interval]) -> Interval:
    """Smallest interval containing all inputs (the union's convex hull).

    Used for ``IF``/``CASE`` where the taken branch is undetermined: the
    result range must encompass both branch ranges (§3.1).
    """
    intervals = list(intervals)
    if not intervals:
        raise ValueError("hull of no intervals")
    lo: Optional[Value] = intervals[0].lo
    hi: Optional[Value] = intervals[0].hi
    for iv in intervals[1:]:
        if lo is not None:
            lo = None if iv.lo is None else (iv.lo if _lt(iv.lo, lo) else lo)
        if hi is not None:
            hi = None if iv.hi is None else (iv.hi if _lt(hi, iv.hi) else hi)
    return Interval(lo, hi)


def add(a: Interval, b: Interval) -> Interval:
    lo = None if a.lo is None or b.lo is None else a.lo + b.lo
    hi = None if a.hi is None or b.hi is None else a.hi + b.hi
    return Interval(lo, hi)


def sub(a: Interval, b: Interval) -> Interval:
    lo = None if a.lo is None or b.hi is None else a.lo - b.hi
    hi = None if a.hi is None or b.lo is None else a.hi - b.lo
    return Interval(lo, hi)


def neg(a: Interval) -> Interval:
    return Interval(
        None if a.hi is None else -a.hi,
        None if a.lo is None else -a.lo,
    )


def mul(a: Interval, b: Interval) -> Interval:
    """Product interval via the four corner products.

    Any unbounded operand side makes the result unbounded on both sides
    (a sound, slightly loose approximation that avoids sign-case
    explosion for infinite bounds).
    """
    if a.lo is None or a.hi is None or b.lo is None or b.hi is None:
        return TOP
    corners = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
    return Interval(min(corners), max(corners))


def div(a: Interval, b: Interval) -> Interval:
    """Quotient interval; unbounded when the divisor range spans 0."""
    if a.lo is None or a.hi is None or b.lo is None or b.hi is None:
        return TOP
    if b.contains(0):
        return TOP
    corners = [a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi]
    return Interval(min(corners), max(corners))


_MAX_CODEPOINT = 0x10FFFF


def prefix_successor(prefix: str) -> Optional[str]:
    """Smallest string strictly greater than every string starting with
    ``prefix``, or ``None`` if no such string exists.

    ``s.startswith(p)`` ⟺ ``p <= s < prefix_successor(p)`` under
    codepoint ordering — the basis of STARTSWITH pruning (§3.1's
    imprecise filter rewrite of ``LIKE 'Marked-%'``).
    """
    chars = list(prefix)
    while chars:
        cp = ord(chars[-1])
        if cp < _MAX_CODEPOINT:
            chars[-1] = chr(cp + 1)
            return "".join(chars)
        chars.pop()
    return None


def prefix_overlap(col: Interval, prefix: str) -> bool:
    """May some value in ``col`` start with ``prefix``?"""
    if col.hi is not None and _lt(col.hi, prefix):
        return False
    succ = prefix_successor(prefix)
    if succ is not None and col.lo is not None and not _lt(col.lo, succ):
        return False
    return True


def prefix_covers(col: Interval, prefix: str) -> bool:
    """Do *all* values in ``col`` necessarily start with ``prefix``?

    True iff both bounds are known and themselves start with ``prefix``
    (lexicographic order then forces every value in between to share the
    prefix).
    """
    return (
        col.lo is not None
        and col.hi is not None
        and isinstance(col.lo, str)
        and isinstance(col.hi, str)
        and col.lo.startswith(prefix)
        and col.hi.startswith(prefix)
    )
