"""Join pruning (§6): build-side value summaries prune probe partitions.

The hash join's build side is summarized into a compact, bounded-size
structure (§6.1 step 1), conceptually shipped to the probe side (step 2),
and overlapped with probe-side partition min/max metadata (step 3) to
prune whole micro-partitions before they are loaded (step 4).

Snowflake's summary format is proprietary; we substitute a **range
summary** — the sorted distinct build keys merged into at most ``B``
intervals by keeping the ``B−1`` widest gaps as splits.  It matches the
published behaviour: a small fraction of build-side size, probabilistic
in the false-positive direction only (a partition overlapping a summary
range may still hold no joinable key), and never a false negative (every
build key is covered by some range).  An empty build side yields an
empty summary that prunes the entire probe scan — the 100 %-pruning mode
visible in Fig. 10.
"""
from __future__ import annotations

import bisect
import datetime as _dt
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from .filter_pruning import PruneResult


def _gap_key(a, b) -> float:
    """Numeric gap between consecutive sorted values, for merge ranking.

    Dates/datetimes map to ordinals/timestamps; for domains without a
    meaningful metric (strings), the caller falls back to equal-count
    chunking.
    """
    if isinstance(a, _dt.datetime):
        return (b - a).total_seconds()
    if isinstance(a, _dt.date):
        return float(b.toordinal() - a.toordinal())
    return float(b - a)


@dataclass(frozen=True)
class RangeSummary:
    """≤B sorted, disjoint closed ranges covering every build-side key."""

    ranges: Tuple[Tuple[object, object], ...]
    n_values: int

    @classmethod
    def build(cls, values: Iterable, max_ranges: int = 64) -> "RangeSummary":
        vals = sorted(set(v for v in values if v is not None))
        if not vals:
            return cls(ranges=(), n_values=0)
        if max_ranges < 1:
            raise ValueError("max_ranges must be >= 1")
        if len(vals) <= max_ranges:
            return cls(
                ranges=tuple((v, v) for v in vals), n_values=len(vals)
            )
        try:
            gaps = [
                (_gap_key(vals[i], vals[i + 1]), i)
                for i in range(len(vals) - 1)
            ]
            # Keep the B-1 widest gaps as split points.
            splits = sorted(i for _, i in sorted(gaps, reverse=True)[: max_ranges - 1])
        except TypeError:
            # No numeric metric (e.g. strings): equal-count chunks.
            step = -(-len(vals) // max_ranges)
            splits = [
                i - 1 for i in range(step, len(vals), step)
            ]
        ranges: List[Tuple[object, object]] = []
        start = 0
        for s in splits:
            ranges.append((vals[start], vals[s]))
            start = s + 1
        ranges.append((vals[start], vals[-1]))
        return cls(ranges=tuple(ranges), n_values=len(vals))

    @property
    def is_empty(self) -> bool:
        return not self.ranges

    def overlaps_interval(self, lo, hi) -> bool:
        """Does any summary range intersect the closed [lo, hi]?

        Unknown bounds (None) force a conservative True — the probe
        partition must then be scanned.
        """
        if self.is_empty:
            return False
        if lo is None or hi is None:
            return True
        los = [r[0] for r in self.ranges]
        i = bisect.bisect_right(los, hi) - 1
        return i >= 0 and self.ranges[i][1] >= lo


def prune_probe_partitions(
    partitions: Sequence, probe_key: str, summary: RangeSummary
) -> PruneResult:
    """§6.1 steps 3+4: drop probe partitions disjoint from the summary."""
    retained: List = []
    pruned: List = []
    for p in partitions:
        cs = p.stats.col(probe_key)
        if p.stats.row_count == 0:
            pruned.append(p)
            continue
        if cs is None:
            retained.append(p)
            continue
        if cs.all_null:
            # Join keys that are NULL never match an equi-join.
            pruned.append(p)
            continue
        try:
            keep = summary.overlaps_interval(cs.min, cs.max)
        except TypeError:
            keep = True
        # NULL-keyed rows never join, but rows with non-null keys decide.
        (retained if keep else pruned).append(p)
    return PruneResult(retained=retained, pruned=pruned, fully_matching=[])

