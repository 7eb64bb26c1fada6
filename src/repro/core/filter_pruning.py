"""Filter pruning (§3): min/max scan-set pruning with three-way
partition classification.

Beyond the classic prune/keep decision, every retained partition is
classified as *partially-matching* or *fully-matching* (§4.2) — the
latter feeds LIMIT pruning and top-k boundary initialization.  A
partition is pruned iff its metadata proves no row can satisfy the
predicate (**no false negatives**), and fully-matching iff the metadata
proves every row satisfies it (no false "fully" claims).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .expr import Expr, always_match, can_match, eval3
from .stats import PartitionStats

#: Partition classification outcomes.
NOT_MATCHING = "not_matching"
PARTIALLY_MATCHING = "partially_matching"
FULLY_MATCHING = "fully_matching"


def classify_partition(pred: Optional[Expr], stats: PartitionStats) -> str:
    """Classify one partition against a predicate using only metadata.

    ``pred=None`` (no WHERE clause) makes every non-empty partition
    trivially fully-matching (§4.2).  Empty partitions are always
    ``NOT_MATCHING`` — they cannot contribute rows.
    """
    if stats.row_count == 0:
        return NOT_MATCHING
    if pred is None:
        return FULLY_MATCHING
    try:
        outcomes = eval3(pred, stats)
    except (TypeError, ValueError):
        return PARTIALLY_MATCHING  # cannot prune on malformed metadata
    if not can_match(outcomes):
        return NOT_MATCHING
    if always_match(outcomes):
        return FULLY_MATCHING
    return PARTIALLY_MATCHING


@dataclass
class PruneResult:
    """Outcome of pruning one scan set."""

    retained: List  # PartitionMeta, kept in scan set (partially ∪ fully)
    pruned: List  # PartitionMeta, removed
    fully_matching: List  # subset of retained proven all-matching

    @property
    def n_total(self) -> int:
        return len(self.retained) + len(self.pruned)


def prune_scan_set(partitions: Sequence, pred: Optional[Expr]) -> PruneResult:
    """Prune a scan set (list of ``PartitionMeta``) against a predicate."""
    retained: List = []
    pruned: List = []
    fully: List = []
    for p in partitions:
        c = classify_partition(pred, p.stats)
        if c == NOT_MATCHING:
            pruned.append(p)
        else:
            retained.append(p)
            if c == FULLY_MATCHING:
                fully.append(p)
    return PruneResult(retained=retained, pruned=pruned, fully_matching=fully)
