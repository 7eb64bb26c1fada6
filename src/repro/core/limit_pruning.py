"""LIMIT pruning (§4): scan only enough fully-matching partitions.

If the fully-matching partitions (those filter pruning classified as
FULLY_MATCHING; §4.2 finds them with a second, inverted-predicate pass,
which ``tests/test_expr_invert.py`` shows equivalent) together hold at least
``k`` rows, the scan set shrinks to the minimal number of fully-matching
partitions covering ``k`` — globally IO-optimal for supported queries.
Otherwise the scan set is merely *reordered* to start with
fully-matching partitions (faster time-to-k, §4.1).

Outcome categories mirror Table 2 of the paper.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .filter_pruning import PruneResult

# Table 2 outcome categories (NO_FULLY_MATCHING is folded into
# "unsupported shapes" when reporting, matching the paper's text).
ALREADY_MINIMAL = "already_minimal"
UNSUPPORTED_SHAPE = "unsupported_shape"
NO_FULLY_MATCHING = "no_fully_matching"
PRUNED_TO_1 = "pruned_to_1"
PRUNED_TO_GT1 = "pruned_to_gt1"


@dataclass
class LimitPruneOutcome:
    """Result of LIMIT pruning one table scan."""

    category: str
    scan_set: List  # ordered: fully-matching first when not pruned
    filter_result: PruneResult
    k: int

    @property
    def reported_category(self) -> str:
        """Table 2 bucket (merges the two non-prunable reasons)."""
        if self.category == NO_FULLY_MATCHING:
            return UNSUPPORTED_SHAPE
        return self.category


def prune_for_limit(
    fr: PruneResult,
    k: int,
    *,
    shape_supported: bool = True,
) -> LimitPruneOutcome:
    """Apply LIMIT pruning to a filter-pruning result (§4.1's algorithm).

    ``fr`` is the scan set's one classification (``prune_scan_set``);
    its fully-matching partitions are reused, not recomputed.
    ``shape_supported=False`` models queries where the LIMIT cannot be
    pushed down to this table scan (aggregations, most joins, …; §4.3).
    """
    fully = sorted(fr.fully_matching, key=lambda p: -p.row_count)
    fully_pids = {p.pid for p in fr.fully_matching}
    partial = [p for p in fr.retained if p.pid not in fully_pids]

    if not shape_supported:
        return LimitPruneOutcome(UNSUPPORTED_SHAPE, fully + partial, fr, k)

    if len(fr.retained) <= 1:
        return LimitPruneOutcome(ALREADY_MINIMAL, list(fr.retained), fr, k)

    total_fully_rows = sum(p.row_count for p in fully)
    if total_fully_rows >= k:
        # Minimal number of fully-matching partitions covering k rows:
        # biggest-first greedy is optimal for a count-coverage objective.
        chosen: List = []
        covered = 0
        for p in fully:
            if covered >= k:
                break
            chosen.append(p)
            covered += p.row_count
        cat = PRUNED_TO_1 if len(chosen) <= 1 else PRUNED_TO_GT1
        return LimitPruneOutcome(cat, chosen, fr, k)

    return LimitPruneOutcome(NO_FULLY_MATCHING, fully + partial, fr, k)
