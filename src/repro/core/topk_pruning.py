"""Top-k pruning (§5): runtime boundary-value pruning for ORDER BY+LIMIT.

The runtime scan keeps the top-k order-column values seen so far; once k
rows are held, the k-th value (the **boundary**) prunes every partition
whose max (DESC ordering; min for ASC) cannot beat it.  Partitions are
processed in an order chosen from min/max metadata (§5.3), and the
boundary can be pre-initialized at compile time from fully-matching
partitions (§5.4), enabling pruning from the very first partition.

The partition scan inside the loop is the simulated warehouse worker: a
caller-supplied ``reader(meta, columns, filter)`` that returns a pandas
frame of the partition's rows where predicate ``filter`` is TRUE
(``None``: every row), restricted to ``columns`` —
``LakeTable.read_partition_pandas`` on a lake.  The loop asks only for
the order column's non-NULL values, filtered by the query predicate.

Stats, boundaries and values compare in Spark's order
(:func:`spark_order`): NaN is greater than every other double and equal
to itself, so a partition whose max is NaN holds the best DESC value.
The final query result is
produced by Spark over the retained scan set and oracle-checked in tests
(pruning preserves the top-k *value multiset* — SQL top-k is
nondeterministic among ties anyway).
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .expr import Expr, and_, col, isnull, not_
from .stats import PartitionStats


def spark_order(v: Any) -> Tuple[bool, Any]:
    """Sort key of a non-NULL value in Spark's order: NaN above every
    other double (Python's ``<`` is False both ways on NaN)."""
    nan = isinstance(v, float) and v != v
    return (nan, 0.0 if nan else v)


# -- supported plan shapes (§5.2, Fig. 7) -----------------------------------


@dataclass(frozen=True)
class PlanOp:
    """A relational operator sitting between the table scan and TopK.

    ``kind``: ``'filter'`` | ``'join'`` | ``'groupby'`` | other.
    For joins, ``order_col_from_probe`` says the ORDER BY column comes
    from the probe side; ``outer_build`` marks the (LEFT) OUTER JOIN
    build side case where the TopK can be replicated below the join.
    For group-bys, ``group_keys`` lists the grouping columns.
    """

    kind: str
    order_col_from_probe: bool = True
    outer_build: bool = False
    group_keys: Tuple[str, ...] = ()


def supports_topk_pruning(
    ops_between: Sequence[PlanOp], order_cols: Sequence[str]
) -> bool:
    """Can the TopK boundary reach this table scan? (Fig. 7 rules)

    * filters: always fine — the boundary forms from surviving rows;
    * joins: fine when the ORDER BY column comes from the probe side, or
      from the build side of a (LEFT) OUTER JOIN (TopK replication);
    * group-bys: fine iff the ORDER BY columns are a subset of the group
      keys (ordering on an aggregate breaks the boundary);
    * anything else is a pipeline breaker.
    """
    for op in ops_between:
        if op.kind == "filter":
            continue
        if op.kind == "join":
            if op.order_col_from_probe or op.outer_build:
                continue
            return False
        if op.kind == "groupby":
            if set(order_cols) <= set(op.group_keys):
                continue
            return False
        return False
    return True


# -- processing order (§5.3) ------------------------------------------------


def order_partitions(
    partitions: Sequence,
    order_col: str,
    *,
    desc: bool = True,
    strategy: str = "sort",
    seed: int = 0,
) -> List:
    """Choose the partition processing order.

    ``'sort'``: by max DESC (resp. min ASC) so a tight boundary forms
    early; ``'random'``: the §5.3 baseline.  Partitions lacking stats for
    the order column go last (they cannot seed a good boundary).
    """
    parts = list(partitions)
    if strategy == "random":
        random.Random(seed).shuffle(parts)
        return parts
    if strategy != "sort":
        raise ValueError(f"unknown strategy {strategy!r}")

    def best(p):
        cs = p.stats.col(order_col)
        return None if cs is None else (cs.max if desc else cs.min)

    # Two-pass: stats-less partitions last, then by boundary tightness.
    with_stats = [p for p in parts if best(p) is not None]
    without = [p for p in parts if best(p) is None]
    with_stats.sort(key=lambda p: spark_order(best(p)), reverse=desc)
    return with_stats + without


# -- boundary initialization (§5.4) -----------------------------------------


def init_boundary(
    fully_matching: Sequence,
    order_col: str,
    k: int,
    *,
    desc: bool = True,
) -> Optional[object]:
    """Compile-time boundary from fully-matching partitions (§5.4).

    Two candidates, the stricter wins:

    * the k-th largest max (DESC) — each of the k best-max partitions
      contributes at least the row attaining its max;
    * sort by min DESC and take the min of the partition where the
      cumulative non-null row count first reaches k.

    (Mirrored for ASC.)  Returns ``None`` when no bound can be proven.
    """
    if k <= 0:
        return None
    cand: List = []

    extremes = []
    for p in fully_matching:
        cs = p.stats.col(order_col)
        if cs is not None and not cs.all_null:
            extremes.append(cs.max if desc else cs.min)
    extremes.sort(key=spark_order, reverse=desc)
    if len(extremes) >= k:
        cand.append(extremes[k - 1])

    ranked = []
    for p in fully_matching:
        cs = p.stats.col(order_col)
        if cs is None or cs.all_null:
            continue
        nn_rows = p.stats.row_count - cs.null_count
        if nn_rows <= 0:
            continue
        ranked.append(((cs.min if desc else cs.max), nn_rows))
    ranked.sort(key=lambda t: spark_order(t[0]), reverse=desc)
    cum = 0
    for bound, rows in ranked:
        cum += rows
        if cum >= k:
            cand.append(bound)
            break

    if not cand:
        return None
    return (max if desc else min)(cand, key=spark_order)


# -- the runtime scan -------------------------------------------------------


@dataclass
class TopKScanResult:
    """Scan-set decision + accounting for one top-k runtime scan."""

    scanned: List = field(default_factory=list)
    pruned: List = field(default_factory=list)
    initial_boundary: Optional[object] = None
    final_boundary: Optional[object] = None
    boundary_history: List = field(default_factory=list)
    top_values: List = field(default_factory=list)

    @property
    def n_total(self) -> int:
        return len(self.scanned) + len(self.pruned)

    @property
    def pruning_ratio(self) -> float:
        return len(self.pruned) / self.n_total if self.n_total else 0.0


def _partition_prunable(
    stats: PartitionStats,
    order_col: str,
    boundary,
    desc: bool,
    heap_covers_boundary: bool,
) -> bool:
    """May this partition contribute a row beating the boundary?

    The boundary invariant is "the k-th best final value is at least
    ``boundary``", so values strictly worse than the boundary are always
    excludable.  Skipping a partition whose best value *ties* the
    boundary is only sound once the heap holds k scanned values at or
    above it (``heap_covers_boundary``) — then tied rows are
    interchangeable and the top-k value multiset is unchanged.  This
    distinction matters for §5.4 compile-time boundaries, whose k
    guaranteed rows may sit in not-yet-scanned partitions.

    A partition whose order column is entirely NULL sorts last and is
    skippable only once the heap is full of non-null values.
    """
    cs = stats.col(order_col)
    if cs is None:
        return False  # unknown stats: must scan
    if cs.all_null:
        return heap_covers_boundary
    try:
        best = spark_order(cs.max if desc else cs.min)
        bound = spark_order(boundary)
        if (best < bound) if desc else (best > bound):
            return True
        if heap_covers_boundary:
            return (best <= bound) if desc else (best >= bound)
        return False
    except TypeError:
        return False


def topk_scan(
    partitions: Sequence,
    reader: Callable[..., Any],
    order_col: str,
    k: int,
    *,
    pred: Optional[Expr] = None,
    desc: bool = True,
    strategy: str = "sort",
    seed: int = 0,
    initial_boundary: Optional[object] = None,
) -> TopKScanResult:
    """Run the §5.2 runtime loop over an (already filter-pruned) scan set.

    Sequentially processes partitions in the chosen order, maintaining
    the top-k order-value list; prunes each upcoming partition against
    the current boundary before reading it.
    """
    result = TopKScanResult(initial_boundary=initial_boundary)
    ordered = order_partitions(
        partitions, order_col, desc=desc, strategy=strategy, seed=seed
    )
    best = heapq.nlargest if desc else heapq.nsmallest
    # NULLs sort last either way, so only non-NULL values enter the heap;
    # NaN does, and it is the greatest.
    not_null = not_(isnull(col(order_col)))
    read_filter = not_null if pred is None else and_(pred, not_null)
    top: List = []
    boundary = initial_boundary

    def at_least(a, b) -> bool:
        """Is ``a`` at least as good as ``b`` in the query's order?"""
        a, b = spark_order(a), spark_order(b)
        return a >= b if desc else a <= b

    for p in ordered:
        heap_covers = bool(
            k > 0
            and len(top) == k
            and boundary is not None
            and at_least(top[-1], boundary)
        )
        if boundary is not None and _partition_prunable(
            p.stats, order_col, boundary, desc, heap_covers
        ):
            result.pruned.append(p)
            continue
        vals = reader(p, [order_col], read_filter)[order_col].tolist()
        result.scanned.append(p)
        if vals:
            top = best(k, top + vals, key=spark_order)
        if len(top) == k and k > 0:
            if boundary is None or not at_least(boundary, top[-1]):
                boundary = top[-1]
        result.boundary_history.append(boundary)

    result.final_boundary = boundary
    result.top_values = top
    return result
