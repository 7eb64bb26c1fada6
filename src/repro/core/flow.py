"""The combined pruning flow (§7): filter → join → LIMIT → top-k.

Runs every applicable technique for a query in the order Snowflake
applies them and accounts, per technique, whether the query was eligible
and whether at least one partition was actually pruned (the Fig. 11
accounting), plus the query-level pruning ratio measured the way the
paper does for Fig. 4: relative to *all* partitions the query would
touch, including scans without predicates.

This is the only code that sequences the pruning stages; Spark executes
its decision through ``repro.engine.exec_ops.execute``.  The main scan
is classified once, and the LIMIT stage and the top-k boundary reuse
that classification.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .filter_pruning import PruneResult, prune_scan_set
from .join_pruning import RangeSummary, prune_probe_partitions
from .limit_pruning import LimitPruneOutcome, prune_for_limit
from .query import LIMIT, QuerySpec
from .topk_pruning import (
    TopKScanResult,
    init_boundary,
    supports_topk_pruning,
    topk_scan,
)


@dataclass
class TechniqueStats:
    """Per-technique accounting for one query."""

    eligible: bool = False
    applied: bool = False  # pruned at least one partition
    before: int = 0
    after: int = 0

    @property
    def pruned(self) -> int:
        return self.before - self.after

    @property
    def ratio(self) -> float:
        return self.pruned / self.before if self.before else 0.0


@dataclass
class FlowResult:
    """Outcome of the full pruning flow for one query."""

    spec: QuerySpec
    total_partitions: int
    techniques: Dict[str, TechniqueStats] = field(default_factory=dict)
    final_main_scan: List = field(default_factory=list)
    final_build_scan: List = field(default_factory=list)
    #: the one classification of the main scan (filter stage)
    filter_result: Optional[PruneResult] = None
    limit_outcome: Optional[LimitPruneOutcome] = None
    topk_result: Optional[TopKScanResult] = None

    @property
    def final_scanned(self) -> int:
        return len(self.final_main_scan) + len(self.final_build_scan)

    @property
    def overall_ratio(self) -> float:
        """Pruned fraction of every partition the query touches (Fig. 4)."""
        if not self.total_partitions:
            return 0.0
        return 1.0 - self.final_scanned / self.total_partitions


def run_pruning_flow(
    spec: QuerySpec,
    tables: Dict[str, object],  # name -> LakeTable
) -> FlowResult:
    """Apply filter → join → LIMIT → top-k pruning for one query.

    The runtime techniques (join summary build, top-k loop) read
    partitions on the simulated worker path, ``read_partition_pandas``,
    each returning one column of the rows that pass the stage's
    predicate: the build key under ``build_pred``, the order column
    under ``pred``.
    """
    main = tables[spec.table]
    main_parts = list(main.manifest.partitions)
    build_parts: List = []
    if spec.join is not None:
        build_parts = list(tables[spec.join.build_table].manifest.partitions)
    res = FlowResult(
        spec=spec, total_partitions=len(main_parts) + len(build_parts)
    )

    # -- 1. filter pruning (compile time, always first: §3.3) --------------
    ft = TechniqueStats(before=len(main_parts) + len(build_parts))
    main_fr = prune_scan_set(main_parts, spec.pred)
    main_scan = main_fr.retained
    build_scan = build_parts
    if spec.join is not None and spec.join.build_pred is not None:
        build_scan = prune_scan_set(build_parts, spec.join.build_pred).retained
    ft.eligible = spec.pred is not None or (
        spec.join is not None and spec.join.build_pred is not None
    )
    ft.after = len(main_scan) + len(build_scan)
    ft.applied = ft.eligible and ft.after < ft.before
    res.techniques["filter"] = ft
    res.filter_result = main_fr

    # -- 2. join pruning (runtime, §6) -------------------------------------
    jt = TechniqueStats(before=len(main_scan), after=len(main_scan))
    if spec.join is not None:
        jt.eligible = True
        j = spec.join
        build = tables[j.build_table]
        build_vals: List = []
        for bp in build_scan:
            pdf = build.read_partition_pandas(bp, [j.build_key], j.build_pred)
            build_vals.extend(pdf[j.build_key].dropna().tolist())
        summary = RangeSummary.build(build_vals)
        jr = prune_probe_partitions(main_scan, j.probe_key, summary)
        main_scan = jr.retained
        jt.after = len(main_scan)
        jt.applied = jt.after < jt.before
    res.techniques["join"] = jt

    # -- 3. LIMIT pruning (§4; LIMIT below a join is not pushed) -----------
    lt = TechniqueStats(before=len(main_scan), after=len(main_scan))
    if spec.qtype == LIMIT and spec.k is not None and spec.join is None:
        lt.eligible = True
        # No join ran, so the scan set is still ``main_fr.retained``.
        outcome = prune_for_limit(
            main_fr, spec.k, shape_supported=spec.limit_shape_supported
        )
        res.limit_outcome = outcome
        main_scan = outcome.scan_set
        lt.after = len(main_scan)
        lt.applied = lt.after < lt.before
    res.techniques["limit"] = lt

    # -- 4. top-k pruning (runtime, last: §5.5) ----------------------------
    tt = TechniqueStats(before=len(main_scan), after=len(main_scan))
    if (
        spec.is_topk
        and spec.k is not None
        and spec.order_col is not None
        and supports_topk_pruning(spec.plan_ops, [spec.order_col])
    ):
        tt.eligible = True
        # §5.4: fully-matching partitions that earlier stages kept.
        in_scan = {p.pid for p in main_scan}
        fully = [p for p in main_fr.fully_matching if p.pid in in_scan]
        boundary = init_boundary(fully, spec.order_col, spec.k, desc=spec.desc)
        tr = topk_scan(
            main_scan,
            main.read_partition_pandas,
            spec.order_col,
            spec.k,
            pred=spec.pred,
            desc=spec.desc,
            initial_boundary=boundary,
        )
        res.topk_result = tr
        main_scan = tr.scanned
        tt.after = len(main_scan)
        tt.applied = tt.after < tt.before
    res.techniques["topk"] = tt

    res.final_main_scan = main_scan
    res.final_build_scan = build_scan
    return res
