"""Spark execution of the §7 pruning flow's decision.

The paper's runtime techniques (top-k boundary pruning, join pruning)
exchange information sideways between operators mid-query — not
expressible inside Catalyst from Python (see DESIGN.md).  So
``repro.core.flow.run_pruning_flow`` makes every pruning decision, and
:func:`execute` plans the query in Spark over the scan sets it chose.
``filtered_scan``, ``topk_execute`` and ``pruned_hash_join`` are thin
entry points for one query shape each: build a ``QuerySpec``, run the
flow, execute it, and return the DataFrame with the stage result the
caller inspects.  The pruning decision itself starts no Spark job.
"""
from __future__ import annotations

from typing import Dict, Optional, Tuple

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import query as q
from repro.core.expr import Expr, to_spark
from repro.core.filter_pruning import PruneResult
from repro.core.flow import FlowResult, run_pruning_flow
from repro.core.topk_pruning import TopKScanResult
from repro.lake import LakeTable


def execute(
    spark: SparkSession, tables: Dict[str, LakeTable], res: FlowResult
) -> DataFrame:
    """Plan ``res.spec`` over the flow's final scan sets.

    Residual predicate on the main scan, inner equi-join with the
    filtered build side, ``ORDER BY … NULLS LAST`` for a top-k, then
    ``LIMIT k``.  GROUP BY top-k queries are not planned here.
    """
    spec = res.spec
    if spec.qtype in (q.TOPK_GROUP_KEY, q.TOPK_GROUP_AGG):
        raise ValueError(f"execute cannot plan {spec.qtype} queries")
    df = tables[spec.table].scan(spark, res.final_main_scan)
    if spec.pred is not None:
        df = df.filter(to_spark(spec.pred))
    if spec.join is not None:
        j = spec.join
        build = tables[j.build_table].scan(spark, res.final_build_scan)
        if j.build_pred is not None:
            build = build.filter(to_spark(j.build_pred))
        df = df.join(build, on=df[j.probe_key] == build[j.build_key], how="inner")
    if spec.qtype == q.TOPK:
        o = F.col(spec.order_col)
        df = df.orderBy(o.desc_nulls_last() if spec.desc else o.asc_nulls_last())
    if spec.k is not None:
        df = df.limit(spec.k)
    return df


def filtered_scan(
    spark: SparkSession, table: LakeTable, pred: Optional[Expr]
) -> Tuple[DataFrame, PruneResult]:
    """Filter-pruned scan: metadata pruning + Spark-side residual filter."""
    name = table.manifest.name
    tables = {name: table}
    res = run_pruning_flow(q.QuerySpec(qtype=q.SELECT, table=name, pred=pred), tables)
    return execute(spark, tables, res), res.filter_result


def topk_execute(
    spark: SparkSession,
    table: LakeTable,
    *,
    order_col: str,
    k: int,
    pred: Optional[Expr] = None,
    desc: bool = True,
) -> Tuple[DataFrame, TopKScanResult]:
    """``ORDER BY order_col LIMIT k``: §5 runtime pruning decides the scan
    set, Spark produces the ordered result over exactly those partitions."""
    name = table.manifest.name
    tables = {name: table}
    spec = q.QuerySpec(
        qtype=q.TOPK, table=name, pred=pred, k=k, order_col=order_col, desc=desc
    )
    res = run_pruning_flow(spec, tables)
    return execute(spark, tables, res), res.topk_result


def pruned_hash_join(
    spark: SparkSession,
    probe: LakeTable,
    build: LakeTable,
    *,
    probe_key: str,
    build_key: str,
    probe_pred: Optional[Expr] = None,
    build_pred: Optional[Expr] = None,
) -> Tuple[DataFrame, Dict[str, int]]:
    """§6 join: the flow summarizes the (filtered) build side and prunes
    probe partitions; Spark executes the equi-join."""
    pname, bname = probe.manifest.name, build.manifest.name
    if pname == bname and probe is not build:
        raise ValueError(f"probe and build tables share the name {pname!r}")
    tables = {pname: probe, bname: build}
    spec = q.QuerySpec(
        qtype=q.SELECT, table=pname, pred=probe_pred,
        join=q.JoinSpec(bname, build_key, probe_key, build_pred),
    )
    res = run_pruning_flow(spec, tables)
    jt = res.techniques["join"]
    return execute(spark, tables, res), {
        "probe_before": jt.before,
        "probe_after": jt.after,
        "build_partitions": len(res.final_build_scan),
    }
