"""Spark execution of the §7 pruning flow's decision.

The paper's runtime techniques (top-k boundary pruning, join pruning)
exchange information sideways between operators mid-query — not
expressible inside Catalyst from Python (see DESIGN.md).  So
``repro.core.flow.run_pruning_flow`` makes every pruning decision, and
:func:`execute` plans the query in Spark over the scan sets it chose, as
one SQL statement over ``LakeTable.scan`` relations (the table's cached
relation, filtered by file name).
``filtered_scan``, ``topk_execute`` and ``pruned_hash_join`` are thin
entry points for one query shape each: build a ``QuerySpec``, run the
flow, execute it, and return the DataFrame with the stage result the
caller inspects.  Only the caller's action starts a Spark job.
"""
from __future__ import annotations

from typing import Dict, Optional, Tuple

from pyspark.sql import DataFrame, SparkSession

from repro.core import query as q
from repro.core.expr import Expr, col, to_spark
from repro.core.filter_pruning import PruneResult
from repro.core.flow import FlowResult, run_pruning_flow
from repro.core.topk_pruning import TopKScanResult
from repro.lake import LakeTable


def execute(
    spark: SparkSession, tables: Dict[str, LakeTable], res: FlowResult
) -> DataFrame:
    """Plan ``res.spec`` over the flow's final scan sets as one Spark SQL
    statement, analysed once by one ``spark.sql`` call::

        SELECT * FROM (<main> WHERE pred) m
          [JOIN (<build> WHERE build_pred) b ON m.probe_key = b.build_key]
          [ORDER BY m.order_col DESC|ASC NULLS LAST] [LIMIT k]

    ``<main>`` and ``<build>`` are ``LakeTable.scan`` relations.  The
    aliases keep the two sides of a self-join apart.  GROUP BY top-k
    queries are not planned here.
    """
    spec = res.spec
    if spec.qtype in (q.TOPK_GROUP_KEY, q.TOPK_GROUP_AGG):
        raise ValueError(f"execute cannot plan {spec.qtype} queries")
    main = tables[spec.table].scan(spark, res.final_main_scan)
    sql = f"SELECT * FROM {_where(main, spec.pred)} m"
    if spec.join is not None:
        j = spec.join
        build = tables[j.build_table].scan(spark, res.final_build_scan)
        sql += (
            f" JOIN {_where(build, j.build_pred)} b"
            f" ON m.{to_spark(col(j.probe_key))} = b.{to_spark(col(j.build_key))}"
        )
    if spec.qtype == q.TOPK:
        order = "DESC" if spec.desc else "ASC"
        sql += f" ORDER BY m.{to_spark(col(spec.order_col))} {order} NULLS LAST"
    if spec.k is not None:
        sql += f" LIMIT {int(spec.k)}"
    return spark.sql(sql)


def _where(relation: str, pred: Optional[Expr]) -> str:
    return relation if pred is None else f"(SELECT * FROM {relation} WHERE {to_spark(pred)})"


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
