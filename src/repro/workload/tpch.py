"""TPC-H-lite lake + query set for the §8.3 pruning comparison.

The paper ran TPC-H SF100 clustered on ``l_shipdate``/``o_orderdate``
inside Snowflake and measured a 28.7 % average pruning ratio (median
8.3 % per query) — far below the 99.4 % production figure.  We rebuild
the experiment over the provided TPC-H-lite generators: lineitem and
orders are clustered on their date columns, part/customer stay
unclustered, and the 22-query set below carries the pruning-relevant
predicate/join structure of the TPC-H queries (adapted to the lite
schema; columns the lite schema lacks are substituted by columns with
comparable selectivity — each substitution noted inline).

Selectivities of TPC-H predicates are scale-invariant, so the *shape*
of the result (low pruning vs. production-like workloads) carries over
even though we run at SF 0.01–0.1.
"""
from __future__ import annotations

import datetime as _dt
from pathlib import Path
from typing import Dict, List, Tuple

from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro import synth_data
from repro.core import query as q
from repro.core.expr import and_, between, col, like
from repro.lake import LakeTable


def build_tpch_lake(
    spark: SparkSession,
    root: str | Path,
    *,
    sf: float = 0.01,
    seed: int = 0,
) -> Dict[str, LakeTable]:
    """Generate TPC-H-lite at ``sf`` and cluster per the §8.3 setup."""
    root = Path(root)
    li = synth_data.lineitem(spark, sf=sf, seed=seed).withColumn(
        "l_shipdate", F.to_date("l_shipdate")
    )
    o = synth_data.orders(spark, sf=sf, seed=seed + 1).withColumn(
        "o_orderdate", F.to_date("o_orderdate")
    )
    p = synth_data.part(spark, sf=sf, seed=seed + 5)
    c = synth_data.customer(spark, sf=sf, seed=seed + 2)
    n_li = max(4, int(300 * sf))
    n_o = max(3, int(120 * sf))
    return {
        "lineitem": LakeTable.write(
            li.toArrow(), root / "lineitem", n_partitions=n_li,
            cluster_by=["l_shipdate"], name="lineitem",
        ),
        "orders": LakeTable.write(
            o.toArrow(), root / "orders", n_partitions=n_o,
            cluster_by=["o_orderdate"], name="orders",
        ),
        "part": LakeTable.write(
            p.toArrow(), root / "part", n_partitions=2, cluster_by=None, name="part",
        ),
        "customer": LakeTable.write(
            c.toArrow(), root / "customer", n_partitions=2, cluster_by=None,
            name="customer",
        ),
    }


def _d(y: int, m: int, d: int) -> _dt.date:
    return _dt.date(y, m, d)


def tpch_queries() -> List[Tuple[str, q.QuerySpec]]:
    """Pruning-relevant TPC-H query skeletons (lite schema).

    Inline notes mark predicate substitutions for columns the lite
    schema lacks (shipmode, nation, etc.).
    """
    out: List[Tuple[str, q.QuerySpec]] = []

    # Q1: ~98 % of lineitem qualifies — essentially no pruning.
    out.append(("q1", q.QuerySpec(
        qtype=q.SELECT, table="lineitem",
        pred=col("l_shipdate") <= _d(1998, 9, 2),
    )))

    # Q3: orders before a date build against lineitem shipped after it.
    out.append(("q3", q.QuerySpec(
        qtype=q.SELECT, table="lineitem",
        pred=col("l_shipdate") > _d(1995, 3, 15),
        join=q.JoinSpec(
            build_table="orders", build_key="o_orderkey",
            probe_key="l_orderkey",
            build_pred=col("o_orderdate") < _d(1995, 3, 15),
        ),
    )))

    # Q4: one quarter of orders.
    out.append(("q4", q.QuerySpec(
        qtype=q.SELECT, table="orders",
        pred=and_(
            col("o_orderdate") >= _d(1993, 7, 1),
            col("o_orderdate") < _d(1993, 10, 1),
        ),
    )))

    # Q5: customer of one nation builds against a year of orders.
    out.append(("q5", q.QuerySpec(
        qtype=q.SELECT, table="orders",
        pred=and_(
            col("o_orderdate") >= _d(1994, 1, 1),
            col("o_orderdate") < _d(1995, 1, 1),
        ),
        join=q.JoinSpec(
            build_table="customer", build_key="c_custkey",
            probe_key="o_custkey",
            build_pred=col("c_nationkey").eq(3),
        ),
    )))

    # Q6: the classic one-year + discount + quantity scan.
    out.append(("q6", q.QuerySpec(
        qtype=q.SELECT, table="lineitem",
        pred=and_(
            col("l_shipdate") >= _d(1994, 1, 1),
            col("l_shipdate") < _d(1995, 1, 1),
            between(col("l_discount"), 0.05, 0.07),
            col("l_quantity") < 24.0,
        ),
    )))

    # Q9-lite: part probe with a LIKE on p_type (sub for p_name LIKE);
    # lineitem side unfiltered — a large unprunable scan.
    out.append(("q9", q.QuerySpec(
        qtype=q.SELECT, table="lineitem",
        pred=None,
        join=q.JoinSpec(
            build_table="part", build_key="p_partkey",
            probe_key="l_partkey",
            build_pred=like(col("p_type"), "PROMO%"),
        ),
    )))

    # Q10: a quarter of orders; returned-items filter on lineitem probe.
    out.append(("q10", q.QuerySpec(
        qtype=q.SELECT, table="lineitem",
        pred=col("l_returnflag").eq("R"),
        join=q.JoinSpec(
            build_table="orders", build_key="o_orderkey",
            probe_key="l_orderkey",
            build_pred=and_(
                col("o_orderdate") >= _d(1993, 10, 1),
                col("o_orderdate") < _d(1994, 1, 1),
            ),
        ),
    )))

    # Q12: one year of shipments; quantity conjunct subs for l_shipmode.
    out.append(("q12", q.QuerySpec(
        qtype=q.SELECT, table="lineitem",
        pred=and_(
            col("l_shipdate") >= _d(1994, 1, 1),
            col("l_shipdate") < _d(1995, 1, 1),
            col("l_quantity") >= 30.0,
        ),
    )))

    # Q13-lite: orders scanned without any prunable predicate.
    out.append(("q13", q.QuerySpec(qtype=q.SELECT, table="orders")))

    # Q14: one month of shipments — TPC-H's most selective date window.
    out.append(("q14", q.QuerySpec(
        qtype=q.SELECT, table="lineitem",
        pred=and_(
            col("l_shipdate") >= _d(1995, 9, 1),
            col("l_shipdate") < _d(1995, 10, 1),
        ),
    )))

    # Q15: one quarter of shipments.
    out.append(("q15", q.QuerySpec(
        qtype=q.SELECT, table="lineitem",
        pred=and_(
            col("l_shipdate") >= _d(1996, 1, 1),
            col("l_shipdate") < _d(1996, 4, 1),
        ),
    )))

    # Q19: brand+size part build against small-quantity lineitems.
    out.append(("q19", q.QuerySpec(
        qtype=q.SELECT, table="lineitem",
        pred=between(col("l_quantity"), 1.0, 11.0),
        join=q.JoinSpec(
            build_table="part", build_key="p_partkey",
            probe_key="l_partkey",
            build_pred=and_(
                col("p_brand").eq("Brand#12"),
                between(col("p_size"), 1, 5),
            ),
        ),
    )))

    # Q20: a year of shipments joined with a brand subset of part.
    out.append(("q20", q.QuerySpec(
        qtype=q.SELECT, table="lineitem",
        pred=and_(
            col("l_shipdate") >= _d(1994, 1, 1),
            col("l_shipdate") < _d(1995, 1, 1),
        ),
        join=q.JoinSpec(
            build_table="part", build_key="p_partkey",
            probe_key="l_partkey",
            build_pred=like(col("p_type"), "STANDARD%"),
        ),
    )))

    # Q2-lite: part lookup on size — unclustered, no pruning.
    out.append(("q2", q.QuerySpec(
        qtype=q.SELECT, table="part",
        pred=and_(col("p_size").eq(15), like(col("p_type"), "%BRASS")),
    )))

    # Q7: two-year shipment window (1995–1996).
    out.append(("q7", q.QuerySpec(
        qtype=q.SELECT, table="lineitem",
        pred=and_(
            col("l_shipdate") >= _d(1995, 1, 1),
            col("l_shipdate") <= _d(1996, 12, 31),
        ),
    )))

    # Q8: two years of orders joined against part (type filter).
    out.append(("q8", q.QuerySpec(
        qtype=q.SELECT, table="orders",
        pred=and_(
            col("o_orderdate") >= _d(1995, 1, 1),
            col("o_orderdate") <= _d(1996, 12, 31),
        ),
        join=q.JoinSpec(
            build_table="customer", build_key="c_custkey",
            probe_key="o_custkey",
            build_pred=col("c_nationkey").eq(8),
        ),
    )))

    # Q11-lite: customer scan without a prunable predicate (sub for the
    # nation-filtered partsupp scan).
    out.append(("q11", q.QuerySpec(
        qtype=q.SELECT, table="customer",
        pred=col("c_nationkey").eq(11),
    )))

    # Q16: part attribute filters — unclustered, no pruning.
    out.append(("q16", q.QuerySpec(
        qtype=q.SELECT, table="part",
        pred=and_(
            col("p_brand").ne("Brand#45"),
            between(col("p_size"), 10, 40),
        ),
    )))

    # Q17: small-quantity lineitems against one brand of part.
    out.append(("q17", q.QuerySpec(
        qtype=q.SELECT, table="lineitem",
        pred=col("l_quantity") < 5.0,
        join=q.JoinSpec(
            build_table="part", build_key="p_partkey",
            probe_key="l_partkey",
            build_pred=col("p_brand").eq("Brand#23"),
        ),
    )))

    # Q18: large-order scan — no prunable predicate anywhere.
    out.append(("q18", q.QuerySpec(
        qtype=q.SELECT, table="lineitem",
        pred=None,
        join=q.JoinSpec(
            build_table="orders", build_key="o_orderkey",
            probe_key="l_orderkey",
        ),
    )))

    # Q21: returnflag/linestatus filter (sub for receiptdate>commitdate).
    out.append(("q21", q.QuerySpec(
        qtype=q.SELECT, table="lineitem",
        pred=col("l_linestatus").eq("F"),
    )))

    # Q22: account-balance filter on customer — unclustered.
    out.append(("q22", q.QuerySpec(
        qtype=q.SELECT, table="customer",
        pred=col("c_acctbal") > 7000.0,
    )))

    return out
