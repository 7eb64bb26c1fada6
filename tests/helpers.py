"""Shared test utilities.

``ps``/``meta`` build partition metadata by hand for metadata-only
tests; ``lake_pandas`` reads a lake table whole for the DuckDB oracles;
``scan_df`` turns a ``LakeTable.scan`` relation into a DataFrame, and
``spark_column`` is the PySpark Column reference for ``to_spark``;
``partition_pandas`` micro-partitions a pandas frame purely in
Python (stats computed with pandas) so pruning soundness can be
property-tested against brute-force row evaluation without Spark.
Rows are evaluated with the worker's evaluator, ``to_arrow``, on the
frame converted to Arrow (pandas NaN becomes NULL, as DuckDB reads it);
``test_expr_property.nan_tables`` covers real NaN next to NULL.
"""
from __future__ import annotations

import datetime as dt
import operator
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa

from repro.core import expr as E
from repro.core.expr import Expr, to_arrow
from repro.core.filter_pruning import (
    FULLY_MATCHING,
    NOT_MATCHING,
    PARTIALLY_MATCHING,
)
from repro.core.stats import ColStats, PartitionStats
from repro.lake import LakeTable
from repro.lake.manifest import PartitionMeta


def ps(rows: int, **cols) -> PartitionStats:
    """PartitionStats from kwargs: name=(min, max) or (min, max, nulls)."""
    out = {}
    for name, spec in cols.items():
        if len(spec) == 2:
            lo, hi = spec
            nulls = 0
        else:
            lo, hi, nulls = spec
        out[name] = ColStats(min=lo, max=hi, null_count=nulls)
    return PartitionStats(row_count=rows, columns=out)


def meta(pid: int, rows: int, **cols) -> PartitionMeta:
    """PartitionMeta with a dummy path for metadata-only tests."""
    return PartitionMeta(pid=pid, path=f"mem://{pid}", stats=ps(rows, **cols))


def _col_stats_from_series(s: pd.Series) -> ColStats:
    nn = s.dropna()
    if len(nn) == 0:
        return ColStats(min=None, max=None, null_count=int(s.isna().sum()))
    mn, mx = nn.min(), nn.max()
    if isinstance(mn, pd.Timestamp):
        mn, mx = mn.to_pydatetime(), mx.to_pydatetime()
    if hasattr(mn, "item"):
        mn = mn.item()
    if hasattr(mx, "item"):
        mx = mx.item()
    return ColStats(min=mn, max=mx, null_count=int(s.isna().sum()))


def partition_pandas(
    pdf: pd.DataFrame,
    n_parts: int,
    cluster_by: Optional[str] = None,
    seed: int = 0,
) -> Tuple[List[PartitionMeta], Dict[int, pd.DataFrame]]:
    """Split a frame into micro-partitions + metadata, all in pandas.

    Returns (metas, frames) where ``frames[pid]`` is the partition's
    data — use ``frames.__getitem__`` keyed by ``meta.pid`` as a reader.
    """
    if cluster_by is not None:
        pdf = pdf.sort_values(cluster_by, kind="stable")
    else:
        pdf = pdf.sample(frac=1.0, random_state=seed)
    chunks = np.array_split(np.arange(len(pdf)), n_parts)
    metas: List[PartitionMeta] = []
    frames: Dict[int, pd.DataFrame] = {}
    for pid, idx in enumerate(chunks):
        part = pdf.iloc[idx].reset_index(drop=True)
        stats = PartitionStats(
            row_count=len(part),
            columns={c: _col_stats_from_series(part[c]) for c in part.columns},
        )
        metas.append(PartitionMeta(pid=pid, path=f"mem://{pid}", stats=stats))
        frames[pid] = part
    return metas, frames


def arrow_filter(pdf: pd.DataFrame, pred: Optional[Expr]) -> pd.DataFrame:
    """Rows of ``pdf`` where ``pred`` is TRUE, evaluated by Arrow; the
    frame's index is kept, so callers can compare row positions."""
    if pred is None:
        return pdf
    t = pa.Table.from_pandas(pdf, preserve_index=True)
    return t.filter(to_arrow(pred)).to_pandas()


def reader_for(frames: Dict[int, pd.DataFrame]):
    """A worker reader, ``reader(meta, columns, filter)``, over in-memory
    partitions (same contract as ``LakeTable.read_partition_pandas``)."""

    def read(m, columns, filter):
        t = pa.Table.from_pandas(frames[m.pid], preserve_index=False)
        if filter is not None:
            t = t.filter(to_arrow(filter))
        return t.select(columns).to_pandas()

    return read


def lake_pandas(table: LakeTable) -> pd.DataFrame:
    """A whole lake table as pandas, read partition by partition on the
    worker read path (oracle inputs at test scale)."""
    frames = [table.read_partition_pandas(m) for m in table.manifest.partitions]
    if not frames:
        return pd.DataFrame(columns=[f.name for f in table.schema.fields])
    return pd.concat(frames, ignore_index=True)


def scan_df(spark, table: LakeTable, metas: Optional[Iterable[PartitionMeta]] = None):
    """``table.scan``'s SQL relation as a DataFrame; ``metas=None`` scans
    every partition."""
    if metas is None:
        metas = table.manifest.partitions
    return spark.sql(f"SELECT * FROM {table.scan(spark, metas)}")


_COLUMN_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "=": operator.eq, "!=": operator.ne,
}


def spark_column(e: Expr):
    """PySpark ``Column`` for ``e``: the reference ``to_spark``'s SQL text
    must agree with row for row."""
    from pyspark.sql import functions as F

    if isinstance(e, E.Col):
        return F.col(e.name)
    if isinstance(e, E.Lit):
        return F.lit(e.value)
    if isinstance(e, (E.Arith, E.Cmp)):
        return _COLUMN_OPS[e.op](spark_column(e.left), spark_column(e.right))
    if isinstance(e, (E.And, E.Or)):
        combine = operator.and_ if isinstance(e, E.And) else operator.or_
        out = spark_column(e.args[0])
        for a in e.args[1:]:
            out = combine(out, spark_column(a))
        return out
    if isinstance(e, E.Not):
        return ~spark_column(e.arg)
    if isinstance(e, E.If):
        return F.when(spark_column(e.cond), spark_column(e.then)).otherwise(
            spark_column(e.otherwise)
        )
    if isinstance(e, E.Like):
        return spark_column(e.arg).like(e.pattern)
    if isinstance(e, E.StartsWith):
        return spark_column(e.arg).startswith(e.prefix)
    if isinstance(e, E.InList):
        return spark_column(e.arg).isin(list(e.values))
    if isinstance(e, E.IsNull):
        return spark_column(e.arg).isNull()
    raise TypeError(f"cannot compile {e!r}")


def fully_matching_by_inverted_pass(
    partitions: Sequence[PartitionMeta], pred: Expr
) -> List[PartitionMeta]:
    """§4.2's second pass: a partition is fully matching when the inverted
    predicate can match no row and the predicate's columns hold no NULL
    (a NULL row fails both the predicate and its inversion)."""
    inv = E.invert(pred)
    cols = E.columns(pred)
    out = []
    for p in partitions:
        if p.stats.row_count == 0 or any(
            (cs := p.stats.col(c)) is None or cs.has_nulls() for c in cols
        ):
            continue
        if not E.can_match(E.eval3(inv, p.stats)):
            out.append(p)
    return out


def duckdb_table(tbl: pa.Table) -> duckdb.DuckDBPyConnection:
    """Connection holding ``tbl`` as DuckDB table ``t``, with a row
    ``index``.  The copy matters: over a registered Arrow table DuckDB
    pushes WHERE into Arrow's scan, which compares NaN as IEEE does."""
    con = duckdb.connect()
    con.register("src", tbl.append_column("index", pa.array(range(len(tbl)))))
    con.execute("CREATE TABLE t AS SELECT * FROM src")
    return con


def brute_classify(pred: Optional[Expr], pdf: pd.DataFrame) -> str:
    """Ground-truth partition classification by evaluating every row."""
    if len(pdf) == 0:
        return NOT_MATCHING
    n = len(arrow_filter(pdf, pred))
    if n == 0:
        return NOT_MATCHING
    if n == len(pdf):
        return FULLY_MATCHING
    return PARTIALLY_MATCHING


def brute_topk_values(
    pdf: pd.DataFrame,
    order_col: str,
    k: int,
    pred: Optional[Expr] = None,
    desc: bool = True,
) -> List:
    """Ground-truth top-k order-value multiset over a full frame."""
    vals = arrow_filter(pdf, pred)[order_col].dropna()
    return vals.sort_values(ascending=not desc).head(k).tolist()
