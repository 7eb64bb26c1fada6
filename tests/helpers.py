"""Shared test utilities.

``ps``/``meta`` build partition metadata by hand for metadata-only
tests; ``partition_pandas`` micro-partitions a pandas frame purely in
Python (stats computed with pandas) so pruning soundness can be
property-tested against brute-force row evaluation without Spark.
Rows are evaluated with the worker's evaluator, ``to_arrow``, on the
frame converted to Arrow (pandas NaN becomes NULL, as DuckDB reads it);
``test_expr_property.nan_tables`` covers real NaN next to NULL.
"""
from __future__ import annotations

import datetime as dt
from typing import Dict, List, Optional, Sequence, Tuple

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa

from repro.core.expr import Expr, to_arrow
from repro.core.filter_pruning import (
    FULLY_MATCHING,
    NOT_MATCHING,
    PARTIALLY_MATCHING,
)
from repro.core.stats import ColStats, PartitionStats
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
