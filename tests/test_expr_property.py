"""Property tests: the soundness invariant everything rests on.

For *random* predicates over *random* partitioned data:

1. (no false negatives) a partition classified NOT_MATCHING holds no
   qualifying row;
2. (no false "fully" claims) a partition classified FULLY_MATCHING holds
   only qualifying rows;
3. the Arrow backend (the worker's row evaluator) agrees row-for-row
   with DuckDB running the SQL rendering of the same predicate.

Properties 1 and 2 also run on lakes written by Arrow whose float column
holds real NaN next to NULL; there DuckDB, which orders NaN above every
double as Spark does, gives the ground truth, and the worker's top-k
loop must return DuckDB's top-k values.
"""
import datetime as dt
import tempfile

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from repro.core.expr import (
    and_,
    between,
    col,
    isin,
    isnull,
    like,
    not_,
    or_,
    to_arrow,
    to_sql,
)
from repro.core.filter_pruning import (
    FULLY_MATCHING,
    NOT_MATCHING,
    classify_partition,
)
from repro.core.topk_pruning import init_boundary, spark_order, topk_scan
from repro.lake import LakeTable
from .helpers import arrow_filter, brute_classify, duckdb_table, partition_pandas

# -- data strategy ----------------------------------------------------------

_WORDS = ["Alpine Ibex", "Alpine Fox", "Bear", "Creek", "Marked-A", "Zebra"]


@st.composite
def frames(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(-20, 20, n).astype("float64")
    a[rng.random(n) < 0.15] = np.nan
    return pd.DataFrame(
        {
            "a": a,
            "b": rng.integers(0, 100, n),
            "s": rng.choice(_WORDS, n),
        }
    )


@st.composite
def nan_tables(draw):
    """Arrow table like :func:`frames`, but ``a`` holds real NaN as well
    as NULL (pandas would read both as missing) and ``s`` holds NULL."""
    pdf = draw(frames())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = len(pdf)
    a = pa.array(pdf["a"].to_numpy(), pa.float64(), mask=rng.random(n) < 0.1)
    s = pa.array(pdf["s"].to_numpy(), pa.string(), mask=rng.random(n) < 0.1)
    return pa.table({"a": a, "b": pa.array(pdf["b"].to_numpy()), "s": s})


@st.composite
def leaf_preds(draw):
    kind = draw(st.sampled_from(
        ["cmp_a", "cmp_b", "cmp_ab", "like", "in", "between", "isnull"]
    ))
    if kind == "cmp_a":
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "!="]))
        from repro.core.expr import Cmp, lit
        return Cmp(op, col("a"), lit(float(draw(st.integers(-25, 25)))))
    if kind == "cmp_b":
        from repro.core.expr import Cmp, lit
        op = draw(st.sampled_from(["<", ">", "="]))
        return Cmp(op, col("b"), lit(int(draw(st.integers(-5, 105)))))
    if kind == "cmp_ab":
        return col("a") < col("b")
    if kind == "like":
        pat = draw(st.sampled_from(["Alpine%", "Alpine% Ibex", "%ek", "Bear", "M%-A"]))
        return like(col("s"), pat)
    if kind == "in":
        vals = draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3))
        return isin(col("s"), vals)
    if kind == "between":
        lo = draw(st.integers(-20, 15))
        return between(col("a"), float(lo), float(lo + draw(st.integers(0, 20))))
    return isnull(col("a"))


def preds(depth: int = 2):
    base = leaf_preds()
    if depth == 0:
        return base
    sub = preds(depth - 1)
    return st.one_of(
        base,
        st.tuples(sub, sub).map(lambda t: and_(*t)),
        st.tuples(sub, sub).map(lambda t: or_(*t)),
        sub.map(not_),
    )


# -- properties -------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(pdf=frames(), pred=preds(), n_parts=st.integers(1, 5),
       cluster=st.sampled_from([None, "a", "b", "s"]))
def test_classification_soundness(pdf, pred, n_parts, cluster):
    metas, parts = partition_pandas(pdf, n_parts, cluster_by=cluster)
    for m in metas:
        c = classify_partition(pred, m.stats)
        truth = brute_classify(pred, parts[m.pid])
        if c == NOT_MATCHING:
            assert truth == NOT_MATCHING, (
                f"false negative: pruned partition with matches "
                f"({to_sql(pred)})"
            )
        if c == FULLY_MATCHING:
            assert truth == FULLY_MATCHING, (
                f"false 'fully': partition has failing rows ({to_sql(pred)})"
            )


@settings(max_examples=120, deadline=None)
@given(tbl=nan_tables(), pred=preds())
def test_arrow_filter_matches_duckdb(tbl, pred):
    indexed = tbl.append_column("index", pa.array(range(len(tbl))))
    got_arrow = indexed.filter(to_arrow(pred))["index"].to_pylist()
    con = duckdb_table(tbl)
    try:
        got = [r[0] for r in con.execute(
            f"SELECT index FROM t WHERE {to_sql(pred)} ORDER BY index"
        ).fetchall()]
    finally:
        con.close()
    assert got_arrow == got, to_sql(pred)


@settings(max_examples=40, deadline=None)
@given(tbl=nan_tables(), pred=preds(), n_parts=st.integers(1, 4),
       cluster=st.sampled_from([None, "a", "b", "s"]),
       k=st.sampled_from([1, 3, 10]), desc=st.booleans(),
       order=st.sampled_from(["a", "b"]))
def test_nan_lake_soundness_and_topk(tbl, pred, n_parts, cluster, k, desc, order):
    """On an Arrow-written lake with NaN: no false negative, no false
    "fully", and the top-k loop, started from the §5.4 boundary of the
    fully-matching partitions, returns DuckDB's top-k non-NULL values
    (ordered by ``a`` they include NaN, the greatest)."""
    with tempfile.TemporaryDirectory() as d:
        lake = LakeTable.write(
            tbl, d, n_partitions=n_parts,
            cluster_by=None if cluster is None else [cluster],
        )
        con, fully = duckdb.connect(), []
        try:
            for m in lake.manifest.partitions:
                # Evaluated in the select list, so nothing is pushed into
                # the Parquet scan.
                hits, rows = con.execute(
                    f"SELECT coalesce(sum(CASE WHEN {to_sql(pred)} THEN 1 "
                    f"ELSE 0 END), 0), count(*) FROM read_parquet(?)", [m.path]
                ).fetchone()
                c = classify_partition(pred, m.stats)
                if c == NOT_MATCHING:
                    assert hits == 0, f"false negative ({to_sql(pred)})"
                if c == FULLY_MATCHING:
                    assert hits == rows, f"false 'fully' ({to_sql(pred)})"
                    fully.append(m)
        finally:
            con.close()
        res = topk_scan(
            lake.manifest.partitions, lake.read_partition_pandas, order, k,
            pred=pred, desc=desc,
            initial_boundary=init_boundary(fully, order, k, desc=desc),
        )
    con = duckdb_table(tbl)
    try:
        truth = [r[0] for r in con.execute(
            f"SELECT {order} FROM t WHERE {to_sql(pred)} AND {order} IS NOT NULL "
            f"ORDER BY {order} {'DESC' if desc else 'ASC'} LIMIT {k}"
        ).fetchall()]
    finally:
        con.close()
    got = sorted(res.top_values, key=spark_order)
    assert list(map(spark_order, got)) == sorted(map(spark_order, truth)), to_sql(pred)


@settings(max_examples=80, deadline=None)
@given(pdf=frames(), pred=preds())
def test_invert_mask_is_complement_of_non_null(pdf, pred):
    """invert(p) TRUE-rows and p TRUE-rows are disjoint; their union is
    all rows where p is not NULL."""
    from repro.core.expr import invert
    pdf = pdf.reset_index(drop=True)
    m = set(arrow_filter(pdf, pred).index)
    mi = set(arrow_filter(pdf, invert(pred)).index)
    assert not m & mi
