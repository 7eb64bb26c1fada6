"""Tests for the lake substrate: writer, manifest, reader round-trips."""
import dataclasses
import datetime as dt
import errno
import io
import json
import math
import os
from decimal import Decimal

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from pyspark.sql import functions as F

from repro.core.expr import and_, col, like, not_, to_spark
from repro.core.stats import ColStats
from repro.lake import LakeTable, Manifest
from repro.lake.manifest import PartitionMeta
from repro.core.stats import PartitionStats

from .helpers import lake_pandas


@pytest.fixture(scope="module")
def small_table(spark, tmp_path_factory):
    pdf = pd.DataFrame(
        {
            "id": range(1, 1001),
            "val": [i * 0.5 for i in range(1000)],
            "name": [f"row{i:04d}" for i in range(1000)],
            "d": pd.to_datetime("2024-01-01")
            + pd.to_timedelta([i % 100 for i in range(1000)], unit="D"),
        }
    )
    df = spark.createDataFrame(pdf).withColumn("d", F.to_date("d"))
    path = tmp_path_factory.mktemp("lake") / "t"
    return LakeTable.write(df.toArrow(), path, n_partitions=8, cluster_by=["id"])


class TestWriter:
    def test_partition_count(self, small_table):
        assert small_table.manifest.n_partitions == 8

    def test_total_rows_preserved(self, small_table):
        assert small_table.manifest.total_rows == 1000

    def test_clustered_ranges_disjoint(self, small_table):
        parts = sorted(
            small_table.manifest.partitions,
            key=lambda p: p.stats.col("id").min,
        )
        for a, b in zip(parts, parts[1:]):
            assert a.stats.col("id").max < b.stats.col("id").min

    def test_stats_cover_all_columns(self, small_table):
        for p in small_table.manifest.partitions:
            assert set(p.stats.columns) == {"id", "val", "name", "d"}

    def test_date_stats_are_dates(self, small_table):
        cs = small_table.manifest.partitions[0].stats.col("d")
        assert isinstance(cs.min, dt.date)

    def test_column_types_recorded(self, small_table):
        ct = small_table.manifest.column_types
        assert ct == {"id": "int", "val": "float", "name": "str", "d": "date"}

    def test_random_layout_wide_ranges(self, spark, tmp_path):
        pdf = pd.DataFrame({"x": range(1000)})
        t = LakeTable.write(
            spark.createDataFrame(pdf).toArrow(), tmp_path / "r",
            n_partitions=4, cluster_by=None,
        )
        # Every random partition should span most of the domain.
        for p in t.manifest.partitions:
            cs = p.stats.col("x")
            assert cs.max - cs.min > 500

    def test_null_counts(self, spark, tmp_path):
        pdf = pd.DataFrame({"x": [1.0, None, 3.0, None, 5.0] * 20})
        t = LakeTable.write(
            spark.createDataFrame(pdf).toArrow(), tmp_path / "n", n_partitions=2
        )
        total_nulls = sum(
            p.stats.col("x").null_count for p in t.manifest.partitions
        )
        assert total_nulls == 40


class TestLayout:
    def test_equal_keys_share_a_partition(self, tmp_path):
        # Spark's order is [None, 1×5, 2×2, 3×2, NaN×2]; the cuts at rows
        # 3, 6 and 9 move forward to the next key change (6, 6 and 10).
        nan = math.nan
        k = pa.array([3.0, 1, None, nan, 2, 1, 3, 1, 2, nan, 1, 1])
        t = LakeTable.write(
            pa.table({"k": k}), tmp_path / "t", n_partitions=4, cluster_by=["k"]
        )
        got = [
            (_stat_key(s.min), _stat_key(s.max), s.null_count)
            for s in (p.stats.col("k") for p in t.manifest.partitions)
        ]
        assert got == [(1, 1, 1), (2, 3, 0), ("NaN", "NaN", 0)]

    def test_fewer_rows_than_partitions(self, tmp_path):
        t = LakeTable.write(pa.table({"x": [1, 2, 3]}), tmp_path / "t", n_partitions=8)
        assert [p.row_count for p in t.manifest.partitions] == [1, 1, 1]

    def test_random_layout_is_seeded(self, tmp_path):
        tbl = pa.table({"x": list(range(1000))})

        def first_rows(seed, name):
            t = LakeTable.write(tbl, tmp_path / name, n_partitions=4, seed=seed)
            return pq.read_table(t.manifest.partitions[0].path)["x"].to_pylist()

        assert first_rows(1, "a") == first_rows(1, "b") != first_rows(2, "c")

    def test_rewrite_replaces_data(self, tmp_path):
        tbl = pa.table({"x": list(range(100))})
        LakeTable.write(tbl, tmp_path / "t", n_partitions=8, cluster_by=["x"])
        t = LakeTable.write(tbl, tmp_path / "t", n_partitions=2, cluster_by=["x"])
        files = ["part-00000.parquet", "part-00001.parquet"]
        assert sorted(os.listdir(tmp_path / "t" / "data")) == files
        assert [os.path.basename(p.path) for p in t.manifest.partitions] == files

    def test_dictionary_only_where_it_pays(self, tmp_path):
        # As in Spark-written files: near-unique columns stay plain.
        n = 1000
        tbl = pa.table(
            {
                "uid": range(n),
                "cat": ["a", "b", "c", "d"] * (n // 4),
                "v": [i / 7 for i in range(n)],
            }
        )
        t = LakeTable.write(tbl, tmp_path / "t", n_partitions=1)
        rg = pq.ParquetFile(t.manifest.partitions[0].path).metadata.row_group(0)
        dictionary = {
            rg.column(i).path_in_schema
            for i in range(rg.num_columns)
            if any("DICTIONARY" in e for e in rg.column(i).encodings)
        }
        assert dictionary == {"cat"}

    def test_files_carry_no_pandas_metadata(self, tmp_path):
        tbl = pa.Table.from_pandas(pd.DataFrame({"x": range(10)}))
        assert b"pandas" in tbl.schema.metadata
        t = LakeTable.write(tbl, tmp_path / "t", n_partitions=2)
        for p in t.manifest.partitions:
            assert b"pandas" not in (pq.read_schema(p.path).metadata or {})


def _stat_key(v):
    """Stats value comparable with ``==`` (NaN != NaN)."""
    return "NaN" if isinstance(v, float) and math.isnan(v) else v


def _manifest_stats(t):
    return {
        os.path.basename(p.path): (
            p.row_count,
            {
                c: (_stat_key(s.min), _stat_key(s.max), s.null_count)
                for c, s in p.stats.columns.items()
            },
        )
        for p in t.manifest.partitions
    }


def _spark_stats(spark, t):
    """Reference: Spark's min/max/count aggregation over each written file."""
    df = spark.read.schema(t.schema).parquet(str(t.path / "data"))
    aggs = [F.count(F.lit(1)).alias("_rows")]
    for c in df.columns:
        aggs += [
            F.min(c).alias(f"min__{c}"),
            F.max(c).alias(f"max__{c}"),
            F.sum(F.col(c).isNull().cast("long")).alias(f"nulls__{c}"),
        ]
    rows = df.groupBy(F.col("_metadata.file_name").alias("_file")).agg(*aggs).collect()
    return {
        r["_file"]: (
            r["_rows"],
            {
                c: (_stat_key(r[f"min__{c}"]), _stat_key(r[f"max__{c}"]), r[f"nulls__{c}"])
                for c in df.columns
            },
        )
        for r in rows
    }


def _assert_spark_equivalent(spark, t):
    assert _manifest_stats(t) == _spark_stats(spark, t)
    df = spark.read.schema(t.schema).parquet(str(t.path / "data"))
    assert df.count() == t.manifest.total_rows


class TestSparkEquivalence:
    """The manifest the writer computes equals Spark's own aggregation over
    the written files, and Spark reads every row with the stored schema."""

    @pytest.mark.parametrize("lake", ["prod_lake", "tpch_lake"])
    def test_workload_lakes(self, spark, request, lake):
        for t in request.getfixturevalue(lake).values():
            _assert_spark_equivalent(spark, t)

    def test_edge_table(self, spark, tmp_path):
        nan = math.nan
        ts = [dt.datetime(2024, 3, 10, i, 30) if i % 5 else None for i in range(12)]
        table = pa.table(
            {
                "k": pa.array(range(12), pa.int64()),
                # partitions: NaN+null, all non-null NaN, all null, plain
                "x": [1.0, nan, None, nan, nan, None, None, None, None, 2.0, -1.0, 5.0],
                "none": pa.array([None] * 12, pa.float64()),
                "s": ["b", None, "a", "é", "z", "", None, None, "x", "B", "ab", "a"],
                "d": pa.array(
                    [dt.date(2024, 1, i + 1) if i % 4 else None for i in range(12)],
                    pa.date32(),
                ),
                "b": [True, False, None, True, True, None, False, False, None, None, None, None],
                "dec": pa.array(
                    [Decimal(f"{i}.25") if i % 3 else None for i in range(12)],
                    pa.decimal128(10, 2),
                ),
                "t": pa.array(ts, pa.timestamp("us", tz="UTC")),
                "t_naive": pa.array(ts, pa.timestamp("us")),
            }
        )
        t = LakeTable.write(table, tmp_path / "edge", n_partitions=4, cluster_by=["k"])
        assert t.manifest.n_partitions == 4
        x = [p.stats.col("x") for p in t.manifest.partitions]
        assert x[0].min == 1.0 and math.isnan(x[0].max)
        assert math.isnan(x[1].min) and math.isnan(x[1].max)
        assert x[2].all_null and x[2].null_count == 3
        assert t.manifest.partitions[0].stats.col("t").min.tzinfo is None
        _assert_spark_equivalent(spark, t)


class TestManifestPersistence:
    def test_round_trip(self, small_table):
        loaded = LakeTable.load(small_table.path)
        assert loaded.manifest.to_json() == small_table.manifest.to_json()

    def test_decimal_stats_round_trip(self, tmp_path):
        p = pa.array([Decimal("1.50"), None, Decimal("-2.25")], pa.decimal128(6, 2))
        t = LakeTable.write(pa.table({"p": p}), tmp_path / "d", n_partitions=1)
        cs = LakeTable.load(t.path).manifest.partitions[0].stats.col("p")
        assert (cs.min, cs.max, cs.null_count) == (Decimal("-2.25"), Decimal("1.50"), 1)
        assert isinstance(cs.min, Decimal)

    def test_failed_save_keeps_previous_manifest(self, small_table, tmp_path, monkeypatch):
        target = tmp_path / "manifest.json"
        small_table.manifest.save(target)
        before = target.read_text()
        real_open = io.open

        class DiskFull:
            """A file that stores half of its first write, then fails."""

            def __init__(self, *a, **kw):
                self._f = real_open(*a, **kw)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._f.close()

            def write(self, s):
                self._f.write(s[: len(s) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(io, "open", DiskFull)
        monkeypatch.setattr("builtins.open", DiskFull)
        with pytest.raises(OSError):
            dataclasses.replace(small_table.manifest, name="other").save(target)
        monkeypatch.undo()
        assert target.read_text() == before
        assert os.listdir(tmp_path) == ["manifest.json"]

    def test_json_dates_tagged(self, small_table):
        j = json.dumps(small_table.manifest.to_json())
        assert "$date" in j

    def test_manifest_from_json_types(self, small_table):
        m = Manifest.from_json(small_table.manifest.to_json())
        cs = m.partitions[0].stats.col("d")
        assert isinstance(cs.min, dt.date)


class TestReader:
    def test_full_scan_row_count(self, spark, small_table):
        assert small_table.full(spark).count() == 1000

    def test_scan_subset(self, spark, small_table):
        parts = small_table.manifest.partitions[:2]
        n = sum(p.row_count for p in parts)
        assert small_table.scan(spark, parts).count() == n

    def test_empty_scan_set(self, spark, small_table):
        df = small_table.scan(spark, [])
        assert df.count() == 0
        assert set(df.columns) == {"id", "val", "name", "d"}
        # the empty file-name filter plans no file scan at all
        assert "FileScan" not in df._jdf.queryExecution().executedPlan().toString()

    def test_relation_cached_per_instance_and_session(self, spark, small_table):
        assert small_table.schema is small_table.schema
        small_table.full(spark)
        relation = small_table._relation
        small_table.scan(spark, small_table.manifest.partitions[:1])
        assert small_table._relation is relation
        reloaded = LakeTable.load(small_table.path)
        reloaded.full(spark)
        assert reloaded._relation is not relation
        other = spark.newSession()
        df = small_table.scan(other, small_table.manifest.partitions[:1])
        assert df.sparkSession is other
        assert df.count() == small_table.manifest.partitions[0].row_count

    def test_rewrite_returns_table_that_scans_new_files(self, spark, tmp_path):
        def ids(lo, hi):
            return pa.table({"a": pa.array(range(lo, hi), pa.int64())})

        old = LakeTable.write(ids(0, 100), tmp_path / "t", n_partitions=4, cluster_by=["a"])
        assert old.full(spark).count() == 100
        new = LakeTable.write(ids(1000, 1030), tmp_path / "t", n_partitions=2, cluster_by=["a"])
        assert new.full(spark).count() == 30
        last = new.scan(spark, new.manifest.partitions[1:]).collect()
        assert sorted(r.a for r in last) == list(range(1015, 1030))

    def test_read_partition_pandas(self, small_table):
        p = small_table.manifest.partitions[0]
        pdf = small_table.read_partition_pandas(p)
        assert len(pdf) == p.row_count
        assert pdf["id"].min() == p.stats.col("id").min
        assert pdf["id"].max() == p.stats.col("id").max

    def test_read_fetches_only_columns_and_rows_asked(self, spark, small_table):
        p = small_table.manifest.partitions[2]
        pred = and_(col("val") > 150.0, like(col("name"), "row03%"))
        got = small_table.read_partition_pandas(p, ["id", "d"], pred)
        want = (
            small_table.scan(spark, [p]).filter(to_spark(pred))
            .select("id", "d").toPandas()
        )
        assert list(got.columns) == ["id", "d"]
        assert 0 < len(got) < p.row_count
        assert sorted(got.itertuples(index=False)) == sorted(
            want.itertuples(index=False)
        )

    def test_read_keeps_nan_rows_parquet_stats_leave_out(self, tmp_path):
        """The file's min/max for ``a`` is [-2, -2]: Arrow leaves NaN
        out.  A filter pushed into the read would take ``a < b`` as
        always TRUE there and skip the row group, but on the NaN row
        ``NOT (a < b)`` is TRUE in Spark's order."""
        t = LakeTable.write(
            pa.table({"a": [-2.0, math.nan], "b": pa.array([82, 94], pa.int64())}),
            tmp_path / "t", n_partitions=1,
        )
        p = t.manifest.partitions[0]
        stats = pq.ParquetFile(p.path).metadata.row_group(0).column(0).statistics
        assert (stats.min, stats.max) == (-2.0, -2.0)
        got = t.read_partition_pandas(p, ["b"], not_(col("a") < col("b")))
        assert got["b"].tolist() == [94]

    def test_read_dates_compare_with_stats(self, small_table):
        p = small_table.manifest.partitions[0]
        d = small_table.read_partition_pandas(p, ["d"])["d"].tolist()
        cs = p.stats.col("d")
        assert all(type(v) is dt.date for v in d)
        assert (min(d), max(d)) == (cs.min, cs.max)

    def test_to_pandas_whole_table(self, small_table):
        pdf = lake_pandas(small_table)
        assert len(pdf) == 1000
        assert sorted(pdf["id"]) == list(range(1, 1001))

    def test_scan_matches_pandas_read(self, spark, small_table):
        p = small_table.manifest.partitions[3]
        via_spark = small_table.scan(spark, [p]).toPandas()
        via_arrow = small_table.read_partition_pandas(p)
        assert sorted(via_spark["id"]) == sorted(via_arrow["id"])


class TestStatsJsonEdgeCases:
    def test_all_null_stats_roundtrip(self):
        m = Manifest(
            name="x", schema_json="{}", column_types={"a": "float"},
            partitions=[
                PartitionMeta(
                    pid=0, path="p",
                    stats=PartitionStats(
                        row_count=5,
                        columns={"a": ColStats(None, None, 5)},
                    ),
                )
            ],
        )
        m2 = Manifest.from_json(m.to_json())
        assert m2.partitions[0].stats.col("a").all_null
