"""Tests for the ``lakescan`` Python DataSource V2 (Catalyst pushdown)."""
import datetime as dt

import pytest
from pyspark.sql.datasource import (
    EqualTo,
    GreaterThan,
    GreaterThanOrEqual,
    In,
    IsNotNull,
    LessThan,
    Not,
    StringStartsWith,
)

from repro.core.expr import to_sql
from repro.engine.datasource import (
    LakeScanDataSource,
    LakeScanReader,
    filters_to_pred,
)

from .helpers import scan_df


class TestFilterTranslation:
    def test_equal_to(self):
        assert to_sql(filters_to_pred([EqualTo(("x",), 5)])) == "(x = 5)"

    def test_comparisons(self):
        p = filters_to_pred(
            [GreaterThan(("x",), 1), LessThan(("y",), 9.5)]
        )
        assert to_sql(p) == "((x > 1) AND (y < 9.5))"

    def test_gte(self):
        assert to_sql(filters_to_pred([GreaterThanOrEqual(("x",), 0)])) == "(x >= 0)"

    def test_in(self):
        p = filters_to_pred([In(("s",), ("a", "b"))])
        assert to_sql(p) == "(s IN ('a', 'b'))"

    def test_startswith(self):
        p = filters_to_pred([StringStartsWith(("s",), "Alp")])
        assert to_sql(p) == "(s LIKE 'Alp%')"

    def test_not(self):
        p = filters_to_pred([Not(EqualTo(("x",), 3))])
        assert to_sql(p) == "(NOT (x = 3))"

    def test_isnotnull(self):
        p = filters_to_pred([IsNotNull(("x",))])
        assert to_sql(p) == "(NOT (x IS NULL))"

    def test_nested_attribute_skipped(self):
        assert filters_to_pred([EqualTo(("a", "b"), 5)]) is None

    def test_empty(self):
        assert filters_to_pred([]) is None


class TestReaderPruning:
    """Drive the reader directly (the same objects Spark instantiates)."""

    @pytest.fixture()
    def reader(self, prod_lake):
        events = prod_lake["events"]
        return LakeScanReader(
            events.schema, {"path": str(events.path)}
        )

    def test_no_filters_all_partitions(self, reader, prod_lake):
        parts = reader.partitions()
        assert len(parts) == prod_lake["events"].manifest.n_partitions

    def test_pushdown_prunes_partitions(self, reader, prod_lake):
        unsupported = list(
            reader.pushFilters([GreaterThanOrEqual(("ts",), dt.date(2025, 1, 15))])
        )
        assert len(unsupported) == 1, "all filters handed back to Spark"
        parts = reader.partitions()
        assert len(parts) < prod_lake["events"].manifest.n_partitions

    def test_impossible_filter_empty_scan(self, reader):
        list(reader.pushFilters([GreaterThan(("amount",), 10_000.0)]))
        assert reader.partitions() == []

    def test_read_yields_batches(self, reader):
        part = reader.partitions()[0]
        batches = list(reader.read(part))
        assert sum(b.num_rows for b in batches) > 0


@pytest.fixture(scope="module")
def registered(spark):
    spark.dataSource.register(LakeScanDataSource)
    try:
        spark.conf.set("spark.sql.python.filterPushdown.enabled", "true")
    except Exception:
        pass
    return spark


class TestInSpark:
    def test_full_read_matches_parquet(self, registered, prod_lake):
        events = prod_lake["events"]
        df = (
            registered.read.format("lakescan")
            .option("path", str(events.path))
            .load()
        )
        assert df.count() == events.manifest.total_rows

    def test_filtered_read_correct(self, registered, prod_lake):
        events = prod_lake["events"]
        df = (
            registered.read.format("lakescan")
            .option("path", str(events.path))
            .load()
            .filter("ts >= DATE '2025-01-15'")
        )
        expected = (
            scan_df(registered, events).filter("ts >= DATE '2025-01-15'").count()
        )
        assert df.count() == expected

    def test_complex_filter_correct(self, registered, prod_lake):
        events = prod_lake["events"]
        cond = "ts >= DATE '2024-11-01' AND etype = 'purchase'"
        df = (
            registered.read.format("lakescan")
            .option("path", str(events.path))
            .load()
            .filter(cond)
        )
        assert df.count() == scan_df(registered, events).filter(cond).count()

    def test_schema_from_manifest(self, registered, prod_lake):
        events = prod_lake["events"]
        df = (
            registered.read.format("lakescan")
            .option("path", str(events.path))
            .load()
        )
        assert set(df.columns) == set(
            f.name for f in events.schema.fields
        )
