"""Tests for scan-set filter pruning (§3) and partition classification."""
import datetime as dt
import math

import pyarrow as pa
from pyspark.sql import functions as F

from repro.core.expr import and_, col, like, not_, to_spark
from repro.core.filter_pruning import (
    FULLY_MATCHING,
    NOT_MATCHING,
    PARTIALLY_MATCHING,
    classify_partition,
    prune_scan_set,
)
from repro.lake import LakeTable
from .helpers import meta, ps


def fig5_partitions():
    """The four micro-partitions of Fig. 5 (metadata as printed)."""
    return [
        meta(1, 3, species=("Deer", "Squirrel"), s=(40, 170)),
        meta(2, 3, species=("Alpine Ibex", "Duck"), s=(23, 100)),
        meta(3, 4, species=("Alpine Chamois", "Alpine Marmot"), s=(58, 97)),
        meta(4, 3, species=("Alpine Ibex", "Squirrel"), s=(15, 60)),
    ]


FIG5_PRED = and_(like(col("species"), "Alpine%"), col("s") >= 50)


class TestFig5:
    """§4.1/§4.2 worked example: partition 1 pruned, 3 fully-matching."""

    def test_partition1_pruned(self):
        parts = fig5_partitions()
        assert classify_partition(FIG5_PRED, parts[0].stats) == NOT_MATCHING

    def test_partition3_fully_matching(self):
        parts = fig5_partitions()
        assert classify_partition(FIG5_PRED, parts[2].stats) == FULLY_MATCHING

    def test_partitions_2_and_4_partial(self):
        parts = fig5_partitions()
        # Partition 2 metadata spans Alpine..Duck -> may contain matches.
        assert (
            classify_partition(FIG5_PRED, parts[1].stats)
            == PARTIALLY_MATCHING
        )
        assert (
            classify_partition(FIG5_PRED, parts[3].stats)
            == PARTIALLY_MATCHING
        )

    def test_scan_set(self):
        r = prune_scan_set(fig5_partitions(), FIG5_PRED)
        assert [p.pid for p in r.pruned] == [1]
        assert [p.pid for p in r.retained] == [2, 3, 4]
        assert [p.pid for p in r.fully_matching] == [3]
        assert r.n_total == 4


class TestPruneScanSet:
    def test_no_predicate_keeps_all_as_fully(self):
        parts = [meta(i, 10, x=(i * 10, i * 10 + 9)) for i in range(5)]
        r = prune_scan_set(parts, None)
        assert len(r.retained) == 5
        assert len(r.fully_matching) == 5
        assert r.pruned == []

    def test_range_pruning(self):
        parts = [meta(i, 10, x=(i * 10, i * 10 + 9)) for i in range(10)]
        r = prune_scan_set(parts, col("x") >= 75)
        assert [p.pid for p in r.retained] == [7, 8, 9]
        # Partitions 8 and 9 lie entirely >= 75.
        assert [p.pid for p in r.fully_matching] == [8, 9]
        assert len(r.pruned) == 7

    def test_empty_partitions_always_pruned(self):
        parts = [meta(0, 0, x=(None, None, 0)), meta(1, 5, x=(0, 9))]
        r = prune_scan_set(parts, None)
        assert [p.pid for p in r.retained] == [1]

    def test_empty_scan_set(self):
        r = prune_scan_set([], col("x") > 1)
        assert r.n_total == 0 and r.pruned == r.retained == []

    def test_whole_scan_set_eliminated(self):
        # §3.3: filter pruning can remove the whole scan set (sub-tree
        # elimination opportunity).
        parts = [meta(i, 10, x=(0, 50)) for i in range(4)]
        r = prune_scan_set(parts, col("x") > 99)
        assert not r.retained and len(r.pruned) == 4

    def test_wide_minmax_prunes_nothing(self):
        # §3.3's second failure mode: poorly distributed data.
        parts = [meta(i, 10, x=(0, 1000)) for i in range(4)]
        r = prune_scan_set(parts, col("x") > 500)
        assert len(r.retained) == 4 and r.pruned == []

    def test_date_clustered_pruning(self):
        d0 = dt.date(2024, 1, 1)
        parts = [
            meta(
                i,
                100,
                ts=(d0 + dt.timedelta(days=10 * i), d0 + dt.timedelta(days=10 * i + 9)),
            )
            for i in range(10)
        ]
        r = prune_scan_set(parts, col("ts") >= d0 + dt.timedelta(days=85))
        assert [p.pid for p in r.retained] == [8, 9]
        assert [p.pid for p in r.fully_matching] == [9]

    def test_classifications_recorded(self):
        parts = fig5_partitions()
        r = prune_scan_set(parts, FIG5_PRED)
        assert 1 in {p.pid for p in r.pruned}
        assert 3 in {p.pid for p in r.fully_matching}


class TestSparkNaNOrder:
    """Spark orders NaN above every double, so ``NaN > 5`` is TRUE.  The
    writer records Spark's ``max`` — NaN — for a partition holding one;
    that bound must not prune rows Spark would return."""

    def nan_table(self, tmp_path):
        x = [float(i) for i in range(8)] + [math.nan]
        arrow = pa.table({"k": pa.array(range(9), pa.int64()), "x": x})
        return LakeTable.write(arrow, tmp_path / "t", n_partitions=3, cluster_by=["k"])

    def test_nan_max_partition_is_kept(self, spark, tmp_path):
        t = self.nan_table(tmp_path)
        last = t.manifest.partitions[2].stats.col("x")
        assert last.min == 6.0 and math.isnan(last.max)
        pred = col("x") > 5
        pr = prune_scan_set(t.manifest.partitions, pred)
        assert [p.pid for p in pr.retained] == [2]
        assert [p.pid for p in pr.fully_matching] == [2]
        negated = prune_scan_set(t.manifest.partitions, not_(pred))
        assert [p.pid for p in negated.retained] == [0, 1]
        # Spark's native plan over every file: the TRUE rows all sit in
        # files the metadata kept.
        per_file = dict(
            spark.read.parquet(str(t.path / "data")).filter(to_spark(pred))
            .groupBy(F.col("_metadata.file_name")).count().collect()
        )
        assert per_file == {"part-00002.parquet": 3}

    def test_all_nan_partition_is_unbounded(self):
        p = meta(0, 2, x=(math.nan, math.nan))
        assert classify_partition(col("x") > 5, p.stats) != NOT_MATCHING
