"""Tests for the TPC-H-lite substrate and §8.3 query set."""
import datetime as dt
import statistics

import pytest

from repro.core.expr import to_spark
from repro.core.flow import run_pruning_flow
from repro.oracle import assert_equivalent
from repro.workload.tpch import tpch_queries

from .helpers import lake_pandas, scan_df


@pytest.fixture(scope="module")
def queries():
    return dict(tpch_queries())


class TestLakeConstruction:
    def test_tables_present(self, tpch_lake):
        assert set(tpch_lake) == {"lineitem", "orders", "part", "customer"}

    def test_lineitem_clustered_by_shipdate(self, tpch_lake):
        parts = sorted(
            tpch_lake["lineitem"].manifest.partitions,
            key=lambda p: p.stats.col("l_shipdate").min,
        )
        overlaps = sum(
            1
            for a, b in zip(parts, parts[1:])
            if a.stats.col("l_shipdate").max > b.stats.col("l_shipdate").min
        )
        assert overlaps == 0, "range clustering must give disjoint ranges"

    def test_row_counts(self, tpch_lake):
        assert tpch_lake["lineitem"].manifest.total_rows == 60_000
        assert tpch_lake["orders"].manifest.total_rows == 15_000

    def test_shipdate_is_date_typed(self, tpch_lake):
        cs = tpch_lake["lineitem"].manifest.partitions[0].stats.col(
            "l_shipdate"
        )
        assert isinstance(cs.min, dt.date)


class TestQuerySet:
    def test_query_count(self, queries):
        assert len(queries) == 22

    def test_all_run_through_flow(self, tpch_lake, queries):
        for name, spec in queries.items():
            r = run_pruning_flow(spec, tpch_lake)
            assert 0.0 <= r.overall_ratio <= 1.0, name

    def test_q6_prunes_well(self, tpch_lake, queries):
        # One-year window on the clustering column: ~85 % pruned.
        r = run_pruning_flow(queries["q6"], tpch_lake)
        assert r.overall_ratio > 0.6

    def test_q1_prunes_nothing(self, tpch_lake, queries):
        # 98 % selectivity leaves nothing to prune.
        r = run_pruning_flow(queries["q1"], tpch_lake)
        assert r.overall_ratio < 0.1

    def test_q14_most_selective(self, tpch_lake, queries):
        r14 = run_pruning_flow(queries["q14"], tpch_lake)
        r1 = run_pruning_flow(queries["q1"], tpch_lake)
        assert r14.overall_ratio > r1.overall_ratio

    def test_join_pruning_underrepresented(self, tpch_lake, queries):
        """§8.3: random orderkey/partkey layouts defeat join pruning."""
        r = run_pruning_flow(queries["q3"], tpch_lake)
        assert not r.techniques["join"].applied

    def test_workload_average_far_below_production(self, tpch_lake, queries):
        ratios = [
            run_pruning_flow(s, tpch_lake).overall_ratio
            for s in queries.values()
        ]
        avg = statistics.mean(ratios)
        # Paper: 28.7 % average — loosely banded here.
        assert 0.05 < avg < 0.6

    def test_median_low(self, tpch_lake, queries):
        ratios = [
            run_pruning_flow(s, tpch_lake).overall_ratio
            for s in queries.values()
        ]
        assert statistics.median(ratios) < 0.35


class TestCorrectness:
    """Pruned scans produce exactly the rows the predicates select."""

    def test_q6_oracle(self, spark, tpch_lake, queries):
        spec = queries["q6"]
        r = run_pruning_flow(spec, tpch_lake)
        li = tpch_lake["lineitem"]
        df = (
            scan_df(spark, li, r.final_main_scan)
            .filter(to_spark(spec.pred))
            .selectExpr(
                "sum(l_extendedprice * l_discount) AS revenue"
            )
        )
        assert_equivalent(
            df,
            "SELECT sum(l_extendedprice * l_discount) AS revenue "
            "FROM lineitem WHERE l_shipdate >= TIMESTAMP '1994-01-01' "
            "AND l_shipdate < TIMESTAMP '1995-01-01' "
            "AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
            lineitem=lake_pandas(li),
        )

    def test_q14_oracle(self, spark, tpch_lake, queries):
        spec = queries["q14"]
        r = run_pruning_flow(spec, tpch_lake)
        li = tpch_lake["lineitem"]
        df = (
            scan_df(spark, li, r.final_main_scan)
            .filter(to_spark(spec.pred))
            .selectExpr("count(*) AS n", "sum(l_extendedprice) AS s")
        )
        assert_equivalent(
            df,
            "SELECT count(*) AS n, sum(l_extendedprice) AS s FROM lineitem "
            "WHERE l_shipdate >= TIMESTAMP '1995-09-01' "
            "AND l_shipdate < TIMESTAMP '1995-10-01'",
            lineitem=lake_pandas(li),
        )

    def test_q19_join_oracle(self, spark, tpch_lake, queries):
        spec = queries["q19"]
        r = run_pruning_flow(spec, tpch_lake)
        li, part = tpch_lake["lineitem"], tpch_lake["part"]
        probe = scan_df(spark, li, r.final_main_scan).filter(to_spark(spec.pred))
        build = scan_df(spark, part).filter(to_spark(spec.join.build_pred))
        df = probe.join(
            build, probe["l_partkey"] == build["p_partkey"]
        ).selectExpr("count(*) AS n")
        assert_equivalent(
            df,
            "SELECT count(*) AS n FROM lineitem l JOIN part p "
            "ON l.l_partkey = p.p_partkey "
            "WHERE l.l_quantity BETWEEN 1 AND 11 "
            "AND p.p_brand = 'Brand#12' AND p.p_size BETWEEN 1 AND 5",
            lineitem=lake_pandas(li),
            part=lake_pandas(part),
        )
