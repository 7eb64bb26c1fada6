"""End-to-end operator tests: pruned plans must produce the same results
as unpruned plans — checked against the DuckDB oracle over full data, or
against Spark's native plan over every partition (``LakeTable.full``)."""
import datetime as dt

import pytest
from pyspark.sql import functions as F

from repro.core.expr import and_, between, col, like, to_spark
from repro.engine.exec_ops import filtered_scan, pruned_hash_join, topk_execute
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def events(prod_lake):
    return prod_lake["events"]


@pytest.fixture(scope="module")
def events_pdf(events):
    return events.to_pandas()


class TestFilteredScan:
    def test_pruned_scan_matches_oracle(self, spark, events, events_pdf):
        pred = col("ts") >= dt.date(2025, 1, 1)
        df, pr = filtered_scan(spark, events, pred)
        assert len(pr.pruned) > 0, "clustered date filter must prune"
        assert_equivalent(
            df.select("event_id", "amount"),
            "SELECT event_id, amount FROM events "
            "WHERE ts >= TIMESTAMP '2025-01-01 00:00:00'",
            events=events_pdf,
        )

    def test_range_pred_matches_oracle(self, spark, events, events_pdf):
        pred = between(
            col("ts"), dt.date(2024, 3, 1), dt.date(2024, 4, 15)
        )
        df, pr = filtered_scan(spark, events, pred)
        assert len(pr.pruned) > 0
        assert_equivalent(
            df.select("event_id"),
            "SELECT event_id FROM events "
            "WHERE ts >= TIMESTAMP '2024-03-01 00:00:00' "
            "AND ts <= TIMESTAMP '2024-04-15 00:00:00'",
            events=events_pdf,
        )

    def test_conjunction_with_unclustered(self, spark, events, events_pdf):
        pred = and_(
            col("ts") >= dt.date(2024, 12, 1),
            col("etype").eq("purchase"),
        )
        df, _ = filtered_scan(spark, events, pred)
        assert_equivalent(
            df.select("event_id"),
            "SELECT event_id FROM events WHERE ts >= TIMESTAMP '2024-12-01 00:00:00' "
            "AND etype = 'purchase'",
            events=events_pdf,
        )

    def test_no_predicate(self, spark, events):
        df, pr = filtered_scan(spark, events, None)
        assert df.count() == events.manifest.total_rows
        assert pr.pruning_ratio == 0.0


class TestTopKExecute:
    @pytest.mark.parametrize("desc", [True, False], ids=["desc", "asc"])
    def test_topk_values_match_oracle(self, spark, events, events_pdf, desc):
        k = 25
        df, tr = topk_execute(
            spark, events, order_col="amount", k=k, desc=desc
        )
        got = sorted(r["amount"] for r in df.select("amount").collect())
        order = "DESC" if desc else "ASC"
        import duckdb

        exp = sorted(
            r[0]
            for r in duckdb.sql(
                f"SELECT amount FROM events_pdf ORDER BY amount {order} "
                f"LIMIT {k}"
            ).fetchall()
        )
        assert got == pytest.approx(exp)

    def test_topk_on_clustered_col_prunes(self, spark, events):
        df, tr = topk_execute(spark, events, order_col="ts", k=10)
        assert tr.pruning_ratio > 0.7
        assert df.count() == 10

    def test_topk_with_predicate(self, spark, events, events_pdf):
        pred = col("etype").eq("error")
        df, tr = topk_execute(
            spark, events, order_col="ts", k=15, pred=pred
        )
        import duckdb

        got = sorted(r["ts"] for r in df.select("ts").collect())
        exp = sorted(
            r[0]
            for r in duckdb.sql(
                "SELECT ts FROM events_pdf WHERE etype = 'error' "
                "ORDER BY ts DESC LIMIT 15"
            ).fetchall()
        )
        assert [d.isoformat()[:10] for d in got] == [
            str(d)[:10] for d in exp
        ]

    def test_pruned_equals_unpruned(self, spark, events):
        a, _ = topk_execute(spark, events, order_col="amount", k=30)
        b = (
            events.full(spark)
            .orderBy(F.col("amount").desc_nulls_last()).limit(30)
        )
        va = sorted(r["amount"] for r in a.collect())
        vb = sorted(r["amount"] for r in b.collect())
        assert va == pytest.approx(vb)


def native_join(spark, probe, build, key, build_pred):
    """The unpruned equi-join: every partition on both sides."""
    p, b = probe.full(spark), build.full(spark).filter(to_spark(build_pred))
    return p.join(b, on=p[key] == b[key], how="inner")


class TestPrunedHashJoin:
    def test_correlated_join_prunes_and_matches(self, spark, prod_lake):
        events, incidents = prod_lake["events"], prod_lake["incidents"]
        joined, stats = pruned_hash_join(
            spark, events, incidents,
            probe_key="event_id", build_key="event_id",
            build_pred=col("severity") >= 3,
        )
        assert stats["probe_after"] < stats["probe_before"]
        unpruned = native_join(
            spark, events, incidents, "event_id", col("severity") >= 3
        )
        assert joined.count() == unpruned.count()

    def test_join_matches_oracle(self, spark, prod_lake):
        events, incidents = prod_lake["events"], prod_lake["incidents"]
        joined, _ = pruned_hash_join(
            spark, events, incidents,
            probe_key="event_id", build_key="event_id",
            build_pred=col("severity") >= 4,
        )
        out = joined.select(
            F.col("amount"), F.col("severity")
        )
        assert_equivalent(
            out,
            "SELECT amount, severity FROM events e JOIN incidents i "
            "ON e.event_id = i.event_id WHERE i.severity >= 4",
            events=events.to_pandas(),
            incidents=incidents.to_pandas(),
        )

    def test_empty_build_side(self, spark, prod_lake):
        events, incidents = prod_lake["events"], prod_lake["incidents"]
        joined, stats = pruned_hash_join(
            spark, events, incidents,
            probe_key="event_id", build_key="event_id",
            build_pred=col("severity") >= 99,
        )
        assert stats["probe_after"] == 0
        assert joined.count() == 0

    def test_uncorrelated_join_correct(self, spark, prod_lake):
        events, users = prod_lake["events"], prod_lake["users"]
        joined, stats = pruned_hash_join(
            spark, events, users,
            probe_key="user_id", build_key="user_id",
            build_pred=between(col("user_id"), 100, 160),
        )
        unpruned = native_join(
            spark, events, users, "user_id", between(col("user_id"), 100, 160)
        )
        assert joined.count() == unpruned.count()

    def test_decision_starts_no_spark_job(self, spark, prod_lake):
        """The join summary comes from worker reads, not a Spark job; the
        first job is the collect."""
        sc = spark.sparkContext
        group = "pruned-hash-join-decision"
        sc.setJobGroup(group, "pruned_hash_join before collect")
        try:
            joined, _ = pruned_hash_join(
                spark, prod_lake["events"], prod_lake["incidents"],
                probe_key="event_id", build_key="event_id",
                build_pred=col("severity") >= 3,
            )
            before = list(sc.statusTracker().getJobIdsForGroup(group))
            joined.collect()
            after = list(sc.statusTracker().getJobIdsForGroup(group))
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        assert before == []
        assert after, "the collect must run under the job group"
