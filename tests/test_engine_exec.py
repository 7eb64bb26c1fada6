"""End-to-end operator tests: pruned plans must produce the same results
as unpruned plans — checked against the DuckDB oracle over full data, or
against Spark's native plan over every partition.  The executed plan
must also read exactly the files the pruning decision kept."""
import datetime as dt
import os
import uuid

import pyarrow as pa
import pytest
from pyspark.sql import functions as F

from repro.core import query as q
from repro.core.expr import and_, between, col, like, to_spark
from repro.core.flow import run_pruning_flow
from repro.engine.exec_ops import execute, filtered_scan, pruned_hash_join, topk_execute
from repro.lake import LakeTable
from repro.oracle import assert_equivalent
from repro.workload.tables import build_events

from .helpers import lake_pandas


@pytest.fixture(scope="module")
def events(prod_lake):
    return prod_lake["events"]


@pytest.fixture(scope="module")
def events_pdf(events):
    return lake_pandas(events)


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


def native_join(spark, probe, build, probe_key, build_key, build_pred):
    """The unpruned equi-join on Spark's own reads of both directories."""
    p = spark.read.parquet(str(probe.path / "data"))
    b = spark.read.parquet(str(build.path / "data"))
    if build_pred is not None:
        b = b.filter(to_spark(build_pred))
    return p.join(b, on=p[probe_key] == b[build_key], how="inner")


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
            spark, events, incidents, "event_id", "event_id", col("severity") >= 3
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
            events=lake_pandas(events),
            incidents=lake_pandas(incidents),
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
            spark, events, users, "user_id", "user_id",
            between(col("user_id"), 100, 160),
        )
        assert joined.count() == unpruned.count()

    def test_unpruned_self_join_matches_native(self, spark, prod_lake):
        """Nothing is pruned on either side, so both come from the one
        cached relation of ``tiny``."""
        tiny = prod_lake["tiny"]
        joined, stats = pruned_hash_join(
            spark, tiny, tiny, probe_key="status_id", build_key="status_id"
        )
        n = tiny.manifest.n_partitions
        assert stats == {"probe_before": n, "probe_after": n, "build_partitions": n}
        native = native_join(spark, tiny, tiny, "status_id", "status_id", None)
        got, want = joined.collect(), native.collect()
        assert len(got) == tiny.manifest.total_rows
        assert sorted(map(tuple, got)) == sorted(map(tuple, want))

    def test_self_join_on_two_columns_matches_native(self, spark, tmp_path):
        """Scans of one cached relation must not share column ids, or
        Spark rejects ``left[a] == right[b]`` as an ambiguous self-join.
        ``a`` = ``b`` prunes the probe side to ``a`` < 16; ``b`` = ``a``
        prunes nothing, so both sides are the whole relation."""
        t = LakeTable.write(
            pa.table({
                "a": pa.array(range(64), pa.int64()),
                "b": pa.array([i % 8 for i in range(64)], pa.int64()),
            }),
            tmp_path / "t", n_partitions=4, cluster_by=["a"],
        )
        for probe_key, build_key, probe_after in (("a", "b", 1), ("b", "a", 4)):
            joined, stats = pruned_hash_join(
                spark, t, t, probe_key=probe_key, build_key=build_key
            )
            assert stats["probe_after"] == probe_after
            native = native_join(spark, t, t, probe_key, build_key, None)
            got, want = joined.collect(), native.collect()
            assert len(got) == 64
            assert sorted(map(tuple, got)) == sorted(map(tuple, want))

    def test_decision_starts_no_spark_job(self, spark, prod_lake):
        """The join summary comes from worker reads, not a Spark job; the
        first job is the collect."""
        before, after = jobs_before_and_after_collect(
            spark,
            lambda: pruned_hash_join(
                spark, prod_lake["events"], prod_lake["incidents"],
                probe_key="event_id", build_key="event_id",
                build_pred=col("severity") >= 3,
            )[0],
        )
        assert before == []
        assert after, "the collect must run under the job group"

    def test_unpruned_wide_scan_starts_no_spark_job(self, spark, tmp_path):
        """Spark lists more than 32 explicit paths with a job; the table's
        one relation lists its directory on the driver.  The table is
        new, so its relation is created inside the job group."""
        events = build_events(tmp_path / "events")
        assert events.manifest.n_partitions > 32
        before, after = jobs_before_and_after_collect(
            spark, lambda: filtered_scan(spark, events, None)[0]
        )
        assert before == []
        assert after, "the collect must run under the job group"


def jobs_before_and_after_collect(spark, build):
    """Spark job ids started by ``build()`` (which returns a DataFrame),
    and by ``build()`` plus collecting its DataFrame."""
    sc = spark.sparkContext
    group = f"decision-before-collect-{uuid.uuid4()}"
    sc.setJobGroup(group, "DataFrame built, not yet collected")
    try:
        df = build()
        before = list(sc.statusTracker().getJobIdsForGroup(group))
        df.collect()
        after = list(sc.statusTracker().getJobIdsForGroup(group))
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    return before, after


def executed_scans(df):
    """(table data directory, numFiles, filesSize, DataFilters) of every
    file scan in ``df``'s executed plan, into adaptive query stages (a
    reused exchange scans nothing again)."""
    out, todo = [], [df._jdf.queryExecution().executedPlan()]
    while todo:
        node = todo.pop()
        kind = node.getClass().getSimpleName()
        if kind == "FileSourceScanExec":
            m = node.metrics()
            out.append((
                node.relation().location().rootPaths().head().toUri().getPath(),
                m.apply("numFiles").value(),
                m.apply("filesSize").value(),
                node.metadata().apply("DataFilters"),
            ))
        elif kind == "AdaptiveSparkPlanExec":
            todo.append(node.executedPlan())
        elif kind.endswith("QueryStageExec"):
            todo.append(node.plan())
        it = node.children().iterator()
        while it.hasNext():
            todo.append(it.next())
    return sorted(out)


def test_executed_scans_read_exactly_the_decision(spark, prod_lake):
    """After the collect, each file scan Spark ran opened exactly the
    files of the flow's scan set for that table, and it filters on
    ``_metadata.file_name`` only when the flow pruned that table."""
    tables = {n: prod_lake[n] for n in ("events", "incidents")}
    specs = {
        "pruned filter": q.QuerySpec(
            qtype=q.SELECT, table="events", pred=col("ts") >= dt.date(2025, 1, 1)
        ),
        "top-k": q.QuerySpec(
            qtype=q.TOPK, table="events", k=10, order_col="ts", desc=True
        ),
        "join": q.QuerySpec(
            qtype=q.SELECT, table="events",
            join=q.JoinSpec("incidents", "event_id", "event_id", col("severity") >= 3),
        ),
    }
    pruned = set()
    for case, spec in specs.items():
        res = run_pruning_flow(spec, tables)
        df = execute(spark, tables, res)
        df.collect()
        decided = [(spec.table, res.final_main_scan)]
        if spec.join is not None:
            decided.append((spec.join.build_table, res.final_build_scan))
        want = sorted(
            (
                str(tables[name].path / "data"),
                len(metas),
                sum(os.path.getsize(m.path) for m in metas),
                len(metas) < tables[name].manifest.n_partitions,
            )
            for name, metas in decided
        )
        got = [
            (path.rstrip("/"), n, size, "file_name" in filters)
            for path, n, size, filters in executed_scans(df)
        ]
        assert got == want, case
        pruned |= {w[3] for w in want}
    assert pruned == {True, False}, "a pruned and an unpruned scan were checked"
