"""Integration tests for the combined pruning flow (§7)."""
import datetime as dt
import math

import pyarrow as pa
import pytest

from repro.core import query as q
from repro.core.expr import between, col, not_, to_spark
from repro.core.flow import run_pruning_flow
from repro.core.topk_pruning import PlanOp
from repro.engine.exec_ops import execute
from repro.lake import LakeTable

from .helpers import scan_df


@pytest.fixture(scope="module")
def tables(prod_lake):
    return prod_lake


class TestFilterStage:
    def test_filter_applied_on_clustered_pred(self, tables):
        spec = q.QuerySpec(
            qtype=q.SELECT, table="events",
            pred=col("ts") >= dt.date(2025, 1, 15),
        )
        r = run_pruning_flow(spec, tables)
        assert r.techniques["filter"].eligible
        assert r.techniques["filter"].applied
        assert r.overall_ratio > 0.8

    def test_no_pred_not_eligible(self, tables):
        spec = q.QuerySpec(qtype=q.SELECT, table="events")
        r = run_pruning_flow(spec, tables)
        assert not r.techniques["filter"].eligible
        assert r.overall_ratio == 0.0

    def test_unclustered_pred_eligible_but_not_applied(self, tables):
        spec = q.QuerySpec(
            qtype=q.SELECT, table="blob", pred=col("cat").eq("A")
        )
        r = run_pruning_flow(spec, tables)
        assert r.techniques["filter"].eligible
        assert not r.techniques["filter"].applied


class TestJoinStage:
    def test_correlated_join_prunes_probe(self, tables):
        spec = q.QuerySpec(
            qtype=q.SELECT, table="events",
            join=q.JoinSpec(
                build_table="incidents", build_key="event_id",
                probe_key="event_id",
                build_pred=col("severity") >= 3,
            ),
        )
        r = run_pruning_flow(spec, tables)
        assert r.techniques["join"].eligible
        assert r.techniques["join"].applied
        assert r.techniques["join"].ratio > 0.5

    def test_empty_build_side_prunes_all(self, tables):
        spec = q.QuerySpec(
            qtype=q.SELECT, table="events",
            join=q.JoinSpec(
                build_table="incidents", build_key="event_id",
                probe_key="event_id",
                build_pred=col("severity") >= 999,
            ),
        )
        r = run_pruning_flow(spec, tables)
        assert r.techniques["join"].ratio == 1.0
        assert r.final_main_scan == []

    def test_uncorrelated_join_prunes_nothing(self, tables):
        spec = q.QuerySpec(
            qtype=q.SELECT, table="events",
            join=q.JoinSpec(
                build_table="users", build_key="user_id",
                probe_key="user_id",
                build_pred=between(col("user_id"), 10, 60),
            ),
        )
        r = run_pruning_flow(spec, tables)
        assert r.techniques["join"].eligible
        # events.user_id is uncorrelated with layout: wide ranges remain.
        assert not r.techniques["join"].applied


class TestLimitStage:
    def test_limit_pruning_applies(self, tables):
        spec = q.QuerySpec(
            qtype=q.LIMIT, table="events",
            pred=between(col("ts"), dt.date(2024, 3, 1), dt.date(2024, 6, 1)),
            k=10,
        )
        r = run_pruning_flow(spec, tables)
        assert r.techniques["limit"].eligible
        assert r.techniques["limit"].applied
        assert len(r.final_main_scan) == 1
        assert r.limit_outcome.category == "pruned_to_1"

    def test_limit_unsupported_shape(self, tables):
        spec = q.QuerySpec(
            qtype=q.LIMIT, table="events",
            pred=between(col("ts"), dt.date(2024, 3, 1), dt.date(2024, 6, 1)),
            k=10, limit_shape_supported=False,
        )
        r = run_pruning_flow(spec, tables)
        assert r.limit_outcome.category == "unsupported_shape"
        assert not r.techniques["limit"].applied

    def test_limit_result_correct(self, spark, tables):
        """The pruned scan still yields >= k qualifying rows."""
        pred = between(col("ts"), dt.date(2024, 3, 1), dt.date(2024, 6, 1))
        spec = q.QuerySpec(qtype=q.LIMIT, table="events", pred=pred, k=10)
        r = run_pruning_flow(spec, tables)
        df = scan_df(spark, tables["events"], r.final_main_scan)
        assert df.filter(to_spark(pred)).count() >= 10


class TestTopKStage:
    def test_topk_on_clustered_order_col(self, tables):
        spec = q.QuerySpec(
            qtype=q.TOPK, table="events", k=10, order_col="ts", desc=True,
        )
        r = run_pruning_flow(spec, tables)
        assert r.techniques["topk"].eligible
        assert r.techniques["topk"].applied
        assert r.techniques["topk"].ratio > 0.7

    def test_topk_group_agg_not_eligible(self, tables):
        spec = q.QuerySpec(
            qtype=q.TOPK_GROUP_AGG, table="events", k=5,
            order_col=None, group_cols=("country",),
            agg_fn="sum", agg_col="amount",
            plan_ops=(PlanOp("groupby", group_keys=("country",)),),
        )
        r = run_pruning_flow(spec, tables)
        assert not r.techniques["topk"].eligible

    def test_execute_rejects_group_by_topk(self, tables):
        spec = q.QuerySpec(
            qtype=q.TOPK_GROUP_KEY, table="events", k=5, order_col="country",
            group_cols=("country",),
            plan_ops=(PlanOp("groupby", group_keys=("country",)),),
        )
        r = run_pruning_flow(spec, tables)
        with pytest.raises(ValueError):
            execute(None, tables, r)

    def test_topk_after_filter(self, tables):
        spec = q.QuerySpec(
            qtype=q.TOPK, table="events", k=5, order_col="ts",
            pred=col("etype").eq("click"),
            plan_ops=(PlanOp("filter"),),
        )
        r = run_pruning_flow(spec, tables)
        assert r.techniques["topk"].eligible
        assert r.overall_ratio > 0.5


class TestCombined:
    def test_three_techniques_on_one_query(self, tables):
        """§6.1's guiding example: filter + join + top-k on one query."""
        spec = q.QuerySpec(
            qtype=q.TOPK, table="events", k=3, order_col="ts",
            pred=col("ts") >= dt.date(2024, 10, 1),
            join=q.JoinSpec(
                build_table="incidents", build_key="event_id",
                probe_key="event_id",
                build_pred=col("severity") >= 2,
            ),
            plan_ops=(
                PlanOp("filter"),
                PlanOp("join", order_col_from_probe=True),
            ),
        )
        r = run_pruning_flow(spec, tables)
        assert r.techniques["filter"].applied
        assert r.techniques["topk"].eligible
        assert r.overall_ratio > 0.5

    def test_total_partitions_counts_both_sides(self, tables):
        spec = q.QuerySpec(
            qtype=q.SELECT, table="events",
            join=q.JoinSpec(
                build_table="incidents", build_key="event_id",
                probe_key="event_id",
            ),
        )
        r = run_pruning_flow(spec, tables)
        n_ev = tables["events"].manifest.n_partitions
        n_inc = tables["incidents"].manifest.n_partitions
        assert r.total_partitions == n_ev + n_inc

    def test_flow_execution_matches_unpruned(self, spark, tables):
        """Spark over the flow's scan set == unpruned filter result."""
        pred = col("ts") >= dt.date(2025, 1, 1)
        spec = q.QuerySpec(qtype=q.SELECT, table="events", pred=pred)
        r = run_pruning_flow(spec, tables)
        pruned = execute(spark, tables, r).count()
        full = scan_df(spark, tables["events"]).filter(to_spark(pred)).count()
        assert pruned == full


class TestSparkNaNOrder:
    """The worker's reads must keep the rows Spark keeps when a predicate
    meets NaN, which Spark orders above every double.  Table ``nt`` has
    partition 0 = {v 50, 60; x 0} and partition 1 = {v 99, 100; x NaN};
    probe table ``p`` has one partition per half of ``key``."""

    @pytest.fixture(scope="class")
    def nan_tables(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("nan_lake")
        nt = pa.table({
            "v": pa.array([50, 60, 99, 100], pa.int64()),
            "x": [0.0, 0.0, math.nan, math.nan],
        })
        probe = pa.table({"key": pa.array([50, 60, 99, 100], pa.int64())})
        return {
            "nt": LakeTable.write(nt, root / "nt", n_partitions=2, cluster_by=["v"]),
            "p": LakeTable.write(probe, root / "p", n_partitions=2, cluster_by=["key"]),
        }

    def test_topk_under_negated_nan_predicate(self, spark, nan_tables):
        """NOT (NaN > 5) is FALSE: partition 1's rows must not set the
        boundary that would prune partition 0, which holds the answer."""
        pred = not_(col("x") > 5)
        spec = q.QuerySpec(
            qtype=q.TOPK, table="nt", k=1, order_col="v", desc=True, pred=pred,
            plan_ops=(PlanOp("filter"),),
        )
        r = run_pruning_flow(spec, nan_tables)
        got = [row.v for row in execute(spark, nan_tables, r).collect()]
        native = scan_df(spark, nan_tables["nt"]).filter(to_spark(pred))
        assert got == [native.agg({"v": "max"}).first()[0]] == [60]

    @pytest.mark.parametrize("build_pred, keys", [
        (col("x") > 5, [99, 100]),
        (not_(col("x") > 5), [50, 60]),
    ])
    def test_join_build_keys_under_nan_predicate(
        self, spark, nan_tables, build_pred, keys
    ):
        """The build summary holds exactly the keys of the build rows
        Spark keeps, so the probe partitions kept are those that join."""
        spec = q.QuerySpec(
            qtype=q.SELECT, table="p",
            join=q.JoinSpec(
                build_table="nt", build_key="v", probe_key="key",
                build_pred=build_pred,
            ),
        )
        r = run_pruning_flow(spec, nan_tables)
        got = sorted(row.key for row in execute(spark, nan_tables, r).collect())
        probe = scan_df(spark, nan_tables["p"])
        build = scan_df(spark, nan_tables["nt"]).filter(to_spark(build_pred))
        native = sorted(
            row.key for row in probe.join(build, probe.key == build.v).collect()
        )
        assert got == native == keys
        assert len(r.final_main_scan) == 1


@pytest.mark.parametrize("desc, pruned, top", [
    (True, [3], ["nan", "19.0", "16.0"]),
    (False, [1], ["13.0", "16.0", "19.0"]),
])
def test_topk_boundary_in_spark_nan_order(tmp_path, desc, pruned, top):
    """``v`` = 16, NaN, 19, 13, one row per partition.  Spark orders NaN
    above every double, so the top 3 DESC are NaN, 19, 16, and the §5.4
    boundary from the four fully-matching partitions is 16: only the
    partition of 13 may be pruned (ASC: only the partition of NaN)."""
    t = LakeTable.write(
        pa.table({"k": pa.array([1, 2, 3, 4], pa.int64()), "v": [16.0, math.nan, 19.0, 13.0]}),
        tmp_path / "t", n_partitions=4, cluster_by=["k"],
    )
    spec = q.QuerySpec(qtype=q.TOPK, table="t", k=3, order_col="v", desc=desc)
    tr = run_pruning_flow(spec, {"t": t}).topk_result
    assert tr.initial_boundary == (16.0 if desc else 19.0)
    assert [p.pid for p in tr.pruned] == pruned
    assert [repr(v) for v in tr.top_values] == top
