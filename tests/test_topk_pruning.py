"""Tests for top-k pruning (§5): boundary evolution, processing order,
compile-time boundary initialization, supported-shape rules, and the
multiset-correctness property against brute force."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.expr import and_, col
from repro.core.filter_pruning import prune_scan_set
from repro.core.topk_pruning import (
    PlanOp,
    init_boundary,
    order_partitions,
    supports_topk_pruning,
    topk_scan,
)
from .helpers import brute_topk_values, meta, partition_pandas, reader_for


def clustered_frame(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "v": np.sort(rng.random(n) * 1000),
            "f": rng.integers(0, 10, n),
        }
    )


def random_frame(n=1000, seed=1):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {"v": rng.random(n) * 1000, "f": rng.integers(0, 10, n)}
    )


class TestSupportedShapes:
    def test_bare_scan(self):
        assert supports_topk_pruning([], ["v"])

    def test_filter_between(self):
        assert supports_topk_pruning([PlanOp("filter")], ["v"])

    def test_join_probe_side(self):
        assert supports_topk_pruning(
            [PlanOp("join", order_col_from_probe=True)], ["v"]
        )

    def test_join_build_side_inner_unsupported(self):
        assert not supports_topk_pruning(
            [PlanOp("join", order_col_from_probe=False)], ["v"]
        )

    def test_outer_join_build_side_supported(self):
        # Fig. 7c: TopK replicated to the build side of a LEFT OUTER JOIN.
        assert supports_topk_pruning(
            [PlanOp("join", order_col_from_probe=False, outer_build=True)],
            ["v"],
        )

    def test_groupby_on_keys_supported(self):
        assert supports_topk_pruning(
            [PlanOp("groupby", group_keys=("a", "b"))], ["a"]
        )

    def test_groupby_on_aggregate_unsupported(self):
        assert not supports_topk_pruning(
            [PlanOp("groupby", group_keys=("a",))], ["agg_val"]
        )

    def test_pipeline_breaker_unsupported(self):
        assert not supports_topk_pruning([PlanOp("window")], ["v"])


class TestOrderPartitions:
    def parts(self):
        return [
            meta(0, 10, v=(0, 30)),
            meta(1, 10, v=(50, 90)),
            meta(2, 10, v=(20, 60)),
        ]

    def test_sort_desc_by_max(self):
        out = order_partitions(self.parts(), "v", desc=True, strategy="sort")
        assert [p.pid for p in out] == [1, 2, 0]

    def test_sort_asc_by_min(self):
        out = order_partitions(self.parts(), "v", desc=False, strategy="sort")
        assert [p.pid for p in out] == [0, 2, 1]

    def test_random_is_permutation(self):
        out = order_partitions(self.parts(), "v", strategy="random", seed=3)
        assert sorted(p.pid for p in out) == [0, 1, 2]

    def test_missing_stats_go_last(self):
        parts = self.parts() + [meta(3, 10, other=(1, 2))]
        out = order_partitions(parts, "v", desc=True, strategy="sort")
        assert out[-1].pid == 3

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            order_partitions(self.parts(), "v", strategy="bogus")


class TestInitBoundary:
    def test_kth_largest_max_rule(self):
        # §5.4 candidate 1: with k=2, boundary = 2nd largest max.
        parts = [
            meta(0, 100, v=(0, 900)),
            meta(1, 100, v=(0, 800)),
            meta(2, 100, v=(0, 700)),
        ]
        assert init_boundary(parts, "v", 2, desc=True) == 800

    def test_cumulative_min_rule_wins_on_sorted_data(self):
        # §5.4 candidate 2: disjoint sorted partitions -> largest min of
        # the partition covering k rows beats the k-th max.
        parts = [
            meta(0, 100, v=(900, 999)),
            meta(1, 100, v=(800, 899)),
            meta(2, 100, v=(700, 799)),
        ]
        # k=50 fits in partition 0: boundary its min=900 (vs 1st max=999:
        # k-th (50th) max rule gives only 799... with 3 partitions the
        # k=50-th largest max doesn't exist (only 3 maxes), so cand2=900.
        assert init_boundary(parts, "v", 50, desc=True) == 900

    def test_asc_mirror(self):
        parts = [
            meta(0, 100, v=(0, 99)),
            meta(1, 100, v=(100, 199)),
        ]
        assert init_boundary(parts, "v", 50, desc=False) == 99

    def test_k_zero_or_empty(self):
        assert init_boundary([], "v", 5) is None
        assert init_boundary([meta(0, 10, v=(0, 9))], "v", 0) is None

    def test_null_heavy_partition_excluded_from_count(self):
        parts = [meta(0, 100, v=(500, 900, 95))]  # only 5 non-null rows
        # k=10 cannot be covered by 5 non-null rows; only k-th-max rule
        # applies, needing >= 10 partitions -> None.
        assert init_boundary(parts, "v", 10, desc=True) is None

    def test_boundary_is_sound(self):
        """Boundary never exceeds the true k-th largest value."""
        rng = np.random.default_rng(5)
        pdf = pd.DataFrame({"v": rng.random(500) * 1000})
        for cluster in ["v", None]:
            metas, frames = partition_pandas(pdf, 8, cluster_by=cluster)
            for k in (1, 5, 50, 200):
                b = init_boundary(metas, "v", k, desc=True)
                if b is None:
                    continue
                kth = pdf["v"].nlargest(k).iloc[-1]
                assert b <= kth


class TestTopKScan:
    def run_case(self, pdf, k, pred=None, desc=True, cluster="v",
                 strategy="sort", init=False, n_parts=10):
        metas, frames = partition_pandas(pdf, n_parts, cluster_by=cluster)
        if pred is not None:
            pr = prune_scan_set(metas, pred)
            metas = pr.retained
        boundary = None
        if init and pred is None:
            boundary = init_boundary(metas, "v", k, desc=desc)
        elif init:
            fully = prune_scan_set(metas, pred).fully_matching
            boundary = init_boundary(fully, "v", k, desc=desc)
        res = topk_scan(
            metas, reader_for(frames), "v", k,
            pred=pred, desc=desc, strategy=strategy,
            initial_boundary=boundary,
        )
        truth = brute_topk_values(pdf, "v", k, pred=pred, desc=desc)
        assert sorted(res.top_values) == sorted(truth), "value multiset"
        return res

    def test_clustered_desc_prunes_most(self):
        res = self.run_case(clustered_frame(), k=10)
        assert res.pruning_ratio >= 0.8

    def test_clustered_asc(self):
        res = self.run_case(clustered_frame(), k=10, desc=False)
        assert res.pruning_ratio >= 0.8

    def test_random_layout_prunes_less_than_clustered(self):
        # Overlapping min/max ranges hurt pruning (§5.3).
        res_rand = self.run_case(random_frame(), k=10, cluster=None)
        res_clust = self.run_case(clustered_frame(), k=10)
        assert res_rand.pruning_ratio < res_clust.pruning_ratio

    def test_with_predicate(self):
        self.run_case(clustered_frame(), k=5, pred=col("f") >= 5)

    def test_selective_predicate_correct(self):
        self.run_case(clustered_frame(), k=20, pred=col("f").eq(3))

    def test_init_boundary_prunes_from_start(self):
        res = self.run_case(clustered_frame(), k=10, init=True)
        assert res.initial_boundary is not None
        assert res.pruning_ratio >= 0.8

    def test_k_larger_than_table(self):
        pdf = clustered_frame(50)
        self.run_case(pdf, k=500, n_parts=5)

    def test_k_zero(self):
        res = self.run_case(clustered_frame(), k=0)
        assert res.top_values == []

    def test_boundary_tightens_monotonically(self):
        res = self.run_case(clustered_frame(), k=10)
        hist = [b for b in res.boundary_history if b is not None]
        assert all(a <= b or a == b for a, b in zip(hist, hist[1:])) or all(
            a >= b for a, b in zip(hist, hist[1:])
        )

    def test_nulls_in_order_column(self):
        rng = np.random.default_rng(9)
        pdf = pd.DataFrame({"v": rng.random(300) * 100, "f": 1})
        pdf.loc[rng.random(300) < 0.3, "v"] = np.nan
        self.run_case(pdf, k=15, cluster=None, n_parts=6)

    def test_ties_at_boundary(self):
        pdf = pd.DataFrame({"v": [5.0] * 100 + [9.0] * 5, "f": 1})
        self.run_case(pdf, k=10, n_parts=5)

    def test_tie_heavy_init_boundary(self):
        """Regression: an init boundary equal to every partition max must
        not prune partitions before the heap covers the boundary."""
        pdf = pd.DataFrame({"v": [7.0] * 200, "f": 1})
        self.run_case(pdf, k=3, n_parts=4, init=True)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    k=st.sampled_from([1, 3, 10, 40]),
    n_parts=st.integers(1, 8),
    desc=st.booleans(),
    cluster=st.sampled_from(["v", None]),
    strategy=st.sampled_from(["sort", "random"]),
    dup=st.booleans(),
)
def test_topk_multiset_property(seed, k, n_parts, desc, cluster, strategy, dup):
    """For random data/parameters the pruned top-k value multiset always
    equals the brute-force top-k value multiset."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 300))
    vals = rng.integers(0, 20, n) if dup else rng.random(n) * 1000
    pdf = pd.DataFrame({"v": vals.astype("float64"), "f": rng.integers(0, 4, n)})
    metas, frames = partition_pandas(pdf, n_parts, cluster_by=cluster)
    pred = col("f") >= 2
    pr = prune_scan_set(metas, pred)
    boundary = init_boundary(pr.fully_matching, "v", k, desc=desc)
    res = topk_scan(
        pr.retained, reader_for(frames), "v", k,
        pred=pred, desc=desc, strategy=strategy, seed=seed,
        initial_boundary=boundary,
    )
    truth = brute_topk_values(pdf, "v", k, pred=pred, desc=desc)
    assert sorted(res.top_values) == sorted(truth)
