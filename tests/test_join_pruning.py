"""Tests for join pruning (§6): range summaries + probe-side pruning."""
import datetime as dt

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.join_pruning import (
    RangeSummary,
    prune_probe_partitions,
)
from .helpers import meta, partition_pandas


class TestRangeSummaryBuild:
    def test_small_set_exact(self):
        s = RangeSummary.build([5, 1, 3, 3], max_ranges=8)
        assert s.ranges == ((1, 1), (3, 3), (5, 5))
        assert s.n_values == 3

    def test_empty(self):
        s = RangeSummary.build([])
        assert s.is_empty and not s.overlaps_interval(1, 1)

    def test_none_values_dropped(self):
        s = RangeSummary.build([None, 2, None])
        assert s.ranges == ((2, 2),)

    def test_merges_to_budget(self):
        vals = list(range(0, 100)) + list(range(1000, 1100))
        s = RangeSummary.build(vals, max_ranges=2)
        assert s.ranges == ((0, 99), (1000, 1099))

    def test_widest_gaps_kept_as_splits(self):
        vals = [1, 2, 3, 50, 51, 52, 900]
        s = RangeSummary.build(vals, max_ranges=3)
        assert s.ranges == ((1, 3), (50, 52), (900, 900))

    def test_budget_one(self):
        s = RangeSummary.build([1, 5, 100], max_ranges=1)
        assert s.ranges == ((1, 100),)

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            RangeSummary.build([1, 2], max_ranges=0)

    def test_dates_merge_by_gap(self):
        d = dt.date
        vals = [d(2024, 1, 1), d(2024, 1, 2), d(2024, 6, 1)]
        s = RangeSummary.build(vals, max_ranges=2)
        assert s.ranges == (
            (d(2024, 1, 1), d(2024, 1, 2)),
            (d(2024, 6, 1), d(2024, 6, 1)),
        )

    def test_strings_chunk_by_count(self):
        vals = [f"k{i:03d}" for i in range(100)]
        s = RangeSummary.build(vals, max_ranges=4)
        assert len(s.ranges) <= 4
        assert s.ranges[0][0] == "k000" and s.ranges[-1][1] == "k099"

    def test_summary_is_small(self):
        s = RangeSummary.build(range(10_000), max_ranges=64)
        assert len(s.ranges) <= 64
        # Two bounds per range, relative to the build side's 10 000 keys.
        assert 2 * len(s.ranges) / 10_000 < 0.02


class TestRangeSummaryQueries:
    SUMMARY = RangeSummary.build([1, 2, 3, 50, 51, 52, 900], max_ranges=3)

    def test_may_contain_inside(self):
        for v in (2, 51, 900):
            assert self.SUMMARY.overlaps_interval(v, v)

    def test_may_contain_gap(self):
        for v in (10, 100, 0, 1000):
            assert not self.SUMMARY.overlaps_interval(v, v)

    def test_no_false_negatives(self):
        for v in [1, 2, 3, 50, 51, 52, 900]:
            assert self.SUMMARY.overlaps_interval(v, v)

    def test_overlaps_interval(self):
        assert self.SUMMARY.overlaps_interval(40, 60)
        assert self.SUMMARY.overlaps_interval(0, 1)
        assert not self.SUMMARY.overlaps_interval(4, 49)
        assert not self.SUMMARY.overlaps_interval(901, 10_000)

    def test_overlaps_unknown_bounds_conservative(self):
        assert self.SUMMARY.overlaps_interval(None, 5)
        assert self.SUMMARY.overlaps_interval(5, None)


class TestProbePruning:
    def probe_parts(self):
        return [meta(i, 10, k=(i * 100, i * 100 + 99)) for i in range(10)]

    def test_narrow_build_prunes_most(self):
        summary = RangeSummary.build([250, 260, 270])
        r = prune_probe_partitions(self.probe_parts(), "k", summary)
        assert [p.pid for p in r.retained] == [2]
        assert len(r.pruned) == 9

    def test_empty_build_prunes_everything(self):
        # Fig. 10: ~13 % of queries prune 100 % — empty build side.
        r = prune_probe_partitions(
            self.probe_parts(), "k", RangeSummary.build([])
        )
        assert not r.retained and len(r.pruned) == 10

    def test_full_range_build_prunes_nothing(self):
        summary = RangeSummary.build(range(0, 1000, 7), max_ranges=4)
        r = prune_probe_partitions(self.probe_parts(), "k", summary)
        assert len(r.retained) == 10

    def test_unknown_stats_retained(self):
        parts = [meta(0, 5, other=(1, 2))]
        r = prune_probe_partitions(parts, "k", RangeSummary.build([5]))
        assert len(r.retained) == 1

    def test_all_null_keys_pruned(self):
        parts = [meta(0, 5, k=(None, None, 5))]
        r = prune_probe_partitions(parts, "k", RangeSummary.build([5]))
        assert not r.retained

    def test_empty_partition_pruned(self):
        parts = [meta(0, 0, k=(None, None, 0))]
        r = prune_probe_partitions(parts, "k", RangeSummary.build([5]))
        assert not r.retained


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    max_ranges=st.sampled_from([1, 2, 8, 64]),
    n_parts=st.integers(1, 8),
    correlated=st.booleans(),
)
def test_join_pruning_soundness(seed, max_ranges, n_parts, correlated):
    """No probe partition holding a joinable key is ever pruned."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 400))
    probe = pd.DataFrame({"k": rng.integers(0, 1000, n)})
    build_keys = rng.integers(200, 320, int(rng.integers(0, 40))).tolist()
    metas, frames = partition_pandas(
        probe, n_parts, cluster_by="k" if correlated else None
    )
    summary = RangeSummary.build(build_keys, max_ranges=max_ranges)
    r = prune_probe_partitions(metas, "k", summary)
    keyset = set(build_keys)
    for p in r.pruned:
        part = frames[p.pid]
        assert not part["k"].isin(keyset).any(), "pruned joinable rows"
