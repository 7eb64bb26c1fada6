"""Tests for LIMIT pruning (§4): fully-matching identification + minimal
scan-set construction + Table 2 categorization."""

from repro.core.expr import and_, col, like
from repro.core.filter_pruning import prune_scan_set
from repro.core.limit_pruning import (
    ALREADY_MINIMAL,
    NO_FULLY_MATCHING,
    PRUNED_TO_1,
    PRUNED_TO_GT1,
    UNSUPPORTED_SHAPE,
    prune_for_limit,
)
from repro.lake.manifest import PartitionMeta
from .helpers import fully_matching_by_inverted_pass, meta, ps
from .test_filter_pruning import FIG5_PRED, fig5_partitions


class TestInvertedPass:
    """§4.2: the inverted second pass (a test-side reference) agrees with
    the direct classification that LIMIT pruning uses."""

    def test_fig5_identifies_partition3(self):
        parts = fig5_partitions()
        retained = prune_scan_set(parts, FIG5_PRED).retained
        fully = fully_matching_by_inverted_pass(retained, FIG5_PRED)
        assert [p.pid for p in fully] == [3]

    def test_agrees_with_classification(self):
        parts = [meta(i, 10, x=(i * 10, i * 10 + 9)) for i in range(10)]
        pred = col("x") >= 45
        direct = {p.pid for p in prune_scan_set(parts, pred).fully_matching}
        inverted = {
            p.pid for p in fully_matching_by_inverted_pass(parts, pred)
        }
        assert direct == inverted == {5, 6, 7, 8, 9}

    def test_nulls_block_fully_matching(self):
        # All non-null values match but null rows fail the predicate.
        parts = [meta(0, 10, x=(50, 90, 3))]
        assert fully_matching_by_inverted_pass(parts, col("x") >= 45) == []
        assert prune_scan_set(parts, col("x") >= 45).fully_matching == []


def ten_parts(rows=100):
    return [meta(i, rows, x=(i * 10, i * 10 + 9)) for i in range(10)]


class TestPruneForLimit:
    def test_paper_limit3_scenario(self):
        """§4.1: LIMIT 3 on Fig. 5 needs only partition 3."""
        out = prune_for_limit(prune_scan_set(fig5_partitions(), FIG5_PRED), 3)
        assert out.category == PRUNED_TO_1
        assert [p.pid for p in out.scan_set] == [3]

    def test_limit_exceeding_fully_rows_not_prunable(self):
        # Partition 3 holds 4 rows; k=5 exceeds them.
        out = prune_for_limit(prune_scan_set(fig5_partitions(), FIG5_PRED), 5)
        assert out.category == NO_FULLY_MATCHING
        # Fully-matching partitions lead the scan order (§4.1).
        assert out.scan_set[0].pid == 3

    def test_no_predicate_all_fully(self):
        out = prune_for_limit(prune_scan_set(ten_parts(), None), 150)
        assert out.category == PRUNED_TO_GT1
        assert len(out.scan_set) == 2

    def test_no_predicate_single_partition_enough(self):
        out = prune_for_limit(prune_scan_set(ten_parts(), None), 10)
        assert out.category == PRUNED_TO_1
        assert len(out.scan_set) == 1

    def test_limit_zero(self):
        out = prune_for_limit(prune_scan_set(ten_parts(), None), 0)
        assert out.category == PRUNED_TO_1
        assert out.scan_set == []

    def test_already_minimal(self):
        out = prune_for_limit(prune_scan_set(ten_parts(), col("x") >= 95), 5)
        assert out.category == ALREADY_MINIMAL
        assert len(out.scan_set) == 1

    def test_already_minimal_empty(self):
        out = prune_for_limit(prune_scan_set(ten_parts(), col("x") >= 1000), 5)
        assert out.category == ALREADY_MINIMAL
        assert out.scan_set == []

    def test_unsupported_shape(self):
        fr = prune_scan_set(ten_parts(), None)
        out = prune_for_limit(fr, 5, shape_supported=False)
        assert out.category == UNSUPPORTED_SHAPE
        assert len(out.scan_set) == 10  # scan set untouched

    def test_unsupported_reported_bucket(self):
        out = prune_for_limit(prune_scan_set(fig5_partitions(), FIG5_PRED), 5)
        assert out.reported_category == UNSUPPORTED_SHAPE

    def test_minimal_cover_uses_largest_partitions(self):
        parts = [
            meta(0, 30, x=(0, 9)),
            meta(1, 100, x=(0, 9)),
            meta(2, 60, x=(0, 9)),
        ]
        out = prune_for_limit(prune_scan_set(parts, col("x") >= 0), 120)
        assert out.category == PRUNED_TO_GT1
        assert [p.pid for p in out.scan_set] == [1, 2]

    def test_exact_k_boundary(self):
        parts = [meta(0, 50, x=(0, 9)), meta(1, 50, x=(0, 9))]
        out = prune_for_limit(prune_scan_set(parts, None), 50)
        assert out.category == PRUNED_TO_1
        out = prune_for_limit(prune_scan_set(parts, None), 51)
        assert out.category == PRUNED_TO_GT1

    def test_mixed_fully_and_partial(self):
        # Predicate x >= 45: partitions 5..9 fully, 4 partial.
        out = prune_for_limit(prune_scan_set(ten_parts(), col("x") >= 45), 100)
        assert out.category == PRUNED_TO_1
        assert len(out.scan_set) == 1
        out = prune_for_limit(prune_scan_set(ten_parts(), col("x") >= 45), 450)
        assert out.category == PRUNED_TO_GT1
        assert len(out.scan_set) == 5
        out = prune_for_limit(prune_scan_set(ten_parts(), col("x") >= 45), 501)
        assert out.category == NO_FULLY_MATCHING


class TestLinearCost:
    def test_partial_set_needs_no_partition_comparisons(self):
        """Splitting partial from fully-matching partitions looks pids up
        in a set; membership in the fully-matching *list* would compare
        partitions pairwise, quadratic in the scan set."""
        comparisons = 0

        class Counted(PartitionMeta):
            def __eq__(self, other):
                nonlocal comparisons
                comparisons += 1
                return super().__eq__(other)

            __hash__ = PartitionMeta.__hash__

        # Even pids fully match x >= 5, odd pids only partially.
        parts = [
            Counted(i, f"p{i}", ps(10, x=(5, 9) if i % 2 == 0 else (0, 9)))
            for i in range(400)
        ]
        fr = prune_scan_set(parts, col("x") >= 5)
        assert len(fr.fully_matching) == 200
        out = prune_for_limit(fr, 10 ** 6)  # more rows than fully-matching hold
        assert out.category == NO_FULLY_MATCHING
        assert [p.pid % 2 for p in out.scan_set] == [0] * 200 + [1] * 200
        assert comparisons == 0
