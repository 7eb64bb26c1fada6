"""Tests for the SQL-text classifier (Table 1 methodology)."""
import pytest

from repro.workload import classifier as C


class TestLimitDetection:
    def test_no_limit(self):
        assert C.classify("SELECT * FROM t") == C.OTHER

    def test_limit_no_pred(self):
        assert C.classify("SELECT * FROM t LIMIT 10") == C.LIMIT_NO_PRED

    def test_limit_zero_counts(self):
        # BI tools issue LIMIT 0 for schema probing (§4.1 footnote).
        assert C.classify("SELECT * FROM t LIMIT 0") == C.LIMIT_NO_PRED

    def test_limit_with_pred(self):
        assert (
            C.classify("SELECT * FROM t WHERE x > 5 LIMIT 10")
            == C.LIMIT_PRED
        )

    def test_case_insensitive(self):
        assert (
            C.classify("select * from t where x > 5 limit 3")
            == C.LIMIT_PRED
        )

    def test_limit_in_identifier_not_matched(self):
        assert C.classify("SELECT limit_col FROM t") == C.OTHER


class TestTopKDetection:
    def test_order_by_limit(self):
        assert (
            C.classify("SELECT * FROM t ORDER BY x DESC LIMIT 5")
            == C.TOPK_PLAIN
        )

    def test_order_by_asc(self):
        assert (
            C.classify("SELECT * FROM t WHERE y=1 ORDER BY x ASC LIMIT 5")
            == C.TOPK_PLAIN
        )

    def test_order_by_without_limit_is_other(self):
        assert C.classify("SELECT * FROM t ORDER BY x") == C.OTHER

    def test_group_by_order_by_key(self):
        sql = "SELECT c FROM t GROUP BY c ORDER BY c DESC LIMIT 3"
        assert C.classify(sql) == C.TOPK_GROUP_KEY

    def test_group_by_order_by_agg(self):
        sql = (
            "SELECT c, sum(x) AS s FROM t GROUP BY c "
            "ORDER BY sum(x) DESC LIMIT 3"
        )
        assert C.classify(sql) == C.TOPK_GROUP_AGG

    def test_group_by_order_by_count(self):
        sql = "SELECT c FROM t GROUP BY c ORDER BY count(*) LIMIT 10"
        assert C.classify(sql) == C.TOPK_GROUP_AGG

    def test_multi_key_group_order_subset(self):
        sql = (
            "SELECT a, b FROM t GROUP BY a, b ORDER BY b, a LIMIT 1"
        )
        assert C.classify(sql) == C.TOPK_GROUP_KEY


class TestAgainstGeneratedSQL:
    """Classifier round-trips the generator's own SQL rendering."""

    @pytest.fixture(scope="class")
    def gen(self):
        import datetime as dt

        from repro.workload.generator import LakeShape, WorkloadGenerator

        shape = LakeShape(
            ts_min=dt.date(2024, 1, 1),
            ts_max=dt.date(2025, 2, 1),
            n_events=10_000,
            n_users=1_000,
        )
        return WorkloadGenerator(shape, seed=7)

    @pytest.mark.parametrize(
        "kind,expected",
        [
            ("limit_no_pred", C.LIMIT_NO_PRED),
            ("limit_pred", C.LIMIT_PRED),
            ("topk", C.TOPK_PLAIN),
            ("topk_group_key", C.TOPK_GROUP_KEY),
            ("topk_group_agg", C.TOPK_GROUP_AGG),
            ("select_no_pred", C.OTHER),
            ("select_filter", C.OTHER),
            ("join", C.OTHER),
        ],
    )
    def test_roundtrip(self, gen, kind, expected):
        for _ in range(25):
            spec = gen.sample(kind)
            assert C.classify(spec.to_sql()) == expected, spec.to_sql()
