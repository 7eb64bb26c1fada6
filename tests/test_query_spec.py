"""Tests for the QuerySpec model and its SQL rendering."""
import datetime as dt

import pytest

from repro.core import query as q
from repro.core.expr import Col, and_, between, col, if_, like, to_sql
from repro.core.query import qualify


class TestToSql:
    def test_plain_select(self):
        s = q.QuerySpec(qtype=q.SELECT, table="t")
        assert s.to_sql() == "SELECT * FROM t"

    def test_select_with_pred(self):
        s = q.QuerySpec(qtype=q.SELECT, table="t", pred=col("x") > 5)
        assert s.to_sql() == "SELECT * FROM t WHERE (x > 5)"

    def test_select_cols(self):
        s = q.QuerySpec(qtype=q.SELECT, table="t", select_cols=("a", "b"))
        assert s.to_sql() == "SELECT a, b FROM t"

    def test_limit(self):
        s = q.QuerySpec(qtype=q.LIMIT, table="t", k=7)
        assert s.to_sql() == "SELECT * FROM t LIMIT 7"

    def test_topk(self):
        s = q.QuerySpec(
            qtype=q.TOPK, table="t", k=3, order_col="x", desc=True
        )
        assert s.to_sql() == "SELECT * FROM t ORDER BY x DESC LIMIT 3"

    def test_topk_asc(self):
        s = q.QuerySpec(
            qtype=q.TOPK, table="t", k=3, order_col="x", desc=False
        )
        assert "ORDER BY x ASC" in s.to_sql()

    def test_group_key_topk(self):
        s = q.QuerySpec(
            qtype=q.TOPK_GROUP_KEY, table="t", k=3,
            order_col="c", group_cols=("c",),
        )
        assert s.to_sql() == (
            "SELECT c FROM t GROUP BY c ORDER BY c DESC LIMIT 3"
        )

    def test_group_agg_topk(self):
        s = q.QuerySpec(
            qtype=q.TOPK_GROUP_AGG, table="t", k=3,
            group_cols=("c",), agg_fn="sum", agg_col="x",
        )
        sql = s.to_sql()
        assert "GROUP BY c" in sql and "ORDER BY sum(x) DESC" in sql

    def test_join_qualifies_predicates(self):
        s = q.QuerySpec(
            qtype=q.SELECT, table="probe", pred=col("p") > 1,
            join=q.JoinSpec(
                build_table="build", build_key="bk", probe_key="pk",
                build_pred=col("b").eq(2),
            ),
        )
        sql = s.to_sql()
        assert "JOIN build ON probe.pk = build.bk" in sql
        assert "(probe.p > 1)" in sql and "(build.b = 2)" in sql

    def test_date_literal(self):
        s = q.QuerySpec(
            qtype=q.SELECT, table="t",
            pred=col("d") >= dt.date(2024, 5, 1),
        )
        assert "DATE '2024-05-01'" in s.to_sql()


class TestQualify:
    def test_col(self):
        assert qualify(col("x"), "t") == Col("t.x")

    def test_nested(self):
        e = and_(like(col("s"), "A%"), between(col("x"), 1, 2))
        out = to_sql(qualify(e, "t"))
        assert "t.s" in out and "t.x" in out

    def test_if_expression(self):
        e = if_(col("c").eq(1), col("a"), col("b"))
        out = to_sql(qualify(e, "t") > 5)
        assert "t.c" in out and "t.a" in out and "t.b" in out


class TestFlags:
    def test_is_topk(self):
        assert q.QuerySpec(qtype=q.TOPK, table="t", k=1).is_topk
        assert q.QuerySpec(
            qtype=q.TOPK_GROUP_AGG, table="t", k=1
        ).is_topk
        assert not q.QuerySpec(qtype=q.LIMIT, table="t", k=1).is_topk
