"""Tests for predicate inversion (§4.2's second pruning pass input)."""
import pandas as pd
import pytest

from repro.core.expr import (
    And,
    Cmp,
    Lit,
    Not,
    Or,
    and_,
    between,
    col,
    invert,
    isin,
    isnull,
    like,
    lit,
    not_,
    or_,
    to_sql,
)

from .helpers import arrow_filter


class TestStructuralInversion:
    def test_cmp_flips(self):
        assert invert(col("x") < 5) == (col("x") >= 5)
        assert invert(col("x") <= 5) == (col("x") > 5)
        assert invert(col("x") > 5) == (col("x") <= 5)
        assert invert(col("x") >= 5) == (col("x") < 5)
        assert invert(col("x").eq(5)) == col("x").ne(5)
        assert invert(col("x").ne(5)) == col("x").eq(5)

    def test_de_morgan_and(self):
        inv = invert(and_(col("x") < 5, col("y") < 5))
        assert isinstance(inv, Or)
        assert inv.args == ((col("x") >= 5), (col("y") >= 5))

    def test_de_morgan_or(self):
        inv = invert(or_(col("x") < 5, col("y") < 5))
        assert isinstance(inv, And)

    def test_double_negation(self):
        p = like(col("s"), "A%")
        assert invert(not_(p)) == p

    def test_like_wraps_in_not(self):
        assert invert(like(col("s"), "A%")) == Not(like(col("s"), "A%"))

    def test_literal(self):
        assert invert(lit(True)) == Lit(False)
        assert invert(lit(None)) == Lit(None)

    def test_paper_fig5_inversion(self):
        # species LIKE 'Alpine%' AND s >= 50
        #   -> species NOT LIKE 'Alpine%' OR s < 50   (§4.2)
        p = and_(like(col("species"), "Alpine%"), col("s") >= 50)
        assert to_sql(invert(p)) == (
            "((NOT (species LIKE 'Alpine%')) OR (s < 50))"
        )


class TestSemanticInversion:
    """On null-free data, invert(p) must select exactly the complement."""

    FRAME = pd.DataFrame(
        {
            "x": [1, 5, 9, 15, 3],
            "y": [2.0, 0.5, 8.0, 1.0, 9.9],
            "s": ["Alpine Ibex", "Bear", "Alp", "Creek", "Alpine Fox"],
        }
    )

    @pytest.mark.parametrize(
        "pred",
        [
            col("x") < 5,
            col("x").eq(5),
            col("x").ne(9),
            and_(col("x") > 2, col("y") < 5),
            or_(col("x") > 8, col("y") > 8),
            like(col("s"), "Alpine%"),
            isin(col("x"), [1, 15]),
            between(col("y"), 1.0, 8.0),
            not_(col("x") > 4),
            or_(and_(col("x") > 2, col("y") < 5), col("s").eq("Creek")),
        ],
        ids=lambda p: to_sql(p),
    )
    def test_complement(self, pred):
        m = set(arrow_filter(self.FRAME, pred).index)
        mi = set(arrow_filter(self.FRAME, invert(pred)).index)
        assert not m & mi and m | mi == set(self.FRAME.index), (
            "inversion must partition null-free rows"
        )

    def test_nulls_fail_both(self):
        pdf = pd.DataFrame({"x": [1.0, None, 9.0]})
        p = col("x") > 5
        m, mi = arrow_filter(pdf, p).index, arrow_filter(pdf, invert(p)).index
        assert 1 not in m and 1 not in mi
