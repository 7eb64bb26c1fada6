"""The worker's row evaluator, ``to_arrow``: SQL three-valued logic in
the cases where Arrow's own kernels differ from SQL or are easy to get
wrong.  The hypothesis property in ``test_expr_property`` checks the
rest against DuckDB."""
import math
from decimal import Decimal

import pandas as pd
import pyarrow as pa
import pytest

from repro.core.expr import (
    col, if_, isin, like, lit, not_, startswith, to_arrow, to_sql,
)

from .helpers import arrow_filter, duckdb_table

FRAME = pd.DataFrame(
    {
        "s": ["Alpine Ibex", None, "Bear"],
        "x": pd.array([1, None, 7], dtype="Int64"),
        "n": pd.array([7, 8, 9], dtype="Int64"),
    }
)


def rows(pred):
    return arrow_filter(FRAME, pred).index.tolist()


def test_in_on_null_is_null():
    assert rows(isin(col("s"), ["Bear"])) == [2]
    assert rows(not_(isin(col("s"), ["Bear"]))) == [0]


def test_like_on_null_is_null():
    assert rows(like(col("s"), "Alpine%")) == [0]
    assert rows(not_(like(col("s"), "Alpine%"))) == [2]
    assert rows(not_(startswith(col("s"), "Alp"))) == [2]


def test_if_with_null_condition_takes_else():
    # x > 3 is NULL on row 1, so row 1 takes the ELSE branch (n = 8).
    assert rows(if_(col("x") > 3, lit(0), col("n")) > 7) == [1]
    assert rows(not_(if_(col("x") > 3, lit(True), lit(False)))) == [0, 1]


def test_integer_division_is_float():
    assert rows(col("n") / lit(2) > 3.5) == [1, 2]
    assert rows((col("n") / lit(2)).eq(4.5)) == [2]


NAN = pa.table({
    "x": pa.array([1.0, math.nan, None, 6.0]),
    "y": pa.array([math.nan, math.nan, 2.0, None]),
})
X, Y = col("x"), col("y")


@pytest.mark.parametrize("pred, want", [
    (X > 5, [1, 3]),
    (not_(X > 5), [0]),
    (X >= math.nan, [1]),
    (X < math.nan, [0, 3]),
    (X.ne(math.nan), [0, 3]),
    (X <= Y, [0, 1]),
    (X.eq(Y), [1]),
    (not_(X < Y), [1]),
])
def test_nan_is_the_greatest_double(pred, want):
    """Spark's order: NaN above every double, NaN = NaN, NULL stays NULL;
    DuckDB's SQL, over its own copy of the table, agrees."""
    t = NAN.append_column("index", pa.array(range(4)))
    assert t.filter(to_arrow(pred))["index"].to_pylist() == want
    sql = f"SELECT index FROM t WHERE {to_sql(pred)} ORDER BY index"
    assert [r[0] for r in duckdb_table(NAN).execute(sql).fetchall()] == want


def test_decimal_literal_is_exact_sql():
    """A decimal literal renders as an exact DECIMAL, not as Python's
    ``Decimal('1.50')``; one with no fraction stays a DECIMAL, not an
    INT."""
    t = pa.table({"d": pa.array(
        [Decimal("1.49"), Decimal("1.50"), Decimal("1.51")], pa.decimal128(5, 2)
    )})
    for pred, want in [
        (col("d") > Decimal("1.50"), [2]),
        (col("d").eq(Decimal("1.5")), [1]),
        ((col("d") * Decimal("2")) <= Decimal("2.98"), [0]),
    ]:
        sql = f"SELECT index FROM t WHERE {to_sql(pred)} ORDER BY index"
        assert [r[0] for r in duckdb_table(t).execute(sql).fetchall()] == want, sql
    assert to_sql(col("d") > Decimal("1.50")) == "(d > CAST('1.50' AS DECIMAL(3, 2)))"
    assert to_sql(lit(Decimal("2"))) == "CAST('2' AS DECIMAL(1, 0))"
