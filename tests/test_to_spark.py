"""``to_spark``'s SQL text against the PySpark Column reference.

Every predicate is evaluated both ways in one ``select`` over a table of
edge values: NaN, ±0.0, ±inf, NULL, an all-NULL column, strings holding
``'``, ``\\``, ``%``, ``_`` and non-ASCII text, dates, timestamps,
decimals and ints beyond the int32 range.  The two must agree in every
row, NULL included.  The predicates cover every ``Expr`` node and every
literal type; a float literal rendered as Spark's DECIMAL, or a string
literal with an unescaped backslash, changes some row.
"""
import datetime as dt
import math
from decimal import Decimal

from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core import expr as E
from repro.core.expr import (
    and_,
    between,
    col,
    if_,
    isin,
    isnull,
    like,
    lit,
    not_,
    or_,
    startswith,
    to_spark,
)

from .helpers import spark_column

NAN, INF = math.nan, math.inf
D = Decimal

SCHEMA = T.StructType([
    T.StructField("f", T.DoubleType()),
    T.StructField("n", T.DoubleType()),  # NULL in every row
    T.StructField("s", T.StringType()),
    T.StructField("d", T.DateType()),
    T.StructField("t", T.TimestampType()),
    T.StructField("dec", T.DecimalType(10, 2)),
    T.StructField("big", T.LongType()),
    T.StructField("i", T.IntegerType()),
])


def _row(f, s, day, dec, big, i):
    t = dt.datetime(2024, 1, day, 12, 0, 0, 123456 * (day % 2))
    return (f, None, s, dt.date(2024, 1, day), t, dec, big, i)


ROWS = [
    _row(1.5, "it's", 1, D("1.50"), 3_000_000_000, 1),
    _row(NAN, "back\\slash", 2, D("-2.25"), -3_000_000_000, -7),
    _row(0.0, "100%", 3, D("0.00"), 2_147_483_648, 0),
    _row(-0.0, "a_b", 4, None, None, 2),
    _row(INF, "héllo ✓", 5, D("12345678.99"), 0, None),
    _row(-INF, None, 6, D("2.00"), 2_147_483_647, -2_147_483_647),
    _row(None, "", 7, D("-0.01"), 1, 5),
    _row(900.0, "a\\%b", 8, D("1.51"), 9_000_000_000, 900),
]

f, s, d, t, dec, big, i, n = (col(c) for c in ("f", "s", "d", "t", "dec", "big", "i", "n"))

PREDICATES = [
    # doubles: NaN above +inf and equal to itself, -0.0 = 0.0
    f > 900.0,
    f >= 1.5,
    f < 0.0,
    f <= -0.0,
    f.eq(0.0),
    f.eq(NAN),
    f.ne(NAN),
    f > INF,
    f >= -INF,
    f.eq(lit(None)),
    not_(f > 5.0),
    # DOUBLE arithmetic: as DECIMALs these two would be exact
    (lit(0.1) + lit(0.2)).eq(0.30000000000000004),
    (f * 0.1) > 0.15000000000000002,
    (i / 4) > 0.25,
    (i - 1) < 0,
    # ints beyond int32
    big > 2_147_483_647,
    big.eq(3_000_000_000),
    (big * 2) < -5_000_000_000,
    isin(big, [9_000_000_000, 1]),
    # decimals
    dec > D("1.50"),
    dec.eq(D("2")),
    (dec * D("2")) >= D("3.00"),
    isin(dec, [D("1.5"), D("-0.01")]),
    # strings: quote, backslash, wildcards, non-ASCII
    s.eq("it's"),
    s.eq("back\\slash"),
    s > "b",
    like(s, "100\\%"),
    like(s, "a\\_b"),
    like(s, "%\\\\%"),
    like(s, "h_llo%"),
    startswith(s, "hé"),
    startswith(s, "a\\"),
    isin(s, ["it's", "a_b", "x\\y", "héllo ✓"]),
    # dates and timestamps
    d >= dt.date(2024, 1, 5),
    between(d, dt.date(2024, 1, 2), dt.date(2024, 1, 4)),
    t > dt.datetime(2024, 1, 3, 12, 0, 0, 123456),
    isin(d, [dt.date(2024, 1, 1), dt.date(2024, 1, 8)]),
    # NULLs and boolean literals
    isnull(n),
    isnull(s),
    n > 1.0,
    lit(True),
    lit(None),
    and_(f > 0.0, not_(isnull(s)), lit(True)),
    or_(f.eq(NAN), s.eq(""), lit(False)),
    # IF and IN over doubles
    if_(f > 1.0, i, big) > 0,
    if_(isnull(f), 1.5, f) >= 1.5,
    isin(f, [NAN, 0.0]),
]


def test_predicates_cover_every_node_and_literal_type():
    nodes, lits = set(), set()

    def walk(x):
        nodes.add(type(x).__name__)
        if isinstance(x, E.Lit):
            lits.add(type(x.value).__name__)
        for v in getattr(x, "values", ()):
            lits.add(type(v).__name__)
        for child in vars(x).values():
            for c in child if isinstance(child, tuple) else (child,):
                if isinstance(c, E.Expr):
                    walk(c)

    for p in PREDICATES:
        walk(p)
    assert nodes == {c.__name__ for c in E.Expr.__subclasses__()}
    assert lits >= {"NoneType", "bool", "int", "float", "str", "date", "datetime", "Decimal"}


def test_to_spark_matches_column_reference(spark):
    df = spark.createDataFrame(ROWS, SCHEMA)
    exprs = []
    for j, p in enumerate(PREDICATES):
        exprs += [F.expr(to_spark(p)).alias(f"sql{j}"), spark_column(p).alias(f"ref{j}")]
    rows = df.select(*exprs).collect()
    differ = [
        (to_spark(p), [(r[f"sql{j}"], r[f"ref{j}"]) for r in rows])
        for j, p in enumerate(PREDICATES)
        if any(r[f"sql{j}"] != r[f"ref{j}"] for r in rows)
    ]
    assert not differ
    # the table exercises both outcomes and NULL
    assert {r[0] for r in rows} == {True, False, None}
