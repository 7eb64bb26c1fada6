"""Minimal logical query model shared by the workload generator and the
combined pruning flow (§7).

A :class:`QuerySpec` is the slice of a query plan that pruning consumes:
which table scans exist, their predicates, LIMIT/ORDER BY information,
the join build/probe split, and the operators standing between the scan
and a TopK (for Fig. 7 shape checks).  ``to_sql`` renders the query as
SQL text — the corpus for the Table 1 pattern-matching classifier and
the statement the DuckDB oracle verifies.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .expr import (
    And,
    Arith,
    Cmp,
    Col,
    Expr,
    If,
    InList,
    IsNull,
    Like,
    Not,
    Or,
    StartsWith,
    to_sql,
)
from .topk_pruning import PlanOp


def qualify(e: Expr, table: str) -> Expr:
    """Prefix every column reference with ``table.`` for SQL rendering
    in multi-table (join) statements."""
    if isinstance(e, Col):
        return Col(f"{table}.{e.name}")
    if isinstance(e, (Arith, Cmp)):
        return type(e)(e.op, qualify(e.left, table), qualify(e.right, table))
    if isinstance(e, (And, Or)):
        return type(e)(tuple(qualify(a, table) for a in e.args))
    if isinstance(e, Not):
        return Not(qualify(e.arg, table))
    if isinstance(e, If):
        return If(
            qualify(e.cond, table),
            qualify(e.then, table),
            qualify(e.otherwise, table),
        )
    if isinstance(e, Like):
        return Like(qualify(e.arg, table), e.pattern)
    if isinstance(e, StartsWith):
        return StartsWith(qualify(e.arg, table), e.prefix)
    if isinstance(e, InList):
        return InList(qualify(e.arg, table), e.values)
    if isinstance(e, IsNull):
        return IsNull(qualify(e.arg, table))
    return e

#: Query types used across the workload.
SELECT = "select"  # plain select / filter-only
LIMIT = "limit"  # LIMIT without ORDER BY
TOPK = "topk"  # ORDER BY x LIMIT k
TOPK_GROUP_KEY = "topk_group_key"  # GROUP BY x ORDER BY x LIMIT k
TOPK_GROUP_AGG = "topk_group_agg"  # GROUP BY y ORDER BY agg(x) LIMIT k


@dataclass(frozen=True)
class JoinSpec:
    """One hash join: small build side into the spec's main (probe) table."""

    build_table: str
    build_key: str
    probe_key: str
    build_pred: Optional[Expr] = None


@dataclass(frozen=True)
class QuerySpec:
    """A pruning-relevant query description."""

    qtype: str
    table: str
    pred: Optional[Expr] = None
    k: Optional[int] = None
    order_col: Optional[str] = None
    desc: bool = True
    group_cols: Tuple[str, ...] = ()
    agg_fn: Optional[str] = None  # e.g. 'sum' for ORDER BY sum(x)
    agg_col: Optional[str] = None
    join: Optional[JoinSpec] = None
    select_cols: Tuple[str, ...] = ()
    #: operators between the probed scan and the TopK, for Fig. 7 checks
    plan_ops: Tuple[PlanOp, ...] = ()
    #: can the LIMIT be pushed down to this scan (§4.3 shape rule)?
    limit_shape_supported: bool = True

    @property
    def is_topk(self) -> bool:
        return self.qtype in (TOPK, TOPK_GROUP_KEY, TOPK_GROUP_AGG)

    def to_sql(self) -> str:
        """Render as SQL text (classifier corpus / oracle statement)."""
        cols = ", ".join(self.select_cols) if self.select_cols else "*"
        if self.qtype == TOPK_GROUP_KEY:
            keys = ", ".join(self.group_cols)
            cols = keys
        elif self.qtype == TOPK_GROUP_AGG:
            keys = ", ".join(self.group_cols)
            cols = f"{keys}, {self.agg_fn}({self.agg_col}) AS agg_val"
        sql = f"SELECT {cols} FROM {self.table}"
        if self.join is not None:
            j = self.join
            sql += (
                f" JOIN {j.build_table}"
                f" ON {self.table}.{j.probe_key} = {j.build_table}.{j.build_key}"
            )
        preds = []
        if self.pred is not None:
            p = qualify(self.pred, self.table) if self.join else self.pred
            preds.append(to_sql(p))
        if self.join is not None and self.join.build_pred is not None:
            preds.append(
                to_sql(qualify(self.join.build_pred, self.join.build_table))
            )
        if preds:
            sql += " WHERE " + " AND ".join(preds)
        if self.qtype in (TOPK_GROUP_KEY, TOPK_GROUP_AGG):
            sql += " GROUP BY " + ", ".join(self.group_cols)
        if self.qtype == TOPK:
            sql += f" ORDER BY {self.order_col} {'DESC' if self.desc else 'ASC'}"
        elif self.qtype == TOPK_GROUP_KEY:
            sql += f" ORDER BY {self.order_col} {'DESC' if self.desc else 'ASC'}"
        elif self.qtype == TOPK_GROUP_AGG:
            sql += (
                f" ORDER BY {self.agg_fn}({self.agg_col})"
                f" {'DESC' if self.desc else 'ASC'}"
            )
        if self.k is not None:
            sql += f" LIMIT {self.k}"
        return sql
