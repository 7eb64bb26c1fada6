"""SQL-text classifier for LIMIT/top-k query types (Table 1 methodology).

The paper derives Table 1 "based on pattern-matching on SQL texts"; this
module is that measurement code path.  It sees only the SQL string — not
the query spec — so the reproduced Table 1 genuinely exercises textual
classification (including distinguishing ``ORDER BY agg(x)`` from
``ORDER BY key``) rather than echoing generator labels.
"""
from __future__ import annotations

import re
from typing import Optional

# Table 1 categories.
LIMIT_NO_PRED = "limit_no_pred"
LIMIT_PRED = "limit_pred"
TOPK_PLAIN = "topk_plain"  # ORDER BY x LIMIT k
TOPK_GROUP_KEY = "topk_group_key"  # GROUP BY x ORDER BY x LIMIT k
TOPK_GROUP_AGG = "topk_group_agg"  # GROUP BY y ORDER BY agg(x) LIMIT k
OTHER = "other"

_LIMIT_RE = re.compile(r"\bLIMIT\s+\d+", re.IGNORECASE)
_ORDER_RE = re.compile(r"\bORDER\s+BY\s+(.+?)(?:\bLIMIT\b|$)", re.IGNORECASE | re.DOTALL)
_GROUP_RE = re.compile(
    r"\bGROUP\s+BY\s+(.+?)(?:\bORDER\b|\bLIMIT\b|\bHAVING\b|$)",
    re.IGNORECASE | re.DOTALL,
)
_WHERE_RE = re.compile(r"\bWHERE\b", re.IGNORECASE)
_AGG_RE = re.compile(r"\b(?:sum|count|min|max|avg|stddev|median)\s*\(", re.IGNORECASE)


def _order_exprs(sql: str) -> Optional[str]:
    m = _ORDER_RE.search(sql)
    return m.group(1).strip() if m else None


def _group_keys(sql: str) -> Optional[list]:
    m = _GROUP_RE.search(sql)
    if not m:
        return None
    return [k.strip().lower() for k in m.group(1).split(",") if k.strip()]


def classify(sql: str) -> str:
    """Map one SQL text to its Table 1 category."""
    if not _LIMIT_RE.search(sql):
        return OTHER
    order = _order_exprs(sql)
    if order is None:
        return LIMIT_PRED if _WHERE_RE.search(sql) else LIMIT_NO_PRED
    groups = _group_keys(sql)
    if groups is None:
        return TOPK_PLAIN
    if _AGG_RE.search(order):
        return TOPK_GROUP_AGG
    order_cols = [
        c.strip().lower().removesuffix(" desc").removesuffix(" asc").strip()
        for c in order.split(",")
    ]
    if set(order_cols) <= set(groups):
        return TOPK_GROUP_KEY
    return TOPK_GROUP_AGG
