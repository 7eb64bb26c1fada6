"""Per-partition column statistics — the pruning metadata model.

This is the information content of Snowflake's metadata service entries /
Apache Iceberg manifest column stats: per micro-partition, per column, the
(min, max) over non-null values plus a null count, and a partition-level
row count.  All pruning decisions in :mod:`repro.core` consume only this.
"""
from __future__ import annotations

import datetime as _dt
import decimal as _decimal
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: Scalar value types that may appear in column stats.
Value = Any  # int | float | str | bool | datetime.date | datetime.datetime | Decimal


@dataclass(frozen=True)
class ColStats:
    """min/max/null statistics of a single column within one partition.

    ``min``/``max`` are computed over *non-null* values only and are
    ``None`` iff every value in the partition is null.
    """

    min: Optional[Value]
    max: Optional[Value]
    null_count: int = 0

    @property
    def all_null(self) -> bool:
        """True iff the column holds no non-null value in this partition."""
        return self.min is None and self.max is None

    def has_nulls(self) -> bool:
        return self.null_count > 0


@dataclass(frozen=True)
class PartitionStats:
    """Statistics of one micro-partition: row count + per-column stats."""

    row_count: int
    columns: Dict[str, ColStats] = field(default_factory=dict)

    def col(self, name: str) -> Optional[ColStats]:
        """Stats for ``name``, or ``None`` when the column is untracked.

        Untracked columns force conservative (MAYBE) pruning decisions.
        """
        return self.columns.get(name)


def _encode_value(v: Optional[Value]) -> Any:
    """JSON-encode a stats value, tagging dates, datetimes and decimals
    so they round-trip."""
    if isinstance(v, _dt.date) and not isinstance(v, _dt.datetime):
        return {"$date": v.isoformat()}
    if isinstance(v, _dt.datetime):
        return {"$datetime": v.isoformat()}
    if isinstance(v, _decimal.Decimal):
        return {"$decimal": str(v)}
    return v


def _decode_value(v: Any) -> Optional[Value]:
    if isinstance(v, dict):
        if "$date" in v:
            return _dt.date.fromisoformat(v["$date"])
        if "$datetime" in v:
            return _dt.datetime.fromisoformat(v["$datetime"])
        if "$decimal" in v:
            return _decimal.Decimal(v["$decimal"])
    return v


def col_stats_to_json(cs: ColStats) -> dict:
    return {
        "min": _encode_value(cs.min),
        "max": _encode_value(cs.max),
        "null_count": cs.null_count,
    }


def col_stats_from_json(d: dict) -> ColStats:
    return ColStats(
        min=_decode_value(d["min"]),
        max=_decode_value(d["max"]),
        null_count=int(d.get("null_count", 0)),
    )


def partition_stats_to_json(ps: PartitionStats) -> dict:
    return {
        "row_count": ps.row_count,
        "columns": {c: col_stats_to_json(s) for c, s in ps.columns.items()},
    }


def partition_stats_from_json(d: dict) -> PartitionStats:
    return PartitionStats(
        row_count=int(d["row_count"]),
        columns={c: col_stats_from_json(s) for c, s in d["columns"].items()},
    )
