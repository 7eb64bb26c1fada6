"""Manifest data model — the Iceberg-manifest / metadata-service analogue.

A manifest records, for every micro-partition of a table: its Parquet
file path, row count, and per-column min/max/null statistics.  Pruning
(`repro.core`) consumes manifests only — it never touches data files,
mirroring Snowflake's compile-time pruning against the metadata store.
"""
from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from repro.core.stats import (
    PartitionStats,
    partition_stats_from_json,
    partition_stats_to_json,
)


@dataclass(frozen=True)
class PartitionMeta:
    """One micro-partition: identity, location, and pruning statistics."""

    pid: int
    path: str
    stats: PartitionStats

    @property
    def row_count(self) -> int:
        return self.stats.row_count


@dataclass
class Manifest:
    """Table-level metadata: schema + the list of micro-partitions."""

    name: str
    schema_json: str  # Spark StructType JSON, for empty-scan-set reads
    column_types: Dict[str, str]  # simple type tags: int/float/str/date/...
    partitions: List[PartitionMeta]

    @property
    def total_rows(self) -> int:
        return sum(p.row_count for p in self.partitions)

    @property
    def n_partitions(self) -> int:
        return len(self.partitions)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "schema_json": self.schema_json,
            "column_types": self.column_types,
            "partitions": [
                {
                    "pid": p.pid,
                    "path": p.path,
                    "stats": partition_stats_to_json(p.stats),
                }
                for p in self.partitions
            ],
        }

    @classmethod
    def from_json(cls, d: dict) -> "Manifest":
        return cls(
            name=d["name"],
            schema_json=d["schema_json"],
            column_types=dict(d["column_types"]),
            partitions=[
                PartitionMeta(
                    pid=int(p["pid"]),
                    path=p["path"],
                    stats=partition_stats_from_json(p["stats"]),
                )
                for p in d["partitions"]
            ],
        )

    def save(self, path: str | Path) -> None:
        """Write atomically: a temp file in the same directory replaces
        ``path`` only once it is complete, so a failed save leaves the
        previous manifest intact."""
        path = Path(path)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with open(fd, "w") as f:
                f.write(json.dumps(self.to_json(), indent=1))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "Manifest":
        return cls.from_json(json.loads(Path(path).read_text()))
