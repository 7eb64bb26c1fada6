"""Production-like lake tables (the substitution for customer data).

Four tables whose layouts model the patterns that make real-world
pruning effective (and, for ``blob``, ineffective):

* ``events``    — append-only fact table *clustered by event date*;
  ``event_id`` increases with time, so id ranges per micro-partition are
  tight too (the natural correlation of sequence numbers with time).
* ``users``     — dimension *clustered by user_id* (point lookups prune
  to one partition).
* ``incidents`` — small build-side table whose ``event_id`` keys form a
  contiguous recent block, giving join pruning the build/probe layout
  correlation §8.3 calls out as a prerequisite.
* ``blob``      — randomly laid-out table: predicates on it rarely prune
  (the Fig. 4 "27 % of queries see no reduction" population).
"""
from __future__ import annotations

import datetime as _dt
from pathlib import Path
from typing import Dict

import numpy as np
import pyarrow as pa
from pyspark.sql import SparkSession

from repro.lake import LakeTable

#: First event date; events span EVENT_DAYS days from here.
EVENT_EPOCH = _dt.date(2024, 1, 1)
EVENT_DAYS = 400

ETYPES = ["click", "view", "purchase", "login", "error", "refund"]
COUNTRIES = ["DE", "US", "FR", "GB", "IN", "BR", "JP", "AU"]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def build_events(
    path: str | Path,
    *,
    n_rows: int = 40_000,
    n_partitions: int = 40,
    seed: int = 7,
) -> LakeTable:
    """Time-clustered fact table; ``event_id`` monotone in ``ts``."""
    g = _rng(seed)
    day = np.sort(g.integers(0, EVENT_DAYS, n_rows))
    table = pa.table(
        {
            "event_id": np.arange(1, n_rows + 1),
            "ts": np.datetime64(EVENT_EPOCH, "D") + day,
            "user_id": g.integers(1, max(2, n_rows // 20), n_rows),
            "etype": g.choice(ETYPES, n_rows),
            "amount": (g.random(n_rows) * 1000).round(2),
            "duration": g.integers(1, 3600, n_rows),
            "country": g.choice(COUNTRIES, n_rows),
        }
    )
    return LakeTable.write(
        table, path, n_partitions=n_partitions, cluster_by=["ts"], name="events"
    )


def build_users(
    path: str | Path,
    *,
    n_rows: int = 5_000,
    n_partitions: int = 10,
    seed: int = 11,
) -> LakeTable:
    """Id-clustered dimension table."""
    g = _rng(seed)
    table = pa.table(
        {
            "user_id": np.arange(1, n_rows + 1),
            "signup_day": g.integers(0, EVENT_DAYS, n_rows),
            "country": g.choice(COUNTRIES, n_rows),
            "score": (g.random(n_rows) * 100).round(3),
        }
    )
    return LakeTable.write(
        table, path, n_partitions=n_partitions, cluster_by=["user_id"], name="users"
    )


def build_incidents(
    path: str | Path,
    *,
    n_rows: int = 300,
    n_partitions: int = 2,
    events_n_rows: int = 40_000,
    seed: int = 13,
) -> LakeTable:
    """Small build side: keys form one contiguous recent event_id block."""
    g = _rng(seed)
    block_start = int(events_n_rows * 0.9)
    table = pa.table(
        {
            "event_id": g.integers(block_start, events_n_rows + 1, n_rows),
            "severity": g.integers(1, 6, n_rows),
            "assignee": g.choice(COUNTRIES, n_rows),
        }
    )
    return LakeTable.write(
        table, path, n_partitions=n_partitions, cluster_by=["event_id"],
        name="incidents",
    )


def build_tiny(
    path: str | Path,
    *,
    n_rows: int = 64,
    seed: int = 19,
) -> LakeTable:
    """Single-partition dimension table.

    Most real tables are small; the paper's Table 2 shows ~80 % of
    no-predicate LIMIT queries already have a minimal (1-partition) scan
    set — queries against tables like this one are why.
    """
    g = _rng(seed)
    table = pa.table(
        {
            "status_id": np.arange(1, n_rows + 1),
            "label": [f"status-{i}" for i in range(n_rows)],
            "weight": g.random(n_rows).round(4),
        }
    )
    return LakeTable.write(table, path, n_partitions=1, name="tiny")


def build_blob(
    path: str | Path,
    *,
    n_rows: int = 20_000,
    n_partitions: int = 20,
    seed: int = 17,
) -> LakeTable:
    """Unclustered noise table — wide min/max everywhere, little pruning."""
    g = _rng(seed)
    table = pa.table(
        {
            "k": g.integers(1, n_rows, n_rows),
            "v": g.random(n_rows).round(6),
            "cat": g.choice(list("ABCDEFGH"), n_rows),
            "score": (g.random(n_rows) * 100).round(3),
        }
    )
    return LakeTable.write(
        table, path, n_partitions=n_partitions, cluster_by=None, name="blob",
        seed=seed,
    )


def build_production_lake(
    spark: SparkSession,
    root: str | Path,
    *,
    scale: float = 1.0,
    seed: int = 0,
) -> Dict[str, LakeTable]:
    """All five tables at a size scale; scale=1 ≈ unit-test size.

    The tables are written without Spark; ``spark`` is accepted so that
    this function takes the same arguments as ``build_tpch_lake``.
    """
    root = Path(root)
    ev_rows = int(40_000 * scale)
    tables = {
        "events": build_events(
            root / "events",
            n_rows=ev_rows,
            n_partitions=max(4, int(40 * scale)),
            seed=seed + 7,
        ),
        "users": build_users(
            root / "users",
            n_rows=int(5_000 * scale),
            n_partitions=max(2, int(10 * scale)),
            seed=seed + 11,
        ),
        "incidents": build_incidents(
            root / "incidents",
            n_rows=max(50, int(300 * scale)),
            events_n_rows=ev_rows,
            seed=seed + 13,
        ),
        # Kept deliberately small relative to events: zero-pruning
        # tables exist (the Fig. 4 tail) but real platforms' partition
        # mass concentrates in clustered fact tables, which is what
        # makes the partition-weighted 99.4 % possible.
        "blob": build_blob(
            root / "blob",
            n_rows=int(8_000 * scale),
            n_partitions=max(2, int(8 * scale)),
            seed=seed + 17,
        ),
        "tiny": build_tiny(root / "tiny", seed=seed + 19),
    }
    return tables
