"""DuckDB oracle for pruning decisions, independent of the program's
pandas backend and of the manifest statistics.

Every table is loaded from its unpruned Parquet files with the file name
of each row, so a partition is identified by its file.  Each check asks
DuckDB what the true answer needs and compares it with the scan set the
program chose:

* filter: every file holding a matching row is retained;
* LIMIT: the chosen files hold at least ``min(k, matching rows)``
  matching rows;
* top-k: the chosen files reproduce the true top-k value list;
* join: every build file with a matching row, and every probe file with
  a row that matches and joins, is retained.

Predicates reach DuckDB as SQL text (``repro.core.expr.to_sql``).  The
generated lakes hold no NaN, so a NaN-related false negative cannot show
here.
"""
from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional

import duckdb

from repro.core import query as q
from repro.core.expr import to_sql


def _where(pred) -> str:
    return "TRUE" if pred is None else to_sql(pred)


def _files(metas: Iterable) -> List[str]:
    return [os.path.realpath(m.path) for m in metas]


class DecisionOracle:
    """Checks §7 flow decisions (``FlowResult``) against the data."""

    def __init__(self, tables: Dict[str, object]):
        self.con = duckdb.connect()
        for name, t in tables.items():
            glob = os.path.join(os.path.realpath(t.path), "data", "*.parquet")
            self.con.execute(
                f"CREATE TABLE {name} AS SELECT * FROM "
                f"read_parquet('{glob}', filename = true)"
            )

    def close(self) -> None:
        self.con.close()

    def _file_set(self, sql: str, params: Optional[list] = None) -> set:
        return {r[0] for r in self.con.execute(sql, params or []).fetchall()}

    def _missing(self, table: str, pred, chosen: List[str]) -> set:
        need = self._file_set(
            f"SELECT DISTINCT filename FROM {table} WHERE {_where(pred)}"
        )
        return need - set(chosen)

    def check(self, res) -> Optional[str]:
        """``None`` if the decision is sound, else what is wrong."""
        spec = res.spec
        main = _files(res.final_main_scan)
        if spec.join is not None:
            return self._check_join(spec, main, _files(res.final_build_scan))
        if spec.qtype == q.LIMIT:
            return self._check_limit(spec, main)
        if spec.is_topk and spec.order_col is not None:
            return self._check_topk(spec, main)
        lost = self._missing(spec.table, spec.pred, main)
        return f"filter dropped {len(lost)} matching file(s)" if lost else None

    def _check_join(self, spec, probe: List[str], build: List[str]) -> Optional[str]:
        j = spec.join
        lost_b = self._missing(j.build_table, j.build_pred, build)
        if lost_b:
            return f"join build side dropped {len(lost_b)} matching file(s)"
        need = self._file_set(
            f"SELECT DISTINCT p.filename FROM "
            f"(SELECT * FROM {spec.table} WHERE {_where(spec.pred)}) p JOIN "
            f"(SELECT {j.build_key} AS _k FROM {j.build_table} "
            f"WHERE {_where(j.build_pred)}) b ON p.{j.probe_key} = b._k"
        )
        lost = need - set(probe)
        return f"join dropped {len(lost)} joinable probe file(s)" if lost else None

    def _check_limit(self, spec, chosen: List[str]) -> Optional[str]:
        w = _where(spec.pred)
        matching = self.con.execute(
            f"SELECT count(*) FROM {spec.table} WHERE {w}"
        ).fetchone()[0]
        got = self.con.execute(
            f"SELECT count(*) FROM {spec.table} "
            f"WHERE {w} AND list_contains(?, filename)",
            [chosen],
        ).fetchone()[0]
        need = min(spec.k, matching)
        return None if got >= need else f"LIMIT set holds {got} < {need} rows"

    def _check_topk(self, spec, chosen: List[str]) -> Optional[str]:
        oc = spec.order_col
        order = f"{oc} {'DESC' if spec.desc else 'ASC'} NULLS LAST"
        group = f" GROUP BY {oc}" if spec.qtype == q.TOPK_GROUP_KEY else ""

        def top(extra: str, params: list) -> list:
            return [
                r[0] for r in self.con.execute(
                    f"SELECT {oc} FROM {spec.table} WHERE {_where(spec.pred)}"
                    f"{extra}{group} ORDER BY {order} LIMIT {spec.k}",
                    params,
                ).fetchall()
            ]

        truth = top("", [])
        got = top(" AND list_contains(?, filename)", [chosen])
        return None if got == truth else "top-k scan set changes the result"
