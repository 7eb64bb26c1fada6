"""The benchmark's workloads: inputs from a seed, one query at a time.

Both workloads run over ``build_production_lake(scale=LAKE_SCALE)``, the
lake the program's own generator builds, with the seed driving the lake
data and the query list.  The load is a single closed-loop client: the
next query starts when the previous one has returned.

* ``prod_mix``: the Table-1 production mix (``WorkloadGenerator.generate``)
  through the §7 pruning flow (``run_pruning_flow``); decisions only, no
  Spark execution.  Checked against DuckDB (``oracle.DecisionOracle``).
* ``spark_exec``: top-k (``topk_execute``, k <= 100), filters on
  ``events`` (``filtered_scan``) and joins (``pruned_hash_join``),
  executed and collected.  After the timed loop each query runs on
  Spark's native plan over the table directory, once untimed and then as
  often as the loop ran it pruned; the results must agree.

Query lists are stratified: the strata are query shapes that decide how
much work a query is (class, table, order column, predicate shape, size
of k, build table), and every seed gets the same number of queries of
each shape, allotted from a pool of a fixed reference seed.  The seed
then draws the queries that fill those quotas, so seeds differ in
constants and data, not in how many expensive shapes they happen to
draw; that keeps runs with different seeds comparable.
"""
from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import expr as E
from repro.core import flow
from repro.core import query as q
from repro.engine import exec_ops
from repro.workload.generator import LakeShape, WorkloadGenerator

#: ``build_production_lake`` scale: 40 ``events`` partitions, 61 in all.
LAKE_SCALE = 1.0
#: Queries in the ``prod_mix`` list.
PROD_MIX_QUERIES = 1600
#: ``spark_exec`` list: top-k, ``events`` filters, joins.
SPARK_EXEC_QUERIES = {"topk": 7, "filter": 7, "join": 5}
#: top-k queries run as ``topk_execute`` keep k small, as in Fig. 9.
SPARK_TOPK_K_CAP = 100
#: Quotas come from a pool this many times larger than the list, drawn
#: with this seed.
POOL_FACTOR = 4
REFERENCE_SEED = 0
#: Draws allowed per query when filling the quotas.
MAX_DRAWS_PER_QUERY = 20
#: Filters the traced ``spark_exec`` run repeats through ``lakescan``.
LAKESCAN_QUERIES = 2


def query_class(spec: q.QuerySpec) -> str:
    """``join`` | ``limit`` | ``topk`` | ``filter`` | ``scan``."""
    if spec.join is not None:
        return "join"
    if spec.qtype == q.LIMIT:
        return "limit"
    if spec.is_topk:
        return "topk"
    return "filter" if spec.pred is not None else "scan"


def pred_shape(pred: Optional[E.Expr]) -> Tuple:
    """The (column, operator) pairs of a predicate's comparisons."""
    if pred is None:
        return ()
    if isinstance(pred, E.Cmp) and isinstance(pred.left, E.Col):
        return ((pred.left.name, pred.op),)
    if isinstance(pred, (E.And, E.Or)):
        return tuple(sorted(x for a in pred.args for x in pred_shape(a)))
    if isinstance(pred, E.InList) and isinstance(pred.arg, E.Col):
        return ((pred.arg.name, "in"),)
    return (type(pred).__name__,)


def shape(spec: q.QuerySpec) -> Tuple:
    """Stratum of a query: what decides how much work it is."""
    cls = query_class(spec)
    if cls == "topk":
        k = spec.k or 0
        k_size = sum(k > b for b in (100, 5_000, 10_000))
        return (cls, spec.qtype, spec.table, spec.order_col, pred_shape(spec.pred), k_size)
    if cls == "join":
        return (cls, spec.join.build_table, pred_shape(spec.pred))
    if cls == "filter" and spec.table == "events":
        return (cls, spec.table, pred_shape(spec.pred))
    return (cls, spec.table, spec.pred is not None)


def quotas(pool: List[q.QuerySpec], n: int) -> Dict[Tuple, int]:
    """Queries per shape for a list of ``n``: each shape's share of
    ``pool``, rounded by largest remainder."""
    sizes = Counter(shape(s) for s in pool)
    keys = sorted(sizes, key=repr)
    exact = {k: n * sizes[k] / len(pool) for k in keys}
    take = {k: int(exact[k]) for k in keys}
    by_remainder = sorted(keys, key=lambda k: (take[k] - exact[k], repr(k)))
    for k in by_remainder[: n - sum(take.values())]:
        take[k] += 1
    return {k: v for k, v in take.items() if v}


def fill(
    draw: Callable[[], q.QuerySpec], want: Dict[Tuple, int], rng: np.random.Generator
) -> List[q.QuerySpec]:
    """Draw queries until every shape's quota is met (or the draw budget
    is spent), in a seeded random order."""
    left = dict(want)
    out: List[q.QuerySpec] = []
    for _ in range(MAX_DRAWS_PER_QUERY * sum(want.values())):
        if len(out) == sum(want.values()):
            break
        s = draw()
        k = shape(s)
        if left.get(k, 0) > 0:
            left[k] -= 1
            out.append(s)
    return [out[i] for i in rng.permutation(len(out))]


@dataclass
class Query:
    qid: int
    cls: str
    spec: q.QuerySpec


@dataclass
class Outcome:
    """One execution of one query."""

    ms: float  # the program's latency for the query
    touched: int  # partitions the query touches without pruning
    scanned: int  # partitions left after pruning
    error: Optional[str] = None  # raised while running
    result: object = None  # FlowResult or collected rows, for the check


def _queries(specs: List[q.QuerySpec]) -> List[Query]:
    return [Query(i, query_class(s), s) for i, s in enumerate(specs)]


def _generator(tables, seed: int) -> WorkloadGenerator:
    return WorkloadGenerator(LakeShape.from_tables(tables), seed=seed)


# --------------------------------------------------------------------------
# prod_mix
# --------------------------------------------------------------------------


class ProdMix:
    uses_spark = False  # after set-up

    def __init__(self, spark, tables, seed: int):
        self.tables = tables
        self.tracer = None
        ref = _generator(tables, REFERENCE_SEED).generate(POOL_FACTOR * PROD_MIX_QUERIES)
        g = _generator(tables, seed)
        self.queries = _queries(fill(g.sample, quotas(ref, PROD_MIX_QUERIES), g.rng))
        self.warmup = self.queries[:40]

    def run(self, query: Query) -> Outcome:
        t0 = time.perf_counter()
        res = flow.run_pruning_flow(query.spec, self.tables)
        ms = (time.perf_counter() - t0) * 1e3
        return Outcome(ms, res.total_partitions, res.final_scanned, result=res)

    def check(self, loop) -> Tuple[List[Optional[str]], dict]:
        """DuckDB verdict per query of the loop's first pass, and
        report-only metrics (none)."""
        from .oracle import DecisionOracle

        oracle = DecisionOracle(self.tables)
        try:
            return [o.error or oracle.check(o.result) for o in loop.first], {}
        finally:
            oracle.close()

    def extra_traced(self) -> List[str]:
        return []


# --------------------------------------------------------------------------
# spark_exec
# --------------------------------------------------------------------------


def _multiset(rows) -> Counter:
    return Counter(tuple(r) for r in rows)


class SparkExec:
    uses_spark = True

    def __init__(self, spark, tables, seed: int):
        self.spark = spark
        self.tables = tables
        self.tracer = None  # set by the harness for the traced loop
        g = _generator(tables, seed)
        ref = _generator(tables, REFERENCE_SEED)
        specs = []
        for cls, n in SPARK_EXEC_QUERIES.items():
            draw = self._draw(g, cls)
            pool = [self._draw(ref, cls)() for _ in range(POOL_FACTOR * n)]
            chosen = fill(draw, quotas(pool, n), g.rng)
            specs += [(i / n, cls, s) for i, s in enumerate(chosen)]
        # Interleave the classes so any prefix of the list is a mix.
        specs.sort(key=lambda t: t[:2])
        self.queries = _queries([s for _, _, s in specs])
        # A query's first run in the JVM is up to 2x slower than the next
        # (plan code generation, file metadata): warm up the whole list.
        self.warmup = self.queries

    @staticmethod
    def _draw(g: WorkloadGenerator, cls: str) -> Callable[[], q.QuerySpec]:
        if cls == "topk":
            return lambda: g.generate_topk_workload(1, k_cap=SPARK_TOPK_K_CAP)[0]
        if cls == "join":
            return lambda: g.sample("join")

        def events_filter() -> q.QuerySpec:
            s = g.sample("select_filter")
            while s.table != "events":
                s = g.sample("select_filter")
            return s

        return events_filter

    # -- one query ---------------------------------------------------------------

    def _span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def _collect(self, df) -> list:
        if self.tracer is not None:
            with self.tracer.span("spark.plan"):
                df._jdf.queryExecution().executedPlan()
            with self.tracer.span("spark.exec"):
                return df.collect()
        return df.collect()

    def run(self, query: Query) -> Outcome:
        spec = query.spec
        t0 = time.perf_counter()
        t = self.tables[spec.table]
        n = t.manifest.n_partitions
        if spec.is_topk:
            df, tr = exec_ops.topk_execute(
                self.spark, t, order_col=spec.order_col, k=spec.k,
                pred=spec.pred, desc=spec.desc,
            )
            touched, scanned = n, len(tr.scanned)
        elif spec.join is None:
            df, pr = exec_ops.filtered_scan(self.spark, t, spec.pred)
            touched, scanned = n, len(pr.retained)
        else:
            j = spec.join
            b = self.tables[j.build_table]
            df, st = exec_ops.pruned_hash_join(
                self.spark, t, b, probe_key=j.probe_key, build_key=j.build_key,
                probe_pred=spec.pred, build_pred=j.build_pred,
            )
            touched = n + b.manifest.n_partitions
            scanned = st["probe_after"] + st["build_partitions"]
        rows = self._collect(df)
        ms = (time.perf_counter() - t0) * 1e3
        return Outcome(ms, touched, scanned, result=rows)

    # -- the native plan ---------------------------------------------------------

    def _read(self, name: str):
        return self.spark.read.parquet(str(self.tables[name].path / "data"))

    def native(self, spec: q.QuerySpec) -> list:
        """The same query on Spark's own plan over the table directory."""
        from pyspark.sql import functions as F

        df = self._read(spec.table)
        if spec.pred is not None:
            df = df.filter(E.to_spark(spec.pred))
        if spec.is_topk:
            o = F.col(spec.order_col)
            o = o.desc_nulls_last() if spec.desc else o.asc_nulls_last()
            return df.orderBy(o).limit(spec.k).collect()
        if spec.join is not None:
            j = spec.join
            b = self._read(j.build_table)
            if j.build_pred is not None:
                b = b.filter(E.to_spark(j.build_pred))
            df = df.join(b, on=df[j.probe_key] == b[j.build_key], how="inner")
        return df.collect()

    def check(self, loop) -> Tuple[List[Optional[str]], dict]:
        """Run every query on the native plan; compare results and time.

        Like the pruned side, each query's native plan is warmed up by
        one untimed run; it then runs as often as the timed loop ran it
        pruned.  ``speedup_vs_native`` divides the summed native time by
        the summed pruned time, each query counted by its fastest run on
        either side.
        """
        pruned, runs = loop.fastest(), loop.runs()
        verdicts, nat_sum, pruned_sum = [], 0.0, 0.0
        for query, out in zip(self.queries, loop.first):
            if out.error is not None:
                verdicts.append(out.error)
                continue
            self.native(query.spec)
            best = float("inf")
            for _ in range(runs[query.qid]):
                t0 = time.perf_counter()
                with self._span("spark.native"):
                    nat = self.native(query.spec)
                best = min(best, (time.perf_counter() - t0) * 1e3)
            nat_sum += best
            pruned_sum += pruned[query.qid]
            if query.spec.is_topk:  # ties may pick other rows: compare values
                oc = query.spec.order_col
                same = [r[oc] for r in out.result] == [r[oc] for r in nat]
            else:
                same = _multiset(out.result) == _multiset(nat)
            verdicts.append(None if same else "pruned result differs from the native plan")
        speedup = nat_sum / pruned_sum if pruned_sum else None
        return verdicts, {"speedup_vs_native": speedup}

    # -- lakescan, traced run only -------------------------------------------------

    def extra_traced(self) -> List[str]:
        """Selective ``events`` filters through the ``lakescan`` source;
        returns the queries whose rows differ from the native plan."""
        from repro.core.filter_pruning import prune_scan_set
        from repro.engine.datasource import LakeScanDataSource

        ev = self.tables["events"]
        picks = [
            x for x in self.queries
            if x.cls == "filter"
            and len(prune_scan_set(ev.manifest.partitions, x.spec.pred).retained) <= 8
        ][:LAKESCAN_QUERIES]
        errors: List[str] = []
        if not picks:
            return errors
        self.spark.dataSource.register(LakeScanDataSource)
        self.spark.conf.set("spark.sql.python.filterPushdown.enabled", "true")
        for x in picks:
            self.tracer.query = x.qid
            df = (
                self.spark.read.format("lakescan").option("path", str(ev.path))
                .load().filter(E.to_spark(x.spec.pred))
            )
            with self.tracer.span("lakescan") as s:
                rows = df.collect()
            s.counts = {"partitions": df.rdd.getNumPartitions()}
            if _multiset(rows) != _multiset(self.native(x.spec)):
                errors.append(f"q{x.qid}: lakescan rows differ from the native plan")
        return errors


WORKLOADS: Dict[str, Callable] = {"prod_mix": ProdMix, "spark_exec": SparkExec}
