"""Experiment harnesses — one function per reproduced evaluation artifact.

Each function computes the rows of one paper table (see DESIGN.md §4)
and returns them as plain dicts; ``format_*`` helpers render them next
to the paper's published numbers so `jobs/` entrypoints and
`benchmarks/` report identical output.  EXPERIMENTS.md records a
captured run.
"""
from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from typing import Dict, List

from repro.core import query as q
from repro.core.flow import run_pruning_flow
from repro.core.filter_pruning import prune_scan_set
from repro.core.limit_pruning import prune_for_limit
from repro.core.topk_pruning import topk_scan
from repro.workload import classifier as C
from repro.workload.generator import LakeShape, WorkloadGenerator
from repro.workload.tpch import tpch_queries

# ---------------------------------------------------------------------------
# Table 1 — relative frequency of LIMIT-query types
# ---------------------------------------------------------------------------

#: Paper, Table 1 (percent of all SELECT queries).
PAPER_TABLE1 = {
    "limit_total": 2.60,
    "limit_no_pred": 0.37,
    "limit_pred": 2.23,
    "topk_total": 5.55,
    "topk_plain": 4.47,
    "topk_group_key": 0.12,
    "topk_group_agg": 0.96,
}


def table1_workload_mix(
    tables: Dict[str, object], *, n: int = 20_000, seed: int = 0
) -> Dict[str, float]:
    """Generate the SELECT-query mix and classify the *SQL texts*."""
    gen = WorkloadGenerator(LakeShape.from_tables(tables), seed=seed)
    counts = Counter(C.classify(s.to_sql()) for s in gen.generate(n))
    pct = {k: 100.0 * v / n for k, v in counts.items()}
    return {
        "limit_total": pct.get(C.LIMIT_NO_PRED, 0) + pct.get(C.LIMIT_PRED, 0),
        "limit_no_pred": pct.get(C.LIMIT_NO_PRED, 0),
        "limit_pred": pct.get(C.LIMIT_PRED, 0),
        "topk_total": (
            pct.get(C.TOPK_PLAIN, 0)
            + pct.get(C.TOPK_GROUP_KEY, 0)
            + pct.get(C.TOPK_GROUP_AGG, 0)
        ),
        "topk_plain": pct.get(C.TOPK_PLAIN, 0),
        "topk_group_key": pct.get(C.TOPK_GROUP_KEY, 0),
        "topk_group_agg": pct.get(C.TOPK_GROUP_AGG, 0),
    }


# ---------------------------------------------------------------------------
# Table 2 — LIMIT-pruning applicability breakdown
# ---------------------------------------------------------------------------

#: Paper, Table 2 (percent of LIMIT queries per bucket).
PAPER_TABLE2 = {
    "without": {
        "already_minimal": 79.60, "unsupported_shape": 1.74,
        "pruned_to_1": 16.58, "pruned_to_gt1": 1.54,
    },
    "with": {
        "already_minimal": 61.65, "unsupported_shape": 36.23,
        "pruned_to_1": 1.71, "pruned_to_gt1": 0.01,
    },
    "overall": {
        "already_minimal": 64.22, "unsupported_shape": 31.28,
        "pruned_to_1": 3.85, "pruned_to_gt1": 0.23,
    },
}

_T2_BUCKETS = (
    "already_minimal", "unsupported_shape", "pruned_to_1", "pruned_to_gt1"
)


def table2_limit_breakdown(
    tables: Dict[str, object], *, n: int = 600, seed: int = 0
) -> Dict[str, Dict[str, float]]:
    """Run LIMIT pruning for a generated LIMIT workload; bucket outcomes."""
    gen = WorkloadGenerator(LakeShape.from_tables(tables), seed=seed)
    counts: Dict[str, Counter] = {
        "without": Counter(), "with": Counter(), "overall": Counter()
    }
    totals = Counter()
    for spec in gen.generate_limit_workload(n):
        fr = prune_scan_set(tables[spec.table].manifest.partitions, spec.pred)
        out = prune_for_limit(
            fr, spec.k, shape_supported=spec.limit_shape_supported
        )
        group = "with" if spec.pred is not None else "without"
        for g in (group, "overall"):
            counts[g][out.reported_category] += 1
            totals[g] += 1
    return {
        g: {
            b: 100.0 * counts[g][b] / totals[g] if totals[g] else 0.0
            for b in _T2_BUCKETS
        }
        for g in ("without", "with", "overall")
    }


# ---------------------------------------------------------------------------
# Table 3 — headline per-technique pruning ratios (§9 / Figs. 1, 4, 10)
# ---------------------------------------------------------------------------

#: Paper §9: mean pruning ratio per applicable technique + overall share
#: of micro-partitions pruned platform-wide.
PAPER_TABLE3 = {
    "filter": 99.0, "limit": 70.0, "topk": 77.0, "join": 79.0,
    "overall": 99.4,
    "fig4_pct_queries_ge90": 36.0,
    "fig4_pct_queries_zero": 27.0,
}


def table3_pruning_ratios(
    tables: Dict[str, object], *, n: int = 800, seed: int = 0
) -> Dict[str, float]:
    """Full §7 flow over the production-like mix; aggregate per technique.

    Per-technique numbers are mean pruning ratios over queries where the
    technique was *successfully applied* — the paper's Fig. 1 "eligible
    queries" / §5.5 "successfully applied" / Fig. 10 "able to
    successfully use join pruning" populations.  ``overall`` is
    partition-weighted across every query, the basis of the 99.4 %
    claim; the Fig. 4 rows use the broader any-predicate basis.
    """
    gen = WorkloadGenerator(LakeShape.from_tables(tables), seed=seed)
    per_tech: Dict[str, List[float]] = defaultdict(list)
    filter_eligible_ratios: List[float] = []
    total_parts = 0
    total_final = 0
    for spec in gen.generate(n):
        r = run_pruning_flow(spec, tables)
        total_parts += r.total_partitions
        total_final += r.final_scanned
        ft = r.techniques["filter"]
        if ft.eligible:
            filter_eligible_ratios.append(ft.ratio)
        if ft.applied:
            per_tech["filter"].append(ft.ratio)
        for tech in ("limit", "topk", "join"):
            t = r.techniques[tech]
            if t.applied:
                per_tech[tech].append(t.ratio)
    out = {
        "filter": 100.0 * statistics.mean(per_tech["filter"]),
        "overall": 100.0 * (1.0 - total_final / total_parts),
        "fig4_pct_queries_ge90": 100.0
        * sum(1 for x in filter_eligible_ratios if x >= 0.9)
        / len(filter_eligible_ratios),
        "fig4_pct_queries_zero": 100.0
        * sum(1 for x in filter_eligible_ratios if x == 0.0)
        / len(filter_eligible_ratios),
    }
    for tech in ("limit", "topk", "join"):
        vals = per_tech[tech]
        out[tech] = 100.0 * statistics.mean(vals) if vals else 0.0
        out[f"n_{tech}"] = len(vals)
    return out


# ---------------------------------------------------------------------------
# Table 4 — §8.3 TPC-H pruning ratios
# ---------------------------------------------------------------------------

#: Paper §8.3 / Fig. 13.
PAPER_TABLE4 = {"avg": 28.7, "median": 8.3}


def table4_tpch(tables: Dict[str, object]) -> Dict[str, object]:
    per_query = {}
    for name, spec in tpch_queries():
        r = run_pruning_flow(spec, tables)
        per_query[name] = 100.0 * r.overall_ratio
    vals = list(per_query.values())
    return {
        "per_query": per_query,
        "avg": statistics.mean(vals),
        "median": statistics.median(vals),
    }


# ---------------------------------------------------------------------------
# Table 5 — Fig. 8 as a table: sorting strategy vs top-k pruning ratio
# ---------------------------------------------------------------------------

#: Fig. 8 (read off the plot): sorting lifts the median pruning ratio
#: from roughly 0.35 to roughly 0.75 and tightens the lower tail.
PAPER_TABLE5 = {"none_median": 0.35, "sort_median": 0.75}


def table5_topk_sorting(
    tables: Dict[str, object], *, n: int = 120, seed: int = 0,
    k_cap: int = 100, min_scan_partitions: int = 8,
) -> Dict[str, Dict[str, float]]:
    """Fig. 8's sample keeps only queries with >= 1 s runtime when top-k
    pruning is off — i.e. large post-filter scans; ``min_scan_partitions``
    is the reproduction-scale proxy for that cut."""
    gen = WorkloadGenerator(LakeShape.from_tables(tables), seed=seed)
    results: Dict[str, List[float]] = {"none": [], "sort": []}
    for spec in gen.generate_topk_workload(n, k_cap=k_cap):
        table = tables[spec.table]
        fr = prune_scan_set(table.manifest.partitions, spec.pred)
        if len(fr.retained) < min_scan_partitions:
            continue
        for strategy, key in (("random", "none"), ("sort", "sort")):
            tr = topk_scan(
                fr.retained,
                table.read_partition_pandas,
                spec.order_col,
                spec.k,
                pred=spec.pred,
                desc=spec.desc,
                strategy=strategy,
                seed=seed,
            )
            results[key].append(tr.pruning_ratio)
    def stats(vals: List[float]) -> Dict[str, float]:
        qs = statistics.quantiles(vals, n=4)
        return {
            "mean": statistics.mean(vals), "p25": qs[0],
            "median": qs[1], "p75": qs[2],
        }
    return {k: stats(v) for k, v in results.items()}


# ---------------------------------------------------------------------------
# Table 6 — Fig. 9 as a table: pruning ratio vs runtime improvement
# ---------------------------------------------------------------------------

#: Fig. 9: strong correlation between pruning ratio and relative runtime
#: improvement; clustered order columns reach >90 % improvements.
PAPER_TABLE6 = {"correlation": "positive", "max_improvement": ">0.999"}


def table6_topk_runtime(
    spark, tables: Dict[str, object], *, k: int = 10, repeats: int = 3
) -> List[Dict[str, object]]:
    """End-to-end Spark top-k: Spark's native ``ORDER BY … LIMIT`` over the
    table directory (``t_off``) against ``topk_execute`` over the pruned
    scan set (``t_on``, pruning decision included).

    Each side is warmed up by one untimed run; its time is the fastest of
    ``repeats`` runs.
    """
    from pyspark.sql import functions as F

    from repro.engine.exec_ops import topk_execute

    cases = [
        ("events ORDER BY ts DESC", "events", "ts", True),
        ("events ORDER BY ts ASC", "events", "ts", False),
        ("events ORDER BY event_id DESC", "events", "event_id", True),
        ("events ORDER BY amount DESC", "events", "amount", True),
        ("users ORDER BY user_id DESC", "users", "user_id", True),
    ]

    def fastest(run):
        """(fastest time of ``repeats`` warm runs, last run's result)"""
        out = run()
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = run()
            best = min(best, time.perf_counter() - t0)
        return best, out

    rows = []
    for label, tname, order_col, desc in cases:
        table = tables[tname]
        o = F.col(order_col)
        o = o.desc_nulls_last() if desc else o.asc_nulls_last()

        def native():
            return (
                spark.read.parquet(str(table.path / "data"))
                .orderBy(o).limit(k).collect()
            )

        def pruned():
            df, tr = topk_execute(spark, table, order_col=order_col, k=k, desc=desc)
            df.collect()
            return tr

        t_off, _ = fastest(native)
        t_on, tr = fastest(pruned)
        rows.append(
            {
                "query": label,
                "pruning_ratio": tr.pruning_ratio,
                "t_unpruned_s": t_off,
                "t_pruned_s": t_on,
                "runtime_improvement": 1.0 - t_on / t_off,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def format_table1(ours: Dict[str, float]) -> str:
    rows = [
        ("LIMIT queries", "limit_total"),
        ("  LIMIT without predicate", "limit_no_pred"),
        ("  LIMIT with predicate", "limit_pred"),
        ("Top-k queries", "topk_total"),
        ("  ORDER BY x LIMIT k", "topk_plain"),
        ("  GROUP BY x ORDER BY x LIMIT k", "topk_group_key"),
        ("  GROUP BY y ORDER BY agg(x) LIMIT k", "topk_group_agg"),
    ]
    out = [f"{'Type':38s} {'paper %':>8s} {'ours %':>8s}"]
    for label, key in rows:
        out.append(
            f"{label:38s} {PAPER_TABLE1[key]:8.2f} {ours[key]:8.2f}"
        )
    return "\n".join(out)


def format_table2(ours: Dict[str, Dict[str, float]]) -> str:
    out = [
        f"{'Queries with':28s}"
        + "".join(f" {g + ' paper':>14s} {g + ' ours':>12s}"
                  for g in ("without", "with", "overall"))
    ]
    labels = {
        "already_minimal": "already minimal scan set",
        "unsupported_shape": "unsupported shapes",
        "pruned_to_1": "pruning to = 1 partition",
        "pruned_to_gt1": "pruning to > 1 partitions",
    }
    for b in _T2_BUCKETS:
        row = f"{labels[b]:28s}"
        for g in ("without", "with", "overall"):
            row += f" {PAPER_TABLE2[g][b]:14.2f} {ours[g][b]:12.2f}"
        out.append(row)
    return "\n".join(out)


def format_table3(ours: Dict[str, float]) -> str:
    out = [f"{'Technique':28s} {'paper %':>8s} {'ours %':>8s}"]
    for key, label in [
        ("filter", "filter pruning (eligible)"),
        ("limit", "LIMIT pruning (applied)"),
        ("topk", "top-k pruning (applied)"),
        ("join", "join pruning (applied)"),
        ("overall", "overall partitions pruned"),
        ("fig4_pct_queries_ge90", "queries >=90% pruned (Fig4)"),
        ("fig4_pct_queries_zero", "queries 0% pruned (Fig4)"),
    ]:
        out.append(
            f"{label:28s} {PAPER_TABLE3[key]:8.1f} {ours[key]:8.1f}"
        )
    return "\n".join(out)


def format_table4(ours: Dict[str, object]) -> str:
    out = [f"{'TPC-H query':12s} {'ours %':>8s}"]
    for name, v in ours["per_query"].items():
        out.append(f"{name:12s} {v:8.1f}")
    out.append(
        f"{'average':12s} {ours['avg']:8.1f}   (paper {PAPER_TABLE4['avg']})"
    )
    out.append(
        f"{'median':12s} {ours['median']:8.1f}   "
        f"(paper {PAPER_TABLE4['median']})"
    )
    return "\n".join(out)


def format_table5(ours: Dict[str, Dict[str, float]]) -> str:
    out = [f"{'Strategy':10s} {'p25':>6s} {'median':>8s} {'p75':>6s} {'mean':>6s}"]
    for k in ("none", "sort"):
        s = ours[k]
        out.append(
            f"{k:10s} {s['p25']:6.2f} {s['median']:8.2f} "
            f"{s['p75']:6.2f} {s['mean']:6.2f}"
        )
    out.append(
        f"(paper Fig. 8: median ~{PAPER_TABLE5['none_median']} unsorted "
        f"vs ~{PAPER_TABLE5['sort_median']} sorted)"
    )
    return "\n".join(out)


def format_table6(rows: List[Dict[str, object]]) -> str:
    out = [
        f"{'Query':32s} {'ratio':>6s} {'t_off s':>8s} {'t_on s':>8s} "
        f"{'improv':>7s}"
    ]
    for r in rows:
        out.append(
            f"{r['query']:32s} {r['pruning_ratio']:6.2f} "
            f"{r['t_unpruned_s']:8.3f} {r['t_pruned_s']:8.3f} "
            f"{r['runtime_improvement']:7.1%}"
        )
    return "\n".join(out)
