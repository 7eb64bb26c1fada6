"""Self-tests of the benchmark.

Run with ``python -m pytest perfbench -q`` from the repository root.
The end-to-end tests start the benchmark as a subprocess, as the command
in ``BENCHMARK.json`` does; the rest run in-process.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, tracing
from perfbench.workloads import LAKE_SCALE

ROOT = Path(__file__).resolve().parent.parent

#: Count-valued per-layer metrics, and ratios of counts: these must
#: repeat exactly for a seed.
COUNT_METRICS = [
    n for n, (u, _) in tracing.LAYER_METRICS.items() if u == "count"
] + [
    "filter.pruned_frac", "limit.pruned_frac", "limit.fully_matching_frac",
    "join.pruned_frac", "topk.pruned_frac",
]


def _bench(workload: str, seed: int, trace: int) -> dict:
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert p.returncode == 0, p.stderr[-3000:]
    last = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    full = json.loads(
        (ROOT / ".perfbench_out" / f"result-{workload}-seed{seed}-trace{trace}.json")
        .read_text()
    )
    return {"last": last, **full}


@pytest.fixture(scope="module")
def prod_mix_runs():
    return [_bench("prod_mix", 5, 1), _bench("prod_mix", 5, 1), _bench("prod_mix", 6, 0)]


def test_same_seed_repeats_queries_and_counts(prod_mix_runs):
    a, b, _ = prod_mix_runs
    assert a["last"]["correct"] and b["last"]["correct"]
    assert a["env"]["query_digest"] == b["env"]["query_digest"]
    assert a["end_to_end"]["pruned_frac"] == b["end_to_end"]["pruned_frac"]
    for name in COUNT_METRICS:
        assert a["per_layer"][name] == b["per_layer"][name], name
    for name in ("lake.partition_reads", "join.summary_ranges", "filter.calls",
                 "topk.partitions_read", "flow.ms", "flow.self_ms"):
        assert a["per_layer"][name] > 0, name


def test_other_seed_changes_queries(prod_mix_runs):
    a, _, c = prod_mix_runs
    assert a["env"]["query_digest"] != c["env"]["query_digest"]
    assert set(c["last"]["metrics"]) == set(harness.END_TO_END)


def test_lake_has_requested_partitions(prod_mix_runs):
    # Range partitioning caps a table at its distinct clustering values;
    # the benchmark lake must really have the partitions it asks for.
    tables = prod_mix_runs[0]["env"]["tables"]
    assert tables["events"]["partitions"] == int(40 * LAKE_SCALE)
    assert tables["users"]["partitions"] == int(10 * LAKE_SCALE)
    assert tables["blob"]["partitions"] == int(8 * LAKE_SCALE)


def test_spark_exec_traced_run_reports_every_layer():
    r = _bench("spark_exec", 5, 1)
    assert r["last"]["correct"]
    names = set(tracing.LAYER_METRICS) | set(harness.TRACE_METRICS)
    assert set(r["last"]["metrics"]) == names
    pl = r["per_layer"]
    for name in ("spark.exec_ms", "spark.native_ms", "spark.list_plan_ms",
                 "engine.decide_ms", "topk.scan_ms", "join.summary_build_ms"):
        assert pl[name] > 0, name


def test_no_program_exits_nonzero_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prod_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert p.stdout.strip() == ""


# -- in-process -----------------------------------------------------------


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == harness.END_TO_END
    layers = {n: u for n, (u, _) in tracing.LAYER_METRICS.items()}
    layers.update(harness.TRACE_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers


def test_tail_has_ten_samples_beyond():
    xs = [float(i) for i in range(30)]
    value, pct, n = harness.tail(xs)
    assert sum(x > value for x in xs) == harness.TAIL_BEYOND
    assert (n, round(pct, 2)) == (30, 66.67)
    assert harness.tail(xs[:10])[0] is None


def test_tracer_wraps_and_restores():
    import repro.core.flow as flow
    import repro.core.filter_pruning as fp
    from repro.lake import LakeTable

    original, write = fp.prune_scan_set, LakeTable.__dict__["write"]
    t = tracing.Tracer()
    t.install()
    try:
        assert t.missing == []
        assert flow.prune_scan_set is fp.prune_scan_set is not original
        assert isinstance(LakeTable.__dict__["write"], staticmethod)
    finally:
        t.uninstall()
    assert flow.prune_scan_set is fp.prune_scan_set is original
    assert LakeTable.__dict__["write"] is write


def test_missing_target_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(
        tracing, "TARGETS",
        tracing.TARGETS + (("topk.scan", "repro.core.topk_pruning", "gone", None),),
    )
    t = tracing.Tracer()
    t.install()
    t.uninstall()
    assert t.missing == ["repro.core.topk_pruning.gone"]
    m = tracing.layer_metrics(t, "pass0", ["pass0"])
    assert m["topk.scan_ms"] is None and m["filter.calls"] == 0


def test_self_time_excludes_children():
    t = tracing.Tracer()
    t.phase = "pass0"
    with t.span("flow"):
        with t.span("filter.prune"):
            pass
    flow, child = t.spans
    flow.start, flow.end, child.start, child.end = 0.0, 0.010, 0.002, 0.006
    m = tracing.layer_metrics(t, "pass0", ["pass0"])
    assert m["flow.ms"] == pytest.approx(10.0)
    assert m["flow.self_ms"] == pytest.approx(6.0)


def test_oracle_rejects_unsound_decisions(spark, tmp_path):
    from repro.core.flow import run_pruning_flow
    from repro.core.query import QuerySpec, SELECT, TOPK
    from repro.core.expr import col
    from repro.workload.tables import build_production_lake

    from perfbench.oracle import DecisionOracle

    tables = build_production_lake(spark, tmp_path, scale=0.25, seed=3)
    oracle = DecisionOracle(tables)
    try:
        sel = run_pruning_flow(
            QuerySpec(qtype=SELECT, table="users", pred=col("user_id") <= 600),
            tables,
        )
        assert oracle.check(sel) is None
        sel.final_main_scan = sel.final_main_scan[1:]
        assert "filter dropped" in oracle.check(sel)

        top = run_pruning_flow(
            QuerySpec(qtype=TOPK, table="events", k=5, order_col="event_id"),
            tables,
        )
        assert oracle.check(top) is None
        top.final_main_scan = [
            p for p in tables["events"].manifest.partitions
            if p not in top.final_main_scan
        ][:1]
        assert "top-k" in oracle.check(top)
    finally:
        oracle.close()
