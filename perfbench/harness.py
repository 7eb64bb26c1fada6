"""Benchmark driver: set-up, timed loop, oracle, metrics, result line.

One run = one workload at one seed:

1. start Spark ``local[n]`` (n = min(4, nproc)) with all scratch space in
   ``.perfbench_work/`` under the checkout;
2. set-up: write the seed's lake with ``LakeTable.write``
   (``build_production_lake``) ``SETUP_REPEATS`` times, each into a new
   directory; ``setup_s`` is the median, and the last lake is used;
3. load every table (``LakeTable.load``) for the workload, and time
   loading them (``open_ms``, see :func:`time_open`);
4. warm-up queries, then the timed closed loop over the query list for
   ``--seconds``; the first pass over the list always completes so that
   every query's decision is checked and counts repeat for a seed;
5. the oracle checks every decision of the first pass;
6. with Spark stopped, time loading every table once more;
7. print the report, the environment stamp, and the result line.

With ``--trace 1`` the loop time is split between an untraced and a
traced half, and the result line carries the per-layer metrics
(``tracing.layer_metrics``) instead of the end-to-end ones.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Set-ups (lake writes) per run; the first also warms up the JVM.
SETUP_REPEATS = 3
#: Repetitions of the open step (loading every manifest) per window;
#: a run times three windows.
OPEN_REPEATS = 100
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Spark driver heap; the benchmark's data is a few MB.
DRIVER_MEMORY = "2g"

#: name -> unit; the result line's end-to-end metrics.
END_TO_END = {
    "setup_s": "s",
    "open_ms": "ms",
    "qps": "1/s",
    "latency_p50_ms": "ms",
    "pruned_frac": "ratio",
    "py_peak_rss_mb": "MB",
}
#: Reported in the text output only: they apply to one workload, are
#: zero on a correct run (``error_rate`` is ``failed / attempted``), or
#: change with the seed's query list more than a bound could allow.
#: ``latency_tail_ms`` is set by a handful of heavy top-k queries; the
#: class medians of ``spark_exec`` by whether a few of its queries list
#: more than 32 files.
REPORT_ONLY = {
    "latency_tail_ms": "ms",
    "filter.latency_p50_ms": "ms",
    "topk.latency_p50_ms": "ms",
    "join.latency_p50_ms": "ms",
    "limit.latency_p50_ms": "ms",
    "speedup_vs_native": "x",
    "error_rate": "ratio",
}
TRACE_METRICS = {"trace.qps_untraced": "1/s", "trace.qps_traced": "1/s"}


def parse_args(argv: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# --------------------------------------------------------------------------
# Spark
# --------------------------------------------------------------------------


def _cores() -> int:
    return max(1, min(4, os.cpu_count() or 1))


def configure_env(root: Path, work: Path) -> None:
    """Point Spark, its Python workers and temp files at the checkout.

    Must run before pyspark starts a JVM: ``PYSPARK_SUBMIT_ARGS`` is read
    at launch.
    """
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    src = str(root / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    # No JVM performance-data file under /tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{_cores()}]",
        f"--driver-memory {DRIVER_MEMORY}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.local.dir={work / 'spark'}",
        f"--conf spark.sql.warehouse.dir={work / 'warehouse'}",
        f"--conf spark.driver.extraJavaOptions=-Djava.io.tmpdir={tmp}",
        "pyspark-shell",
    ])


class Spark:
    """The run's Spark session; :meth:`stop` waits for the JVM to exit."""

    def __init__(self) -> None:
        from pyspark.sql import SparkSession

        self.session = (
            SparkSession.builder.appName("perfbench")
            .config("spark.sql.shuffle.partitions", str(2 * _cores()))
            .getOrCreate()
        )
        self.session.sparkContext.setLogLevel("ERROR")
        conf = self.session.conf
        self.stamp = {
            "spark_master": self.session.sparkContext.master,
            "driver_memory": self.session.sparkContext.getConf().get("spark.driver.memory", "?"),
            "shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
            "broadcast_join_threshold": conf.get("spark.sql.autoBroadcastJoinThreshold"),
        }

    def stop(self) -> None:
        if self.session is None:
            return
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        proc = getattr(gateway, "proc", None)
        self.session.stop()
        self.session = None
        if gateway is not None:
            gateway.shutdown()
        if proc is not None:
            if proc.stdin is not None:
                proc.stdin.close()  # the gateway JVM exits on stdin EOF
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------


def tail(samples: List[float]) -> Tuple[Optional[float], float, int]:
    """(value, percentile, n) of the highest percentile with at least
    ``TAIL_BEYOND`` samples above it; value ``None`` if n is too small."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None, 0.0, n
    xs = sorted(samples)
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def _median(xs: List[float]) -> Optional[float]:
    return statistics.median(xs) if xs else None


def peak_rss_mb() -> float:
    """Peak RSS of this Python process (Linux reports KiB); excludes the JVM."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# Set-up and the timed loop
# --------------------------------------------------------------------------


def build_lake(spark, work: Path, seed: int, tracer=None):
    """Write the seed's lake ``SETUP_REPEATS`` times; (last lake, median
    time).  A tracer records the last set-up only."""
    from repro.workload.tables import build_production_lake

    from .workloads import LAKE_SCALE

    times = []
    for i in range(SETUP_REPEATS):
        if tracer is not None and i == SETUP_REPEATS - 1:
            tracer.install()
        t0 = time.perf_counter()
        tables = build_production_lake(spark, work / f"lake{i}", scale=LAKE_SCALE, seed=seed)
        times.append(time.perf_counter() - t0)
    return tables, statistics.median(times)


def open_lake(tables) -> Dict[str, object]:
    """``LakeTable.load`` of every table."""
    from repro.lake import LakeTable

    return {n: LakeTable.load(t.path) for n, t in tables.items()}


def time_open(tables) -> float:
    """Milliseconds of :func:`open_lake`: the fastest of ``OPEN_REPEATS``,
    with the garbage collector held off.

    A run calls this in three windows (after set-up, after warm-up, and
    at the end with Spark stopped) and reports the fastest of all: on a
    shared host the speed of a single core changes over seconds, and one
    window of a few hundred milliseconds at times fell wholly in a phase
    up to 2x slower.
    """
    times = []
    gc.collect()
    for _ in range(OPEN_REPEATS):
        gc.disable()
        t0 = time.perf_counter()
        open_lake(tables)
        times.append((time.perf_counter() - t0) * 1e3)
        gc.enable()
    return min(times)


def run_one(wl, query):
    """One query, with the garbage collector held off while it runs: a
    collection the query's allocations trigger runs after it, untimed."""
    from .workloads import Outcome

    gc.disable()
    try:
        return wl.run(query)
    except Exception as e:  # a failing query is counted, the run goes on
        traceback.print_exc()
        return Outcome(float("nan"), 0, 0, error=f"raised {type(e).__name__}: {e}")
    finally:
        gc.enable()


class Loop:
    """Samples of one timed loop, and the outcomes of its first pass."""

    def __init__(self, n: int):
        self.first: List = [None] * n
        self.samples: List[Tuple[int, str, float]] = []  # (qid, class, ms)

    def latencies(self, cls: Optional[str] = None) -> List[float]:
        """Per-query latency: the fastest of each timed query's runs, so
        every query weighs the same however often the loop reached it, and
        a run slowed by something outside the query does not count."""
        return list(self.fastest(cls).values())

    def fastest(self, cls: Optional[str] = None) -> Dict[int, float]:
        """query id -> its fastest timed run."""
        best: Dict[int, float] = {}
        for qid, c, ms in self.samples:
            if cls is None or c == cls:
                best[qid] = min(ms, best.get(qid, ms))
        return best

    def runs(self) -> Counter:
        """query id -> timed runs."""
        return Counter(qid for qid, _, _ in self.samples)

    @property
    def qps(self) -> Optional[float]:
        lat = self.latencies()
        return 1e3 * len(lat) / sum(lat) if lat else None


def timed_loop(wl, seconds: float, tracer=None, complete_first_pass=True) -> Loop:
    """Closed loop over ``wl.queries`` until ``seconds`` have passed.

    The first pass is finished past the deadline if need be, and its
    runs count as samples, so every query has at least one.
    """
    n = len(wl.queries)
    loop = Loop(n)
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        if time.perf_counter() >= deadline and (i >= n or not complete_first_pass):
            break
        query = wl.queries[i % n]
        if tracer is not None:
            tracer.phase, tracer.query = f"pass{i // n}", query.qid
            with tracer.span("query"):
                out = run_one(wl, query)
        else:
            out = run_one(wl, query)
        if i < n:
            loop.first[i] = out
        if out.error is None:
            loop.samples.append((query.qid, query.cls, out.ms))
        i += 1
    return loop


# --------------------------------------------------------------------------
# Metrics and output
# --------------------------------------------------------------------------


def end_to_end(setup_s: float, open_ms: float, loop: Loop) -> Tuple[dict, dict, str]:
    """(end-to-end metrics, report-only metrics, tail description)."""
    lat = loop.latencies()
    tail_v, tail_p, tail_n = tail(lat)
    ok = [o for o in loop.first if o.error is None]
    touched = sum(o.touched for o in ok)
    m = {
        "setup_s": setup_s,
        "open_ms": open_ms,
        "qps": loop.qps,
        "latency_p50_ms": _median(lat),
        "pruned_frac": 1.0 - sum(o.scanned for o in ok) / touched if touched else None,
        "py_peak_rss_mb": peak_rss_mb(),
    }
    extra = {"latency_tail_ms": tail_v}
    for cls in ("filter", "topk", "join", "limit"):
        extra[f"{cls}.latency_p50_ms"] = _median(loop.latencies(cls))
    return m, extra, f"p{tail_p:.2f} of n={tail_n}"


def env_stamp(spark: Spark, args, tables, wl) -> dict:
    import duckdb
    import pandas
    import pyarrow
    import pyspark

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        **spark.stamp,
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "pyarrow": pyarrow.__version__,
        "duckdb": duckdb.__version__,
        "pandas": pandas.__version__,
        "tables": {
            n: {"partitions": t.manifest.n_partitions, "rows": t.manifest.total_rows}
            for n, t in tables.items()
        },
        "queries": dict(sorted(Counter(q.cls for q in wl.queries).items())),
        "query_digest": hashlib.sha256(
            "\n".join(q.spec.to_sql() for q in wl.queries).encode()
        ).hexdigest()[:16],
    }


def _print_metrics(metrics: dict, units: dict) -> None:
    for name, unit in units.items():
        v = metrics.get(name)
        shown = "missing" if v is None else f"{v:.6g}"
        print(f"  {name:<30} {shown:>12} {unit}")


def _result(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            n: {"value": metrics[n], "unit": u}
            for n, u in units.items() if metrics.get(n) is not None
        },
    })


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def main(argv: List[str], root: Path) -> int:
    args = parse_args(argv)
    from .workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    configure_env(root, work)
    spark = None
    try:
        spark = Spark()
        return _run(spark, args, root, work, WORKLOADS[args.workload])
    finally:
        if spark is not None:
            spark.stop()
        shutil.rmtree(work, ignore_errors=True)


def _run(spark: Spark, args, root: Path, work: Path, workload_cls) -> int:
    from .tracing import LAYER_METRICS, Tracer, layer_metrics

    tracer = Tracer() if args.trace else None
    tables, setup_s = build_lake(spark.session, work, args.seed, tracer)
    if tracer is not None:
        tracer.uninstall()
    if not workload_cls.uses_spark:
        spark.stop()  # no JVM beside the timed loop
    tables = open_lake(tables)
    open_times = [time_open(tables)]

    wl = workload_cls(spark.session, tables, args.seed)
    for query in wl.warmup:
        run_one(wl, query)
    open_times.append(time_open(tables))

    if tracer is None:
        loop = timed_loop(wl, args.seconds)
        verdicts, checked = wl.check(loop)
        extra_failures: List[str] = []
    else:
        untraced = timed_loop(wl, args.seconds / 2, complete_first_pass=False)
        tracer.install()
        wl.tracer = tracer
        loop = timed_loop(wl, args.seconds / 2, tracer)
        tracer.phase, tracer.query = "check", -1
        verdicts, checked = wl.check(loop)
        tracer.phase = "lakescan"
        extra_failures = wl.extra_traced()
        wl.tracer = None
        tracer.uninstall()
    spark.stop()
    if tracer is not None:
        tracer.install()
        tracer.phase = "open"
    open_times.append(time_open(tables))
    if tracer is not None:
        tracer.uninstall()
    e2e, extra, tail_desc = end_to_end(setup_s, min(open_times), loop)
    extra.update(checked)
    failures = [
        f"q{x.qid} [{x.cls}] {v}: {x.spec.to_sql()}"
        for x, v in zip(wl.queries, verdicts) if v is not None
    ] + extra_failures
    attempted = len(wl.queries)
    extra["error_rate"] = len(failures) / attempted

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"  latency_tail is {tail_desc}")
    _print_metrics(e2e, END_TO_END)
    _print_metrics(extra, REPORT_ONLY)
    for f in failures:
        print(f"  FAILED {f}")
    env = env_stamp(spark, args, tables, wl)
    out_dir = root / ".perfbench_out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = {"env": env, "end_to_end": e2e, "report_only": extra, "failures": failures}
    if tracer is None:
        metrics, units = e2e, END_TO_END
    else:
        passes = sorted({s.phase for s in tracer.spans if s.phase.startswith("pass")})
        metrics = layer_metrics(tracer, "pass0", passes + ["check"])
        metrics["trace.qps_untraced"] = untraced.qps
        metrics["trace.qps_traced"] = loop.qps
        units = {n: u for n, (u, _) in LAYER_METRICS.items()}
        units.update(TRACE_METRICS)
        print("  per layer (traced run):")
        _print_metrics(metrics, units)
        if tracer.missing:
            print(f"  missing trace targets: {', '.join(tracer.missing)}")
        tracer.write(str(out_dir / f"spans-{stem}.jsonl"))
        full["per_layer"] = metrics
        full["missing_trace_targets"] = tracer.missing
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{stem}.json").write_text(json.dumps(full, indent=1))
    print("env " + json.dumps(env, sort_keys=True))
    print(_result(not failures, attempted, len(failures), metrics, units))
    return 0
