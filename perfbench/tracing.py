"""Spans around the public calls of each layer, recorded from outside.

:class:`Tracer` replaces each function named in :data:`TARGETS` with a
wrapper that records a :class:`Span` (name, start, end, parent, query
id, phase) and a few counts read from the call's arguments and result.
Wrappers are installed only for the traced part of a run and removed
afterwards; spans stay in memory until the run writes them out.

A target that no longer exists (renamed or removed) is listed in
``Tracer.missing``; the metrics that depend on it are reported as
missing instead of failing the run.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple


def _arg(a: tuple, kw: dict, pos: int, name: str):
    return a[pos] if len(a) > pos else kw.get(name)


# Count readers: (positional args, keyword args, result) -> counts.
def _files_written(a, kw, r):
    return {"files": r.manifest.n_partitions}


def _manifest_bytes(a, kw, r):
    return {"bytes": os.path.getsize(_arg(a, kw, 1, "path"))}


def _rows(a, kw, r):
    return {"rows": len(r)}


def _paths(a, kw, r):
    metas = _arg(a, kw, 2, "metas")  # any iterable; only lists are counted
    return {"paths": len(metas)} if isinstance(metas, (list, tuple)) else {}


def _prune_result(a, kw, r):
    return {"in": r.n_total, "out": len(r.retained)}


def _limit_outcome(a, kw, r):
    fr = r.filter_result
    return {
        "in": fr.n_total,
        "retained": len(fr.retained),
        "fully": len(fr.fully_matching),
        "out": len(r.scan_set),
    }


def _summary(a, kw, r):
    return {"values": r.n_values, "ranges": len(r.ranges)}


def _topk_result(a, kw, r):
    return {"in": r.n_total, "out": len(r.scanned)}


#: (span name, module, attribute path, count reader)
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("lake.write", "repro.lake.table", "LakeTable.write", _files_written),
    ("lake.load", "repro.lake.table", "LakeTable.load", None),
    ("lake.manifest_load", "repro.lake.manifest", "Manifest.load", None),
    ("lake.manifest_save", "repro.lake.manifest", "Manifest.save", _manifest_bytes),
    ("lake.read", "repro.lake.table", "LakeTable.read_partition_pandas", _rows),
    ("lake.scan", "repro.lake.table", "LakeTable.scan", _paths),
    ("filter.prune", "repro.core.filter_pruning", "prune_scan_set", _prune_result),
    ("limit.prune", "repro.core.limit_pruning", "prune_for_limit", _limit_outcome),
    ("join.summary_build", "repro.core.join_pruning", "RangeSummary.build", _summary),
    ("join.probe", "repro.core.join_pruning", "prune_probe_partitions", _prune_result),
    ("topk.init_boundary", "repro.core.topk_pruning", "init_boundary", None),
    ("topk.scan", "repro.core.topk_pruning", "topk_scan", _topk_result),
    ("flow", "repro.core.flow", "run_pruning_flow", None),
    ("engine.filtered_scan", "repro.engine.exec_ops", "filtered_scan", None),
    ("engine.topk_execute", "repro.engine.exec_ops", "topk_execute", None),
    ("engine.pruned_hash_join", "repro.engine.exec_ops", "pruned_hash_join", None),
)

ENGINE_SPANS = ("engine.filtered_scan", "engine.topk_execute", "engine.pruned_hash_join")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    query: int  # query id within the workload's list, -1 outside queries
    phase: str  # "setup", "open", "pass<i>", "lakescan"
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self.query = -1
        self.phase = "setup"
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent, self.query, self.phase)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark-side work (a query, a Spark action)."""
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, fn: Callable, name: str, count: Optional[Callable]) -> Callable:
        def traced(*a, **kw):
            s = self._open(name)
            try:
                result = fn(*a, **kw)
            finally:
                self._close(s)
            if count is not None:
                s.counts = count(a, kw, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        """Wrap every target; record the ones that cannot be found."""
        self.missing = []
        for name, module, attr, count in TARGETS:
            try:
                self._install_one(name, module, attr, count)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attr}")

    def _install_one(self, name, module, attr, count) -> None:
        mod = importlib.import_module(module)
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            raw = owner.__dict__[fn_name] if fn_name in owner.__dict__ else None
            if raw is None:
                raise AttributeError(attr)
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(self._wrap(raw.__func__, name, count))
            else:
                new = self._wrap(raw, name, count)
            setattr(owner, fn_name, new)
            self._undo.append(lambda o=owner, n=fn_name, r=raw: setattr(o, n, r))
            return
        original = getattr(mod, fn_name)
        wrapped = self._wrap(original, name, count)
        # ``from .x import f`` copies the reference: replace it in every
        # loaded program module that holds the same function object.
        for mname, m in list(sys.modules.items()):
            if m is None or not mname.startswith("repro"):
                continue
            for k, v in list(vars(m).items()):
                if v is original:
                    setattr(m, k, wrapped)
                    self._undo.append(lambda m=m, k=k, v=v: setattr(m, k, v))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **asdict(s)}) + "\n")


# --------------------------------------------------------------------------
# Per-layer metrics from spans
# --------------------------------------------------------------------------

#: per-layer metric -> (unit, span names it needs)
LAYER_METRICS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "lake.write_s": ("s", ("lake.write",)),
    "lake.files_written": ("count", ("lake.write",)),
    "lake.manifest_load_ms": ("ms", ("lake.manifest_load",)),
    "lake.manifest_save_ms": ("ms", ("lake.manifest_save",)),
    "lake.manifest_bytes": ("bytes", ("lake.manifest_save",)),
    "lake.partition_reads": ("count", ("lake.read",)),
    "lake.read_ms_per_partition": ("ms", ("lake.read",)),
    "lake.read_rows": ("count", ("lake.read",)),
    "filter.calls": ("count", ("filter.prune",)),
    "filter.partitions_in": ("count", ("filter.prune",)),
    "filter.us_per_partition": ("us", ("filter.prune",)),
    "filter.pruned_frac": ("ratio", ("filter.prune",)),
    "limit.calls": ("count", ("limit.prune",)),
    "limit.partitions_in": ("count", ("limit.prune",)),
    "limit.fully_matching_frac": ("ratio", ("limit.prune",)),
    "limit.ms_per_call": ("ms", ("limit.prune",)),
    "limit.pruned_frac": ("ratio", ("limit.prune",)),
    "join.build_values": ("count", ("join.summary_build",)),
    "join.summary_ranges": ("count", ("join.summary_build",)),
    "join.summary_build_ms": ("ms", ("join.summary_build",)),
    "join.probe_us_per_partition": ("us", ("join.probe",)),
    "join.pruned_frac": ("ratio", ("join.probe",)),
    "topk.init_boundary_ms": ("ms", ("topk.init_boundary",)),
    "topk.scan_ms": ("ms", ("topk.scan",)),
    "topk.partitions_read": ("count", ("topk.scan",)),
    "topk.pruned_frac": ("ratio", ("topk.scan",)),
    "topk.read_share": ("ratio", ("topk.scan", "lake.read")),
    "flow.ms": ("ms", ("flow",)),
    "flow.self_ms": ("ms", ("flow",)),
    "engine.decide_ms": ("ms", ENGINE_SPANS + ("lake.scan",)),
    "spark.list_plan_ms": ("ms", ("lake.scan",)),
    "spark.paths_per_query": ("count", ("lake.scan",)),
    "spark.exec_ms": ("ms", ()),
    "spark.native_ms": ("ms", ()),
    "lakescan.scan_ms": ("ms", ()),
    "lakescan.partitions": ("count", ()),
}


def _mean(xs: List[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(xs: List[float]) -> float:
    return statistics.median(xs) if xs else 0.0


class SpanIndex:
    """Spans grouped by name with child lookup, for metric computation."""

    def __init__(self, spans: List[Span]):
        self.spans = spans
        self.children: Dict[int, List[int]] = {}
        for i, s in enumerate(spans):
            self.children.setdefault(s.parent, []).append(i)

    def named(self, name: str, phases: Optional[Iterable[str]] = None) -> List[int]:
        ph = None if phases is None else set(phases)
        return [
            i for i, s in enumerate(self.spans)
            if s.name == name and (ph is None or s.phase in ph)
        ]

    def child_ms(self, i: int) -> float:
        """Time of ``i``'s direct children."""
        return sum(self.spans[c].ms for c in self.children.get(i, []))

    def named_under(self, i: int, name: str) -> List[int]:
        """Outermost descendants of span ``i`` called ``name``."""
        out: List[int] = []
        for c in self.children.get(i, []):
            if self.spans[c].name == name:
                out.append(c)
            else:
                out.extend(self.named_under(c, name))
        return out

    def under_ms(self, i: int, name: str) -> float:
        return sum(self.spans[c].ms for c in self.named_under(i, name))

    def total(self, ids: List[int], key: str) -> int:
        return sum(self.spans[i].counts.get(key, 0) for i in ids)

    def pruned_frac(self, ids: List[int], base: str = "in") -> float:
        """1 - out/base over the spans' counts; 0 without spans."""
        return 1.0 - _ratio(self.total(ids, "out"), self.total(ids, base)) if ids else 0.0


def layer_metrics(
    tracer: Tracer, count_phase: str, time_phases: List[str]
) -> Dict[str, Optional[float]]:
    """Per-layer metrics of one traced run.

    Counts come from ``count_phase`` (one full pass over the query list,
    so they repeat exactly for a seed); times average over every span in
    ``time_phases``.  A metric whose spans could not be installed is
    ``None`` (missing).  A layer the workload never calls reads 0.
    """
    x = SpanIndex(tracer.spans)
    cp, tp = [count_phase], time_phases
    ms = lambda ids: [x.spans[i].ms for i in ids]  # noqa: E731
    m: Dict[str, Optional[float]] = {}

    writes = x.named("lake.write", ["setup"])
    m["lake.write_s"] = sum(ms(writes)) / 1e3
    m["lake.files_written"] = x.total(writes, "files")
    m["lake.manifest_load_ms"] = _median(ms(x.named("lake.manifest_load", ["open"])))
    saves = x.named("lake.manifest_save", ["setup"])
    m["lake.manifest_save_ms"] = _median(ms(saves))
    m["lake.manifest_bytes"] = x.total(saves, "bytes")

    reads_c, reads_t = x.named("lake.read", cp), x.named("lake.read", tp)
    m["lake.partition_reads"] = len(reads_c)
    m["lake.read_ms_per_partition"] = _mean(ms(reads_t))
    m["lake.read_rows"] = x.total(reads_c, "rows")

    f_c, f_t = x.named("filter.prune", cp), x.named("filter.prune", tp)
    m["filter.calls"] = len(f_c)
    m["filter.partitions_in"] = x.total(f_c, "in")
    m["filter.us_per_partition"] = _ratio(sum(ms(f_t)) * 1e3, x.total(f_t, "in"))
    m["filter.pruned_frac"] = x.pruned_frac(f_c)

    l_c, l_t = x.named("limit.prune", cp), x.named("limit.prune", tp)
    m["limit.calls"] = len(l_c)
    m["limit.partitions_in"] = x.total(l_c, "in")
    m["limit.fully_matching_frac"] = _ratio(x.total(l_c, "fully"), x.total(l_c, "retained"))
    m["limit.ms_per_call"] = _mean(ms(l_t))
    m["limit.pruned_frac"] = x.pruned_frac(l_c, "retained")

    s_c, s_t = x.named("join.summary_build", cp), x.named("join.summary_build", tp)
    m["join.build_values"] = x.total(s_c, "values")
    m["join.summary_ranges"] = x.total(s_c, "ranges")
    m["join.summary_build_ms"] = _mean(ms(s_t))
    p_c, p_t = x.named("join.probe", cp), x.named("join.probe", tp)
    m["join.probe_us_per_partition"] = _ratio(sum(ms(p_t)) * 1e3, x.total(p_t, "in"))
    m["join.pruned_frac"] = x.pruned_frac(p_c)

    m["topk.init_boundary_ms"] = _mean(ms(x.named("topk.init_boundary", tp)))
    t_c, t_t = x.named("topk.scan", cp), x.named("topk.scan", tp)
    m["topk.scan_ms"] = _mean(ms(t_t))
    m["topk.partitions_read"] = x.total(t_c, "out")
    m["topk.pruned_frac"] = x.pruned_frac(t_c)
    m["topk.read_share"] = _ratio(
        sum(x.under_ms(i, "lake.read") for i in t_t), sum(ms(t_t))
    )

    flows = x.named("flow", tp)
    m["flow.ms"] = _mean(ms(flows))
    m["flow.self_ms"] = _mean([x.spans[i].ms - x.child_ms(i) for i in flows])

    eng = [i for n in ENGINE_SPANS for i in x.named(n, tp)]
    m["engine.decide_ms"] = _mean(
        [x.spans[i].ms - x.under_ms(i, "lake.scan") for i in eng]
    )
    # Spark-executed queries only.  Listing happens when LakeTable.scan
    # builds the DataFrame; planning is forced in the span "spark.plan"
    # just before the collect in "spark.exec".
    sq_t = [q for q in x.named("query", tp) if x.named_under(q, "spark.exec")]
    sq_c = [q for q in x.named("query", cp) if x.named_under(q, "spark.exec")]
    m["spark.list_plan_ms"] = _mean(
        [x.under_ms(q, "lake.scan") + x.under_ms(q, "spark.plan") for q in sq_t]
    )
    m["spark.paths_per_query"] = _mean(
        [x.total(x.named_under(q, "lake.scan"), "paths") for q in sq_c]
    )
    m["spark.exec_ms"] = _mean([x.under_ms(q, "spark.exec") for q in sq_t])
    m["spark.native_ms"] = _mean(ms(x.named("spark.native", tp)))
    ls = x.named("lakescan", ["lakescan"])
    m["lakescan.scan_ms"] = _mean(ms(ls))
    m["lakescan.partitions"] = x.total(ls, "partitions")

    missing_spans = {t[0] for t in TARGETS if f"{t[1]}.{t[2]}" in tracer.missing}
    for name, (_, needs) in LAYER_METRICS.items():
        if missing_spans & set(needs):
            m[name] = None
    return m
