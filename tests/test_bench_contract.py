"""The benchmark's contract with the program, checked without Spark.

``perfbench`` wraps the program functions named in
``perfbench.tracing.TARGETS`` and calls the ``exec_ops`` entry points
with fixed keywords.  A renamed target would otherwise only show up as
"missing" in a traced benchmark run, and a dropped keyword only when
the ``spark_exec`` workload runs.  The benchmark's ``lake.read`` layer
counts calls of ``LakeTable.read_partition_pandas``, so the pruning
flow's worker reads must all go through that one method, and
``spark.paths_per_query`` reads the scan set from ``LakeTable.scan``'s
arguments.  ``engine.decide_ms`` and ``spark.list_plan_ms`` assume that
``exec_ops.execute`` plans each query with one ``spark.sql`` call.
"""
import ast
import importlib
import inspect
from pathlib import Path

import pyarrow as pa
import pytest

import repro.core
from perfbench import tracing
from repro.core import expr as E
from repro.core import query as q
from repro.core.expr import col
from repro.core.flow import run_pruning_flow
from repro.engine import exec_ops
from repro.lake import LakeTable

WORKLOADS = Path(tracing.__file__).with_name("workloads.py")


@pytest.mark.parametrize(
    "module,attr",
    [(t[1], t[2]) for t in tracing.TARGETS],
    ids=[t[0] for t in tracing.TARGETS],
)
def test_trace_target_resolves(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def _exec_ops_calls():
    """(function name, positional count, keyword names) of every
    ``exec_ops.<name>(...)`` call in the benchmark's workloads."""
    calls = []
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        f = getattr(node, "func", None)
        if (
            isinstance(node, ast.Call)
            and isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Name)
            and f.value.id == "exec_ops"
        ):
            calls.append((f.attr, len(node.args), [k.arg for k in node.keywords]))
    return calls


def test_workloads_call_all_three_entry_points():
    names = {c[0] for c in _exec_ops_calls()}
    assert names == {"filtered_scan", "topk_execute", "pruned_hash_join"}


@pytest.mark.parametrize(
    "name,n_pos,keywords", _exec_ops_calls(), ids=[c[0] for c in _exec_ops_calls()]
)
def test_exec_ops_accepts_benchmark_call(name, n_pos, keywords):
    sig = inspect.signature(getattr(exec_ops, name))
    sig.bind(*[None] * n_pos, **{k: None for k in keywords})


def test_scan_set_reaches_paths_reader():
    """``spark.paths_per_query`` counts ``LakeTable.scan``'s scan set,
    which the count reader finds at position 2 or as ``metas``; a
    renamed or moved parameter would read as 0 paths, not as missing."""
    sig = inspect.signature(LakeTable.scan)
    assert list(sig.parameters) == ["self", "spark", "metas"]
    metas = [None] * 3
    for b in (sig.bind("t", "s", metas), sig.bind("t", "s", metas=metas)):
        assert tracing._paths(b.args, b.kwargs, None) == {"paths": 3}


@pytest.fixture
def counted_reads(monkeypatch):
    """(table name, pid) of every ``read_partition_pandas`` call."""
    reads = []
    real = LakeTable.read_partition_pandas

    def counted(self, meta, *args, **kwargs):
        reads.append((self.manifest.name, meta.pid))
        return real(self, meta, *args, **kwargs)

    monkeypatch.setattr(LakeTable, "read_partition_pandas", counted)
    return reads


@pytest.fixture
def tiny_lake(tmp_path):
    n = 400
    main = pa.table({
        "id": pa.array(range(n), pa.int64()),
        "g": pa.array([i % 3 for i in range(n)], pa.int64()),
    })
    build = pa.table({
        "id": pa.array(range(300, 340), pa.int64()),
        "sev": pa.array([i % 5 for i in range(40)], pa.int64()),
    })
    return {
        "main": LakeTable.write(main, tmp_path / "main", n_partitions=8, cluster_by=["id"]),
        "build": LakeTable.write(build, tmp_path / "build", n_partitions=2, cluster_by=["id"]),
    }


def test_topk_reads_each_scanned_partition_once(tiny_lake, counted_reads):
    spec = q.QuerySpec(
        qtype=q.TOPK, table="main", pred=col("g") >= 1, k=5, order_col="id"
    )
    res = run_pruning_flow(spec, tiny_lake)
    scanned = [("main", p.pid) for p in res.topk_result.scanned]
    assert counted_reads == scanned
    assert 0 < len(scanned) < 8


def test_join_reads_each_build_partition_once(tiny_lake, counted_reads):
    spec = q.QuerySpec(
        qtype=q.SELECT, table="main",
        join=q.JoinSpec(
            build_table="build", build_key="id", probe_key="id",
            build_pred=col("sev") >= 2,
        ),
    )
    res = run_pruning_flow(spec, tiny_lake)
    assert counted_reads == [("build", p.pid) for p in res.final_build_scan]
    assert len(counted_reads) == 2
    assert res.techniques["join"].applied


def test_core_imports_neither_pandas_nor_numpy():
    """The pruning core reaches rows only through the worker read."""
    for path in Path(repro.core.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("pandas", "numpy"), path.name


class FakeSession:
    """Records the statements ``execute`` hands to ``spark.sql``."""

    def __init__(self):
        self.statements = []

    def sql(self, text):
        self.statements.append(text)
        return text


FLOW_SPECS = {
    "filter": q.QuerySpec(qtype=q.SELECT, table="main", pred=col("id") < 90),
    "top-k": q.QuerySpec(
        qtype=q.TOPK, table="main", pred=col("g") >= 1, k=5, order_col="id"
    ),
    "join": q.QuerySpec(
        qtype=q.SELECT, table="main", pred=col("g").eq(1),
        join=q.JoinSpec("build", "id", "id", col("sev") >= 2),
    ),
}


@pytest.mark.parametrize("case", FLOW_SPECS)
def test_execute_is_one_sql_call_over_the_final_scan_sets(tiny_lake, monkeypatch, case):
    """One ``spark.sql`` call per query, and one ``LakeTable.scan`` per
    scanned table with the flow's final scan set, which the benchmark's
    ``_paths`` reader counts."""
    scans = []

    def scan(self, spark, metas):
        scans.append((self.manifest.name, metas))
        return f"({self.manifest.name})"

    monkeypatch.setattr(LakeTable, "scan", scan)
    spec = FLOW_SPECS[case]
    res = run_pruning_flow(spec, tiny_lake)
    spark = FakeSession()
    out = exec_ops.execute(spark, tiny_lake, res)
    assert spark.statements == [out]
    want = [("main", res.final_main_scan)]
    if spec.join is not None:
        want.append(("build", res.final_build_scan))
    assert scans == want
    for name, metas in scans:
        assert tracing._paths(("t", spark, metas), {}, None) == {"paths": len(metas)}
    assert 0 < len(res.final_main_scan) < 8


def test_to_spark_returns_text_for_every_node():
    s = col("s")
    examples = [
        col("x"), E.lit(1.5), col("x") + 1, col("x") > 2,
        E.and_(col("x") > 1, col("y") < 2), E.or_(col("x") > 1, col("y") < 2),
        E.not_(col("x") > 1), E.if_(col("x") > 1, 1, 2), E.like(s, "a%"),
        E.startswith(s, "a"), E.isin(s, ["a", "b"]), E.isnull(s),
    ]
    assert {type(e) for e in examples} == set(E.Expr.__subclasses__())
    for e in examples:
        assert isinstance(E.to_spark(e), str)
