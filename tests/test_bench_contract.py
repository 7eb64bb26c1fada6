"""The benchmark's contract with the program, checked without Spark.

``perfbench`` wraps the program functions named in
``perfbench.tracing.TARGETS`` and calls the ``exec_ops`` entry points
with fixed keywords.  A renamed target would otherwise only show up as
"missing" in a traced benchmark run, and a dropped keyword only when
the ``spark_exec`` workload runs.
"""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

from perfbench import tracing
from repro.engine import exec_ops

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
