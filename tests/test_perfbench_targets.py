"""The benchmark reaches into the package by name: the traced benchmark
patches functions by (module or class, name), and its workloads and setup
read a few more names without tracing them.  A name that no longer resolves
would only fail when the benchmark runs."""

import importlib.util
from pathlib import Path

from vptstream import cli
from vptstream.streaming_eval import EvalDag

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve_to_callables():
    run = _load_run()
    for owner, attr, span in run.eval_targets() + run.check_targets():
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr, span)


def test_untraced_names_the_benchmark_reads_resolve():
    # perfbench/measure.py streams documents through these
    for name in ("start", "_Emitter", "_token_stream", "_load", "parse_vpt"):
        assert callable(getattr(cli, name, None)), name
    assert cli.TELEMETRY_COLUMNS[0] == "pos"
    # perfbench/setup_child.py runs the functional probe through these
    assert isinstance(cli._FUNCTIONAL_PROBE_LEN, int)
    assert isinstance(cli.CounterExample, type)
    # perfbench/measure.py counts the dirty nodes of the DAG by depth
    dag = EvalDag()
    assert dag.dirty == set()
    assert dag.root.depth == -1
