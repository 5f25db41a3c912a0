"""The traced benchmark patches functions by (module or class, name); a name
that no longer resolves would only fail when the benchmark runs."""

import importlib.util
from pathlib import Path

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
