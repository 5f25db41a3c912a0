"""The tools of ``scripts/bench_order.py``.  ``loc`` counts the code lines
that CHANGES.md and ROADMAP.md report: the ``.py`` files of
``src/vptstream`` but the builtin machines' texts, with no comments,
docstrings or blank lines.  ``scaling`` reports the spread of its rounds,
and ``traffic`` the code lines that no workload runs."""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "bench_order.py"


def _bench_order():
    sys.path.insert(0, str(SCRIPT.parent))
    try:
        import bench_order
    finally:
        sys.path.remove(str(SCRIPT.parent))
    return bench_order


def test_loc_of_a_tree_against_itself(tmp_path):
    out = tmp_path / "loc.json"
    subprocess.run([sys.executable, str(SCRIPT), "loc", str(REPO), str(REPO), "--out", str(out)],
                   check=True, capture_output=True)
    record = json.loads(out.read_text())["loc"]
    assert record["parent"] == record["change"]
    assert set(record["delta"].values()) == {0}
    counts = dict(record["parent"])
    total = counts.pop("total")
    assert total == sum(counts.values())
    package = REPO / "src" / "vptstream"
    assert set(counts) == {p.relative_to(package).as_posix() for p in package.rglob("*.py")
                           } - {"machines/__init__.py"}
    for name, n in counts.items():
        assert 0 < n < len((package / name).read_text().splitlines()), name

    # the assignment, the def line and the two lines of the return; not the
    # docstrings, comments or blanks
    text = ('"""Module.\n\nMore."""\n\n# a comment\nX = 1  # trailing\n\n'
            'def f():\n    """Doc."""\n    return g(1,\n             2)\n')
    assert _bench_order().code_lines(text) == 4


def test_scaling_reports_the_spread_of_the_rounds():
    # one loaded round of the change's moves the upper quartile, not the
    # median; a single round gives its ratio three times
    parent = [{"case": 10.0}] * 5
    change = [{"case": v} for v in (10.0, 10.5, 9.5, 10.0, 30.0)]
    ratios = _bench_order().round_ratios(parent, change)
    assert ratios == {"case": {"q1": 1.0, "median": 1.0, "q3": 1.05}}
    assert _bench_order().round_ratios(parent[:1], change[4:]) == {
        "case": {"q1": 3.0, "median": 3.0, "q3": 3.0}}


# a stand-in for perfbench/run.py, whatever the workload: one evaluation in
# its own process and a parse in a child process, both importing the tree's
# package
FAKE_RUN = """
import subprocess, sys
from pathlib import Path
src = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, src)
from vptstream import machines, run_stream, start
assert run_stream(start(machines.load("fig4")), ["c", "r"]) is not None
subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                "import vptstream; vptstream.parse_vpt('states: s')", src], check=True)
"""


def _body_lines(path, name):
    (node,) = [node for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name == name]
    # its code lines past the docstring
    return set(range(node.body[1].lineno, node.end_lineno + 1)) & _bench_order().compiled_lines(path)


def test_traffic_lists_the_lines_no_workload_ran(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(REPO / "src" / "vptstream", tree / "src" / "vptstream",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tree / "perfbench").mkdir()
    (tree / "perfbench" / "run.py").write_text(FAKE_RUN)
    out = tmp_path / "traffic.json"
    subprocess.run([sys.executable, str(SCRIPT), "traffic", str(tree), "--out", str(out)],
                   check=True, capture_output=True)
    record = json.loads(out.read_text())["traffic"]
    assert record["workloads"] == ["deep", "flat", "check", "telemetry"]
    modules = record["modules"]
    package = tree / "src" / "vptstream"
    assert set(modules) == {p.relative_to(package).as_posix() for p in package.rglob("*.py")}
    for name, row in modules.items():
        assert row["unrun"] == len(row["unrun_lines"]) <= row["code_lines"], name
    unrun = {name: set(row["unrun_lines"]) for name, row in modules.items()}
    evaluator = package / "streaming_eval.py"
    assert _body_lines(evaluator, "memory_snapshot") <= unrun["streaming_eval.py"]
    # a run that finishes leaves only the early returns of a rejection
    text = evaluator.read_text().splitlines()
    assert {text[n - 1].strip() for n in _body_lines(evaluator, "run_stream")
            & unrun["streaming_eval.py"]} == {"return None"}
    # the child process's parse counts too; nothing ran the checkers
    parser = package / "vpt_core.py"
    assert len(_body_lines(parser, "parse_vpt") - unrun["vpt_core.py"]) > 10
    assert _body_lines(package / "streamability.py", "check_bm") <= unrun["streamability.py"]
