"""``scripts/bench_order.py loc`` counts the code lines that CHANGES.md and
ROADMAP.md report: the ``.py`` files of ``src/vptstream`` but the builtin
machines' texts, with no comments, docstrings or blank lines."""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "bench_order.py"


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
    sys.path.insert(0, str(SCRIPT.parent))
    try:
        from bench_order import code_lines
    finally:
        sys.path.remove(str(SCRIPT.parent))
    assert code_lines('"""Module.\n\nMore."""\n\n# a comment\nX = 1  # trailing\n\n'
                      'def f():\n    """Doc."""\n    return g(1,\n             2)\n') == 4
