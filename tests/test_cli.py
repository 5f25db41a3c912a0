import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from vptstream import cli, machines, parse_vpt, serialize_vpt
from vptstream.cli import _Emitter, main

from helpers import EMITS_THEN_CONFLICTS, load_gen

runner = CliRunner()


def invoke(args, stdin=None):
    return runner.invoke(main, args, input=stdin)


# ---------------------------------------------------------------------------
# validate / loading

def test_validate_builtin_ok():
    res = invoke(["validate", "builtin:fig4"])
    assert res.exit_code == 0
    assert res.output.strip() == "ok"


def test_unknown_builtin_is_usage_error():
    res = invoke(["validate", "builtin:nope"])
    assert res.exit_code == 2
    assert "fig2_t1" in res.stderr  # the message lists what exists


def test_missing_file_is_usage_error(tmp_path):
    # a path that cannot be read, missing or a directory, is one stderr
    # line, as for an output that cannot be written
    for path in (tmp_path / "absent.vpt", tmp_path):
        res = invoke(["validate", str(path)])
        assert res.exit_code == 2
        assert res.stdout == ""
        (line,) = res.stderr.splitlines()
        assert line.startswith(f"cannot read {path}: ")


def test_parse_error_reports_line(tmp_path):
    p = tmp_path / "bad.vpt"
    p.write_text("calls: c\njunk here\n")
    res = invoke(["validate", str(p)])
    assert res.exit_code == 2
    assert f"{p}:2:" in res.stderr


def test_file_that_is_not_utf8_is_one_parse_error(tmp_path):
    p = tmp_path / "bad.vpt"
    p.write_bytes(b"\xff\xfe")
    res = invoke(["validate", str(p)])
    assert res.exit_code == 2
    assert res.stderr.splitlines() == [
        f"{p}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"]


def test_validation_errors_are_listed(tmp_path):
    p = tmp_path / "bad.vpt"
    p.write_text("calls: c\nreturns: r\nstates: s0\ninitial: sX\nfinal: s0\n"
                 "stack: g\ntrans s0 c - push g s0\n")
    res = invoke(["validate", str(p)])
    assert res.exit_code == 2
    assert "sX" in res.stderr


@pytest.mark.parametrize("rule, message", [
    ("trans s r - push g s", "call rule on non-call symbol 'r'"),
    ("trans s c - push h s", "call rule pushes undeclared stack symbol 'h'"),
    ("trans s c - pop g s", "return rule on non-return symbol 'c'"),
    ("trans s c - int s", "internal rule on non-internal symbol 'c'"),
    ("trans t a - int s", "rule references undeclared state 't'"),
])
def test_validation_names_the_broken_rule(tmp_path, rule, message):
    p = tmp_path / "bad.vpt"
    p.write_text("calls: c\nreturns: r\ninternals: a\nstates: s\ninitial: s\n"
                 f"final: s\nstack: g\n{rule}\n")
    res = invoke(["validate", str(p)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.splitlines() == [f"{p}: {message}"]


@pytest.mark.parametrize("args", [["reduce", "builtin:fig4", "{out}"],
                                  ["eval", "builtin:fig4", "--telemetry", "{out}"]])
def test_an_output_that_cannot_be_opened_is_one_usage_error(tmp_path, monkeypatch, args):
    def stream(*_):
        raise AssertionError("eval read its input")

    monkeypatch.setattr(cli, "_stream", stream)
    out = tmp_path / "absent" / "out"
    res = invoke([a.format(out=out) for a in args], stdin="c r\n")
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    (line,) = res.stderr.splitlines()
    assert line.startswith(f"cannot write {out}: ")


# ---------------------------------------------------------------------------
# eval

def test_eval_accept():
    res = invoke(["eval", "builtin:fig3_plain"], stdin="c c r r\n")
    assert res.exit_code == 0
    assert res.output == "a a c c\n"


def test_eval_empty_output_accept():
    res = invoke(["eval", "builtin:fig2_t1"], stdin="\n")
    # empty input is not in the domain of fig2_t1 (no final run at height 0)
    assert res.exit_code == 1


def test_eval_reject_names_position():
    res = invoke(["eval", "builtin:fig3_plain"], stdin="c c r r r\n")
    assert res.exit_code == 1
    assert "reject at position 5" in res.stderr
    assert "'r'" in res.stderr
    # a symbol outside the alphabet rejects where it stands
    res = invoke(["eval", "builtin:fig4"], stdin="c z r\n")
    assert res.exit_code == 1
    assert res.stderr == "reject at position 2 (symbol 'z')\n"


def test_eval_partial_output_before_reject():
    res = invoke(["eval", "builtin:fig3_plain"], stdin="c c r rp c\n")
    assert res.exit_code == 1
    assert res.output.startswith("b b c c")


@pytest.mark.parametrize("machine, args, stdin, stdout, stderr", [
    ("builtin:fig4", [], "c c r\n", "a a c\n", "reject at position 3 (symbol '<end>')\n"),
    ("builtin:fig4", [], "c c r r r\n", "a a c c\n", "reject at position 5 (symbol 'r')\n"),
    ("builtin:fig4", [], "c c z\n", "", "reject at position 3 (symbol 'z')\n"),
    ("emits", ["--unsafe"], "c d r r\n", "x\n",
     "two run bundles reach (q,g,2) from the same node with different outputs "
     "y vs z; the machine is not reduced functional\n"),
])
def test_eval_ends_the_output_line_on_reject_and_error(tmp_path, machine, args,
                                                         stdin, stdout, stderr):
    if machine == "emits":
        machine = tmp_path / "emits.vpt"
        machine.write_text(EMITS_THEN_CONFLICTS)
    res = invoke(["eval", str(machine), *args], stdin=stdin)
    assert res.exit_code == 1
    assert res.stdout == stdout
    assert res.stderr == stderr


def test_emitter_flushes_only_tokens():
    class Counted(io.StringIO):
        flushes = 0

        def flush(self):
            self.flushes += 1

    out = Counted()
    emitter = _Emitter(out)
    emitter.emit(())
    assert (out.getvalue(), out.flushes) == ("", 0)
    emitter.emit(("a",))
    assert (out.getvalue(), out.flushes) == ("a", 1)
    emitter.emit(())
    emitter.emit(("b", "c"))
    assert (out.getvalue(), out.flushes) == ("a b c", 2)


def test_eval_telemetry_header(tmp_path):
    telem = tmp_path / "t.csv"
    res = invoke(["eval", "builtin:fig4", "--telemetry", str(telem)],
                 stdin="c c r r\n")
    assert res.exit_code == 0
    rows = list(csv.reader(io.StringIO(telem.read_text())))
    assert rows[0] == ["pos", "symbol", "hc", "nodes", "edges",
                       "label_tokens", "out_neq", "emitted"]
    assert len(rows) == 5
    assert rows[1][:3] == ["1", "c", "1"]


def test_eval_refuses_nonfunctional_machine(tmp_path):
    p = tmp_path / "nf.vpt"
    p.write_text("internals: a\nstates: s0 s1\ninitial: s0\nfinal: s1\n"
                 "trans s0 a x int s1\ntrans s0 a y int s1\n")
    res = invoke(["eval", str(p)], stdin="a\n")
    assert res.exit_code == 1
    assert "functional" in res.stderr


def test_eval_probe_reaches_length_ten(tmp_path):
    # the two runs part only on the ninth a, so the conflict has length 9
    chain = "".join(f"trans q{i} a - int q{i + 1}\n" for i in range(8))
    p = tmp_path / "late.vpt"
    p.write_text("internals: a\nstates: " + " ".join(f"q{i}" for i in range(10))
                 + "\ninitial: q0\nfinal: q9\n" + chain
                 + "trans q8 a x int q9\ntrans q8 a y int q9\n")
    res = invoke(["eval", str(p)], stdin="a\n")
    assert res.exit_code == 1
    # the line `check` prints for the same conflict
    assert res.stderr.splitlines() == [
        "machine is not functional: input a a a a a a a a a has outputs x and y"]


def test_eval_chars_mode(tmp_path):
    res = invoke(["eval", "builtin:fig3_plain", "--chars"], stdin="ccrr\n")
    # single-character symbols line up with --chars tokenization
    assert res.exit_code == 0
    assert res.output == "a a c c\n"


XML_COPY = """
calls: item
returns: /item
internals: x
states: s0 s1
initial: s0
final: s0
stack: g
trans s0 item [ push g s1
trans s1 x x int s1
trans s1 /item ] pop g s0
"""


def test_eval_xml_mode(tmp_path):
    p = tmp_path / "copy.vpt"
    p.write_text(XML_COPY)
    res = invoke(["eval", str(p), "--xml"], stdin="<item>xx</item>")
    assert res.exit_code == 0
    assert res.output == "[ x x ]\n"


def test_eval_xml_deep_document_with_telemetry(tmp_path):
    # the copy machine above, with inner items pushing h so that only the
    # outermost close returns to s0; 1200 nested items, text in each
    n = 1200
    p = tmp_path / "nested.vpt"
    p.write_text(XML_COPY.replace("stack: g\n", "stack: g h\n")
                 + "trans s1 item [ push h s1\ntrans s1 /item ] pop h s1\n")
    telem = tmp_path / "t.csv"
    res = invoke(["eval", str(p), "--xml", "--telemetry", str(telem)],
                 stdin="<item>x" * n + "</item>" * n + "\n")
    assert res.exit_code == 0, res.output
    assert res.output == " ".join(["[", "x"] * n + ["]"] * n) + "\n"
    rows = list(csv.DictReader(io.StringIO(telem.read_text())))
    assert len(rows) == 3 * n
    assert max(int(row["hc"]) for row in rows) == n
    assert int(rows[-1]["emitted"]) == 3 * n
    # one run, so every letter leaves at once and nothing is pending
    assert {row["out_neq"] for row in rows} == {"0"}


def test_eval_chars_and_xml_conflict():
    res = invoke(["eval", "builtin:fig4", "--chars", "--xml"], stdin="")
    assert res.exit_code == 2


@pytest.mark.parametrize("machine, word", [("fig4", "c c r r"),
                                           ("fig4", "c c c r r r")])
def test_eval_no_factorize_holds_output_to_the_end(tmp_path, machine, word):
    outputs, columns = {}, {}
    for flags in ([], ["--no-factorize"]):
        telem = tmp_path / "t.csv"
        res = invoke(["eval", f"builtin:{machine}", "--telemetry", str(telem)]
                     + flags, stdin=word + "\n")
        assert res.exit_code == 0
        outputs[bool(flags)] = res.output
        rows = list(csv.DictReader(io.StringIO(telem.read_text())))
        columns[bool(flags)] = [int(row["emitted"]) for row in rows]
    assert outputs[True] == outputs[False]
    # by default some output leaves before the last symbol; without
    # factorization none leaves until the end of input
    assert any(columns[False][:-1])
    assert columns[True] == [0] * len(columns[False])


# ---------------------------------------------------------------------------
# check

def test_check_single_property_clean():
    res = invoke(["check", "builtin:fig4", "--property", "htp"])
    assert res.exit_code == 0
    assert res.output.startswith("htp: NoWitnessUpTo")


def test_check_violation_sets_exit_code():
    res = invoke(["check", "builtin:fig3_full", "--property", "htp"])
    assert res.exit_code == 1
    lines = res.output.splitlines()
    # the witness README.md shows for `check builtin:fig3_full`
    for line in ("htp: Violated", "  u1: c r", "  u2: c r"):
        assert line in lines


def test_check_bm_prints_a_flattening_twinning_witness(tmp_path):
    # at height 0 the flattening reads a^n with x^n on one run and y^n on
    # the other, and only the last letter, b or d, tells them apart
    p = tmp_path / "twins.vpt"
    p.write_text("internals: a b d\nstates: i p q f\ninitial: i\nfinal: f\n"
                 "trans i a x int p\ntrans p a x int p\ntrans p b b int f\n"
                 "trans i a y int q\ntrans q a y int q\ntrans q d d int f\n")
    res = invoke(["check", str(p), "--property", "bm"])
    assert res.exit_code == 1
    assert res.stdout.splitlines() == [
        "bm: Violated",
        "  note: twinning fails on the height-0 restriction",
        "  witness: diverging-delay-loop",
        "  u1: a", "  u2: a", "  v1: x", "  v2: x", "  w1: y", "  w2: y",
        "  delay_before: x | y",
        "  delay_after: x x | y y",
    ]


def test_check_all_reports_three_lines():
    res = invoke(["check", "builtin:fig4"])
    assert res.exit_code == 1  # bm is violated even though htp/mtp are clean
    for marker in ("bm: Violated", "htp: NoWitnessUpTo", "mtp: NoWitnessUpTo"):
        assert marker in res.output
    assert "searched:" in res.output
    # the probe's evidence: min(max_len, 10) with the default max_len of 24
    assert "functional: no conflict up to length 10" in res.output.splitlines()
    short = invoke(["check", "builtin:fig4", "--max-len", "6"])
    assert "functional: no conflict up to length 6" in short.output.splitlines()


def test_check_bounds_are_printed():
    res = invoke(["check", "builtin:fig4", "--property", "mtp",
                  "--max-len", "10", "--max-height", "3"])
    assert "  searched: max_height=3 max_len=10" in res.output.splitlines()


@pytest.mark.parametrize("args", [
    ["check", "builtin:fig4", "--max-height", "-1"],
    ["check", "builtin:fig4", "--max-len", "-1"],
    ["enum", "builtin:fig4", "--max-len", "-1"],
])
def test_negative_bounds_are_usage_errors(args):
    res = invoke(args)
    assert res.exit_code == 2
    assert "x>=0" in res.stderr


NOT_FUNCTIONAL = ("calls: c\nreturns: r\nstates: i p f\ninitial: i\nfinal: f\n"
                  "stack: g\ntrans i c x push g p\ntrans i c y push g p\n"
                  "trans p r - pop g f\n")


@pytest.mark.parametrize("prop", ["bm", "htp", "mtp", "all"])
def test_check_any_property_refuses_a_machine_that_is_not_functional(tmp_path, prop):
    # single properties used to print `bm: Holds` or `NoWitnessUpTo` here
    p = tmp_path / "nf.vpt"
    p.write_text(NOT_FUNCTIONAL)
    res = invoke(["check", str(p), "--property", prop])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == "machine is not functional: input c r has outputs x and y\n"


def test_check_nonfunctional_machine_fails(tmp_path):
    p = tmp_path / "nf.vpt"
    p.write_text("internals: a\nstates: s0 s1\ninitial: s0\nfinal: s1\n"
                 "trans s0 a x int s1\ntrans s0 a y int s1\n")
    res = invoke(["check", str(p)])
    assert res.exit_code == 1
    assert "functional" in res.stderr


# ---------------------------------------------------------------------------
# reduce / enum / bench

def test_reduce_round_trips(tmp_path):
    out = tmp_path / "r.vpt"
    res = invoke(["reduce", "builtin:fig3_plain", str(out)])
    assert res.exit_code == 0
    reduced = parse_vpt(out.read_text())
    assert reduced.states  # parseable and nonempty
    res2 = invoke(["reduce", "builtin:fig3_plain", "-"])
    assert res2.exit_code == 0
    assert parse_vpt(res2.output) == reduced


def test_reduce_of_a_reduced_machine_is_the_machine():
    res = invoke(["reduce", "builtin:fig2_t1", "-"])
    assert res.exit_code == 0
    assert parse_vpt(res.output) == machines.load("fig2_t1")


def test_reduce_prints_one_text_under_any_string_hash(tmp_path):
    # the reduced names follow the order of the live walk, so the order in
    # which a set iterates, which the hash seed moves, never shows; pool
    # machine mutant18 meets four finisher sets
    mutant18 = tmp_path / "mutant18.vpt"
    mutant18.write_text(dict(load_gen().check_pool())["mutant18"])
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for machine in ("builtin:fig3_full", str(mutant18)):
        texts = [subprocess.run([sys.executable, "-c", "from vptstream.cli import main; main()",
                                 "reduce", machine, "-"],
                                env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
                                capture_output=True, text=True, timeout=120,
                                check=True).stdout
                 for seed in ("0", "1")]
        assert texts[0] == texts[1], machine
        assert "@1" in texts[0]  # the reduction splits some states


def test_enum_lists_domain():
    res = invoke(["enum", "builtin:fig3_plain", "--max-len", "4"])
    assert res.exit_code == 0
    assert res.output.splitlines() == ["ccrr aacc", "ccrrp bbcc", "cr ac"]


def test_enum_marks_empty_output(tmp_path):
    p = tmp_path / "eraser.vpt"
    p.write_text("internals: a\nstates: s0 s1\ninitial: s0\nfinal: s1\n"
                 "trans s0 a - int s1\n")
    res = invoke(["enum", str(p), "--max-len", "2"])
    assert res.output.splitlines() == ["a -"]


def test_enum_nonfunctional_machine_fails(tmp_path):
    p = tmp_path / "nf.vpt"
    p.write_text("calls: c\nreturns: r\nstates: p q\ninitial: p\n"
                 "final: p\nstack: g\ntrans p c a push g q\n"
                 "trans p c b push g q\ntrans q r - pop g p\n")
    res = invoke(["enum", str(p), "--max-len", "4"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # no traceback
    assert res.stderr.splitlines() == [
        "machine is not functional: input c r has outputs a and b"]
    # eval and check word the same conflict the same way
    for args in (["eval", str(p)], ["check", str(p)]):
        other = invoke(args, stdin="c r\n")
        assert other.exit_code == 1
        assert other.stderr == res.stderr


def test_bench_streams_telemetry():
    res = invoke(["bench", "builtin:fig4", "--family", "cnrn", "--n-max", "5"])
    assert res.exit_code == 0
    rows = list(csv.reader(io.StringIO(res.output)))
    assert rows[0][0] == "pos"
    assert len(rows) == 11
    # out_neq climbs 1..5 on the calls, collapses on the first return
    assert [r[6] for r in rows[1:6]] == ["1", "2", "3", "4", "5"]
    assert rows[6][6] == "0"


def test_bench_ccnrnrp_family():
    # c c^n r^n rp on fig3_full at n = 2: the header and six rows
    res = invoke(["bench", "builtin:fig3_full", "--family", "ccnrnrp", "--n-max", "2"])
    assert res.exit_code == 0
    rows = list(csv.reader(io.StringIO(res.output)))
    assert len(res.output.splitlines()) == len(rows) == 7
    assert [row[1] for row in rows[1:]] == ["c", "c", "c", "r", "r", "rp"]
    res = invoke(["bench", "builtin:fig3_full", "--family", "ccnrnrp", "--n-max", "0"])
    assert res.exit_code == 2


def test_bench_custom_reads_stdin():
    res = invoke(["bench", "builtin:fig3_plain", "--family", "custom"],
                 stdin="c r\n")
    rows = [line for line in res.output.splitlines() if line]
    assert res.exit_code == 0
    assert len(rows) == 3


def test_bench_rejecting_word_exits_one():
    res = invoke(["bench", "builtin:fig3_plain", "--family", "custom"],
                 stdin="r r\n")
    assert res.exit_code == 1


EVAL_ERRORS = {
    "no_initial": ("calls: c\nreturns: r\nstates: s0\nfinal: s0\nstack: g\n"
                   "trans s0 c - push g s0\ntrans s0 r - pop g s0\n"),
    # on `c r` two runs end in final states, one with output x, one with y
    "disagree": ("calls: c\nreturns: r\nstates: i p q\ninitial: i\nfinal: p q\n"
                 "stack: g\ntrans i c x push g p\ntrans i c y push g q\n"
                 "trans p r - pop g p\ntrans q r - pop g q\n"),
    # on `c` two rules from i reach (p, g) with outputs x and y
    "same_node": ("calls: c\nreturns: r\nstates: i p\ninitial: i\nfinal: i\n"
                  "stack: g\ntrans i c x push g p\ntrans i c y push g p\n"
                  "trans p r - pop g i\n"),
}
DISAGREE_LINE = ("accepting branches disagree on the remaining output; "
                 "the machine is not functional")
SAME_NODE_LINE = ("two run bundles reach (p,g,1) from the same node with different "
                  "outputs x vs y; the machine is not reduced functional")


@pytest.mark.parametrize("machine, args, message", [
    ("no_initial", ["eval"], "machine has no initial state"),
    ("no_initial", ["bench", "--family", "custom"], "machine has no initial state"),
    ("disagree", ["eval", "--unsafe"], DISAGREE_LINE),
    ("disagree", ["bench", "--family", "custom"], DISAGREE_LINE),
    ("same_node", ["eval", "--unsafe"], SAME_NODE_LINE),
    ("same_node", ["bench", "--family", "custom"], SAME_NODE_LINE),
])
def test_evaluator_errors_exit_one_without_traceback(tmp_path, machine, args, message):
    p = tmp_path / "m.vpt"
    p.write_text(EVAL_ERRORS[machine])
    res = invoke([args[0], str(p)] + args[1:], stdin="c r\n")
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # no traceback
    assert "Traceback" not in res.output
    assert res.stderr == message + "\n"


def test_eval_runs_the_live_part_of_the_machine(tmp_path):
    # two dead runs of random604 differ only in output; on the machine as
    # given they stopped `eval` after `a a b`
    p = tmp_path / "random604.vpt"
    p.write_text(dict(load_gen().check_pool())["random604"])
    res = invoke(["eval", str(p)], stdin="c d r c d r r r\n")
    assert (res.exit_code, res.stdout, res.stderr) == (0, "a a b a a a b\n", "")


@pytest.mark.parametrize("args", [["eval"], ["bench", "--family", "custom"]])
def test_empty_domain_rejects_at_the_first_symbol(tmp_path, args):
    # an initial state but no accepted word: the reduction has no initial
    # state, and no output is emitted for the call
    p = tmp_path / "m.vpt"
    p.write_text("calls: c\nreturns: r\nstates: i p\ninitial: i\nfinal: p\n"
                 "stack: g\ntrans i c x push g p\n")
    res = invoke([args[0], str(p)] + args[1:], stdin="c r\n")
    assert res.exit_code == 1
    assert res.stderr == "reject at position 1 (symbol 'c')\n"
    if args == ["eval"]:
        assert res.stdout == ""


def test_the_reduction_of_an_empty_domain_evaluates_like_the_machine(tmp_path):
    # the reduction has no state; it is written with the initial state, so
    # that its `eval` rejects instead of reporting no initial state
    p, out = tmp_path / "m.vpt", tmp_path / "out.vpt"
    p.write_text("calls: c\nreturns: r\nstates: i p\ninitial: i\nfinal: p\n"
                 "stack: g\ntrans i c x push g p\n")
    assert invoke(["reduce", str(p), str(out)]).exit_code == 0
    assert parse_vpt(out.read_text()).initial == {"i"}
    assert invoke(["reduce", str(out), "-"]).stdout == out.read_text()
    for word in ("c r", ""):
        runs = [invoke(["eval", str(path)], stdin=word + "\n") for path in (p, out)]
        assert [(r.exit_code, r.stdout, r.stderr) for r in runs] == \
            [(1, "", runs[0].stderr)] * 2
        assert runs[0].stderr.startswith("reject at position ")


def test_bench_end_of_input_reject_reads_like_eval():
    word = "c c\n"
    lines = [invoke(args, stdin=word).stderr for args in (
        ["eval", "builtin:fig3_plain"],
        ["bench", "builtin:fig3_plain", "--family", "custom"])]
    assert lines == ["reject at position 2 (symbol '<end>')\n"] * 2
