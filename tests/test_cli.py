import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qwebs.cli as cli
from qwebs.cli import run
from qwebs.mfcore import IrreducibleToFinite
from qwebs.qpoly import LaurentPoly
from qwebs.repfun import web_form
from qwebs.webs import Ladder

ROOT = Path(__file__).resolve().parent.parent
WL = "N=2 m=2 base=[2,0] rungs=[]"
FRUNG = "N=2 m=2 base=[2,0] rungs=[F1^1]"
DIGON = "N=2 m=2 base=[2,0] rungs=[F1^1, E1^1]"


def lines_of(capsys):
    return capsys.readouterr().out.splitlines()


def test_enumerate(capsys):
    assert run(["enumerate", "m=2", "d=2", "N=2"]) == 0
    assert lines_of(capsys) == ["[2,0]", "[1,1]", "[0,2]"]


def test_enumerate_json(capsys):
    assert run(["enumerate", "--json", "m=2", "d=2", "N=2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"weights": [[2, 0], [1, 1], [0, 2]]}


def test_enumerate_empty(capsys):
    # no weight fits: plain output is zero bytes, not a bare newline
    assert run(["enumerate", "m=2", "d=9", "N=2"]) == 0
    assert capsys.readouterr().out == ""
    assert run(["enumerate", "--json", "m=2", "d=9", "N=2"]) == 0
    assert json.loads(capsys.readouterr().out) == {"weights": []}


def test_enumerate_many_parts(capsys):
    assert run(["enumerate", "m=1200", "d=0", "N=2"]) == 0
    assert lines_of(capsys) == ["[" + ",".join(["0"] * 1200) + "]"]


def test_enumerate_missing_param(capsys):
    assert run(["enumerate", "m=2", "d=2"]) == 1
    assert "missing parameter N=" in capsys.readouterr().err


def test_ladder_roundtrip(capsys):
    assert run(["ladder", "N=2", "m=2", "d=2", "lambda=[0]", "seq=F1^1"]) == 0
    assert lines_of(capsys) == ["N=2 m=2 base=[1,1] rungs=[F1^1]"]


def test_ladder_zero(capsys):
    assert run(["ladder", "N=2", "m=2", "d=2", "lambda=[2]", "seq=E1^1"]) == 0
    assert lines_of(capsys) == ["ZERO"]


def test_ladder_sequence_order(capsys):
    # rightmost factor acts first, so it becomes the bottom rung
    assert run(["ladder", "N=2", "m=2", "d=2", "lambda=[2]", "seq=E1*F1^1"]) == 0
    assert lines_of(capsys) == ["N=2 m=2 base=[2,0] rungs=[F1^1, E1^1]"]


def test_eval_digon(capsys):
    assert run(["eval", DIGON]) == 0
    assert lines_of(capsys) == ["q + q^-1"]


def test_eval_rejects_open_web(capsys):
    assert run(["eval", FRUNG]) == 1
    assert "error:" in capsys.readouterr().err


def test_form_highest_weight_pairing(capsys):
    assert run(["form", WL, WL]) == 0
    assert lines_of(capsys) == ["1"]


def test_form_needs_two_parseable_webs(capsys):
    assert run(["form", WL, "garbage"]) == 1
    assert "bad ladder text" in capsys.readouterr().err


def test_gram_matches_form_entries(capsys):
    assert run(["gram", "N=2", "m=2", "d=2", "lambda=[2]",
                "seqs=F1^1; F1^1*E1^1*F1^1"]) == 0
    out = lines_of(capsys)
    assert out[0] == "size 2"
    assert out[1] == "gen 0 N=2 m=2 base=[2,0] rungs=[F1^1]"
    assert "entry 0 0 q^2 + 1" in out
    assert "entry 1 1 q^4 + 3q^2 + 3 + q^-2" in out


def test_gram_zero_sequence_gives_zero_row(capsys):
    # E1 acts first here and annihilates the highest weight pattern
    assert run(["gram", "--json", "N=2", "m=2", "d=2", "lambda=[2]",
                "seqs=F1^1*E1^1; F1^1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["size"] == 2
    assert data["gens"][0] == "ZERO"
    assert all(e["row"] == 1 and e["col"] == 1 for e in data["entries"])


@pytest.mark.parametrize("argv", [
    ["ladder", "N=1", "m=2", "d=1", "lambda=[1]", "seq=F1"],
    ["ladder", "N=1", "m=2", "d=2", "lambda=[2]", "seq=F1"],
    ["gram", "N=1", "m=2", "d=2", "lambda=[2]", "seqs=F1; 1"],
])
def test_small_n_is_refused_whatever_the_weights(capsys, argv):
    # N < 2 is refused before any weight is lifted or walked, so no call
    # prints ZERO or a Gram matrix for it
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and "need N >= 2" in err


@pytest.mark.parametrize("n", ["1", "0"])
def test_enumerate_refuses_small_n(capsys, n):
    assert run(["enumerate", "m=2", "d=2", f"N={n}"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "need N >= 2" in err


@pytest.mark.parametrize("m, d", [("-1", "2"), ("2", "-1")])
def test_enumerate_refuses_negative_counts(capsys, m, d):
    assert run(["enumerate", f"m={m}", f"d={d}", "N=2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "need m >= 0 and d >= 0" in err


def test_gram_rejects_mixed_weight_spaces(capsys):
    assert run(["gram", "N=2", "m=2", "d=2", "lambda=[2]", "seqs=1; F1^1"]) == 1
    assert "different weight spaces" in capsys.readouterr().err


def test_verify_relations_all_pass(capsys):
    assert run(["verify-relations", "N=2"]) == 0
    out = lines_of(capsys)
    assert out[-1].startswith("summary: ")
    assert out[-1].endswith("0 failed")
    assert all(l.endswith(" PASS") for l in out[:-1])


def test_verify_relations_rule_filter(capsys):
    assert run(["verify-relations", "N=2", "rules=digon"]) == 0
    out = lines_of(capsys)
    assert all(l.startswith("digon ") for l in out[:-1])


def test_verify_relations_unknown_rule(capsys):
    assert run(["verify-relations", "N=2", "rules=pentagon"]) == 1
    assert capsys.readouterr().err.startswith("error: unknown rule(s) pentagon (available: digon,")
    # the rule names are checked before N
    assert run(["verify-relations", "N=1", "rules=pentagon"]) == 1
    assert "unknown rule" in capsys.readouterr().err


@pytest.mark.parametrize("rules", ["digon,digon", "digon,associativity,digon"])
def test_verify_relations_refuses_a_repeated_rule(capsys, rules):
    assert run(["verify-relations", "N=2", f"rules={rules}"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: repeated rule(s) digon\n"


@pytest.mark.parametrize("rules", ["rules=", "rules=,"])
def test_verify_relations_refuses_an_empty_rule_list(capsys, rules):
    # relation_instances reads no rules as every rule; the command line
    # asks for a name instead of running the whole sweep
    assert run(["verify-relations", "N=2", rules]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: rules= names no rule (available: digon,")


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_verify_relations_small_n(capsys, n):
    assert run(["verify-relations", f"N={n}"]) == 1
    assert "need N >= 2" in capsys.readouterr().err


def test_verify_relations_fail_exit(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_report",
                        lambda N, rules=None: ["digon a=1 b=1 N=2 FAIL"])
    assert run(["verify-relations", "N=2"]) == 2
    out = lines_of(capsys)
    assert out[-1] == "summary: 1 checked, 0 passed, 1 failed"


def test_compile_mf_dump(capsys):
    assert run(["compile-mf", FRUNG]) == 0
    out = lines_of(capsys)
    assert out[0] == "N: 2"
    assert "rows:" in out
    assert any(l.startswith("boundary: ") for l in out)


def test_compile_mf_json_mirrors_dump(capsys):
    assert run(["compile-mf", "--json", FRUNG]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["N"] == 2
    assert data["qshift"] == 0 and data["hshift"] == 0
    assert data["basemodule"] == [0]
    assert data["boundary"] == {"bot.1": -1, "top.1": 1, "top.2": 1}
    assert all(set(r) == {"p", "q"} for r in data["rows"])
    assert {v["var"] for v in data["ring"]} >= {"bot.1.1", "top.1.1", "top.2.1"}


def test_ext_dim_matches_form(capsys):
    assert run(["ext-dim", FRUNG, FRUNG]) == 0
    assert lines_of(capsys) == ["dim0: q^2 + 1", "dim1: 0"]


def test_ext_dim_boundary_mismatch(capsys):
    assert run(["ext-dim", WL, FRUNG]) == 1
    assert "different boundaries" in capsys.readouterr().err


def test_ext_dim_irreducible_exit(monkeypatch, capsys):
    def boom(a, b):
        raise IrreducibleToFinite("stuck")

    monkeypatch.setattr(cli, "ext_qdim", boom)
    assert run(["ext-dim", FRUNG, FRUNG]) == 3
    assert "stuck" in capsys.readouterr().err


def _ext_dim_subprocess(left, right):
    # exclude_variables must terminate; a subprocess lets the timeout catch a
    # loop
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-m", "qwebs.cli", "ext-dim", left, right],
                          env=env, capture_output=True, text=True, timeout=20)


def test_ext_dim_digon_pair_matches_form():
    # the first web's internal digon alphabet survives its contraction
    left = "N=3 m=2 base=[3,0] rungs=[F1^1, F1^1]"
    right = "N=3 m=2 base=[3,0] rungs=[F1^2]"
    done = _ext_dim_subprocess(left, right)
    assert done.returncode == 0, done.stderr
    form = web_form(Ladder.parse(left), Ladder.parse(right))
    assert str(form) == "q^5 + 2q^3 + 2q + q^-1"
    assert done.stdout == f"dim0: {form}\ndim1: 0\n"


def test_ext_dim_residual_rows_exit_3():
    done = _ext_dim_subprocess("N=3 m=2 base=[3,0] rungs=[F1^1, F1^1, E1^1]",
                               "N=3 m=2 base=[3,0] rungs=[F1^1]")
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    assert "a row kept both entries nonzero: 3 residual rows over L.s4.1, L.s7.1, top.2.1" \
        in done.stderr


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_unknown_parameter(capsys):
    assert run(["enumerate", "m=2", "d=2", "N=2", "x=1"]) == 1
    assert "unknown parameter" in capsys.readouterr().err


def test_duplicate_parameter(capsys):
    assert run(["enumerate", "m=2", "m=3", "d=2", "N=2"]) == 1
    assert "duplicate parameter" in capsys.readouterr().err


# compile-mf stdout pinned byte for byte, so a change to the compile path
# that reorders rows, generators or terms shows up here
FRUNG_MF = """\
N: 2
ring:
  s2.1: 2 [s2]
  s1.1: 2 [s1]
  bot.1.1: 2 [bot.1]
  bot.1.2: 4 [bot.1]
  s3.1: 2 [s3]
  top.1.1: 2 [top.1]
  top.2.1: 2 [top.2]
rows:
  s2.1^2 - s2.1*s1.1 + s2.1*bot.1.1 + s1.1^2 + s1.1*bot.1.1 + bot.1.1^2 ; s2.1 + s1.1 - bot.1.1
  -3*bot.1.1 ; s2.1*s1.1 - bot.1.2
  s1.1^2 + s1.1*s3.1 + s3.1^2 ; -s1.1 + s3.1
  s2.1^2 + s2.1*top.1.1 + top.1.1^2 ; -s2.1 + top.1.1
  s3.1^2 + s3.1*top.2.1 + top.2.1^2 ; -s3.1 + top.2.1
qshift: 0
hshift: 0
basemodule: [0]
boundary: bot.1:-1 top.1:+1 top.2:+1
"""

N3_TWO_RUNGS = "N=3 m=3 base=[3,0,0] rungs=[F1^2, F2^1]"
N3_TWO_RUNGS_MF = """\
N: 3
ring:
  s2.1: 2 [s2]
  s1.1: 2 [s1]
  s1.2: 4 [s1]
  bot.1.1: 2 [bot.1]
  bot.1.2: 4 [bot.1]
  bot.1.3: 6 [bot.1]
  s3.1: 2 [s3]
  s3.2: 4 [s3]
  s5.1: 2 [s5]
  s4.1: 2 [s4]
  s6.1: 2 [s6]
  top.1.1: 2 [top.1]
  top.2.1: 2 [top.2]
  top.3.1: 2 [top.3]
rows:
  s2.1^3 - s2.1^2*s1.1 + s2.1^2*bot.1.1 - s2.1*s1.1^2 - 2*s2.1*s1.1*bot.1.1 + s2.1*bot.1.1^2 + s1.1^3 + s1.1^2*bot.1.1 - 4*s1.1*s1.2 + s1.1*bot.1.1^2 - 4*s1.2*bot.1.1 + bot.1.1^3 ; s2.1 + s1.1 - bot.1.1
  2*s2.1*s1.1 + 2*s1.2 - 4*bot.1.1^2 + 2*bot.1.2 ; s2.1*s1.1 + s1.2 - bot.1.2
  4*bot.1.1 ; s2.1*s1.2 - bot.1.3
  s1.1^3 + s1.1^2*s3.1 + s1.1*s3.1^2 - 4*s1.1*s3.2 + s3.1^3 - 4*s3.1*s3.2 ; -s1.1 + s3.1
  -4*s1.1^2 + 2*s1.2 + 2*s3.2 ; -s1.2 + s3.2
  s3.1^3 + s3.1^2*s5.1 + s3.1^2*s4.1 + s3.1*s5.1^2 - 2*s3.1*s5.1*s4.1 + s3.1*s4.1^2 + s5.1^3 - s5.1^2*s4.1 - s5.1*s4.1^2 + s4.1^3 ; -s3.1 + s5.1 + s4.1
  -4*s3.1^2 + 2*s3.2 + 2*s5.1*s4.1 ; -s3.2 + s5.1*s4.1
  s4.1^3 + s4.1^2*s6.1 + s4.1*s6.1^2 + s6.1^3 ; -s4.1 + s6.1
  s2.1^3 + s2.1^2*top.1.1 + s2.1*top.1.1^2 + top.1.1^3 ; -s2.1 + top.1.1
  s5.1^3 + s5.1^2*top.2.1 + s5.1*top.2.1^2 + top.2.1^3 ; -s5.1 + top.2.1
  s6.1^3 + s6.1^2*top.3.1 + s6.1*top.3.1^2 + top.3.1^3 ; -s6.1 + top.3.1
qshift: 0
hshift: 0
basemodule: [0]
boundary: bot.1:-1 top.1:+1 top.2:+1 top.3:+1
"""


@pytest.mark.parametrize("web,want", [(FRUNG, FRUNG_MF), (N3_TWO_RUNGS, N3_TWO_RUNGS_MF)])
def test_compile_mf_golden(capsys, web, want):
    assert run(["compile-mf", web]) == 0
    assert capsys.readouterr().out == want


def test_output_is_stable(capsys):
    run(["compile-mf", DIGON])
    first = capsys.readouterr().out
    run(["compile-mf", DIGON])
    assert capsys.readouterr().out == first


def test_console_entry_point():
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate", "m=1", "d=1", "N=2"])
    assert exc.value.code == 0


# ------------------------------------- the pinned calls of the cli benchmark


def _pinned_calls():
    """The calls of perfbench/cli_expected.json, which this file reads only."""
    with open(ROOT / "perfbench" / "cli_expected.json") as fh:
        return json.load(fh)["calls"]


def _laurent(text):
    """The LaurentPoly that LaurentPoly.__str__ prints as text."""
    words = text.split(" ")
    out = LaurentPoly.zero()
    for sign, body in zip(["+"] + words[1::2], words[0::2]):
        head, q, tail = body.lstrip("-").partition("q")
        coeff = int(head or 1) * (-1 if (sign == "-") != body.startswith("-") else 1)
        out = out + LaurentPoly.q_power((int(tail[1:]) if tail else 1) if q else 0, coeff)
    return out


def test_pinned_calls_in_process(capsys):
    calls = _pinned_calls()
    assert len(calls) == 35
    bad = []
    for call in calls:
        code = run(list(call["argv"]))
        out = capsys.readouterr().out
        if "form" in call:
            # a call pinned by the form of its two webs, not by its bytes
            form = _laurent(call["form"])
            assert str(form) == call["form"]
            dims = dict(line.split(": ", 1) for line in out.splitlines())
            ok = code == 0 and _laurent(dims["dim0"]) + _laurent(dims["dim1"]) == form
        else:
            ok = (code == call["exit"]
                  and hashlib.sha256(out.encode()).hexdigest() == call["stdout_sha256"])
        if not ok:
            bad.append((call["argv"], code, out[:200]))
    assert bad == []


@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_pinned_compile_and_ext_calls_as_processes(hashseed):
    # the bytes do not depend on the interpreter's string hashing
    calls = [c for c in _pinned_calls()
             if c["argv"][0] in ("compile-mf", "ext-dim") and "stdout_sha256" in c]
    assert len(calls) == 8
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": hashseed}
    bad = []
    for call in calls:
        done = subprocess.run([sys.executable, "-m", "qwebs.cli", *call["argv"]], env=env,
                              capture_output=True, timeout=20)
        if (done.returncode != call["exit"]
                or hashlib.sha256(done.stdout).hexdigest() != call["stdout_sha256"]):
            bad.append((call["argv"], done.returncode, done.stdout[:200]))
    assert bad == []
