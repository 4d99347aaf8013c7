import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qwebs.cli as cli
from qwebs.cli import run
from qwebs.mfcore import IrreducibleToFinite

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
    assert "unknown rule" in capsys.readouterr().err


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


def test_ext_dim_digon_pair_exits_3():
    # exclude_variables must terminate here; a subprocess lets the timeout
    # catch a loop
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "qwebs.cli", "ext-dim",
         "N=3 m=2 base=[3,0] rungs=[F1^1, F1^1]", "N=3 m=2 base=[3,0] rungs=[F1^2]"],
        env=env, capture_output=True, text=True, timeout=20)
    assert done.returncode == 3, done.stderr
    assert "internal alphabets survive contraction" in done.stderr


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
