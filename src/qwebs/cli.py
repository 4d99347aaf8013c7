"""Batch command line front end.

Subcommands cover the library surface: weight enumeration, building ladders
from divided-power sequences, closed evaluation, the web form and its Gram
matrices, relation sweeps, factorization compilation, and EXT dimensions.
Scalar parameters are passed as key=value tokens (`enumerate m=2 d=2 N=2`);
webs are passed in the one-line ladder text format, quoted as a single shell
argument. Output is plain text, one record per line, identical bytes for
identical inputs; --json switches to a structured dump with the same content.

Exit codes: 0 on success, 1 on any validation or parse error, 2 when a
relation sweep printed at least one FAIL line, 3 when an EXT computation
cannot reduce its input to a finite quotient.

Divided-power sequences are written as *-joined factors, rightmost acting
first: `E1^2*F1^1` means apply F at position 1, then a thickness-2 E. A bare
`1` (or nothing) is the empty product. A list of sequences is separated by
semicolons.
"""

from __future__ import annotations

import argparse
import json
import sys

from .mfcore import IrreducibleToFinite, compile_web, dump_mf, ext_qdim
from .relations import RULES, verify_report
from .repfun import ev_closed, web_form
from .webs import Ladder, Rung, Zero, enumerate_weights, ladder_from_sequence


class CliError(ValueError):
    """Bad command line input; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse wants to sys.exit(2) on usage errors; 2 is taken.
    def error(self, message):
        raise CliError(message)


# ------------------------------------------------------------- input parsing


def _parse_int(text):
    try:
        return int(text)
    except ValueError:
        raise CliError(f"expected an integer, got {text!r}") from None


def _parse_int_list(text):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise CliError(f"expected a bracketed list like [0,2], got {text!r}")
    body = text[1:-1].strip()
    if not body:
        return []
    return [_parse_int(x) for x in body.split(",")]


def _parse_seq(text):
    """One divided-power sequence: *-joined E/F tokens, `1` for identity."""
    text = text.strip()
    if not text or text == "1":
        return []
    out = []
    for tok in text.split("*"):
        tok = tok.strip()
        if "^" not in tok:
            tok += "^1"
        try:
            r = Rung.parse(tok)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        out.append((r.sign, r.pos, r.thickness))
    return out


def _parse_seqs(text):
    return [_parse_seq(part) for part in text.split(";")]


def _parse_web(text):
    try:
        return Ladder.parse(text)
    except ValueError as exc:
        raise CliError(str(exc)) from None


_CONVERTERS = {
    "N": _parse_int,
    "m": _parse_int,
    "d": _parse_int,
    "lambda": _parse_int_list,
    "seq": _parse_seq,
    "seqs": _parse_seqs,
    "rules": lambda t: tuple(x.strip() for x in t.split(",") if x.strip()),
}


def _params(tokens, required, optional=()):
    """Read key=value tokens against a fixed key set; every key at most once."""
    allowed = tuple(required) + tuple(optional)
    out = {}
    for tok in tokens:
        key, sep, val = tok.partition("=")
        if not sep:
            raise CliError(f"expected key=value, got {tok!r}")
        if key not in allowed:
            raise CliError(f"unknown parameter {key!r} (expected {', '.join(allowed)})")
        if key in out:
            raise CliError(f"duplicate parameter {key!r}")
        out[key] = _CONVERTERS[key](val)
    for key in required:
        if key not in out:
            raise CliError(f"missing parameter {key}=")
    return out


def _weight_str(k):
    return "[" + ",".join(str(x) for x in k) + "]"


# ----------------------------------------------------------------- handlers
#
# Each handler returns its plain output lines and its JSON record; run writes
# one of them.


def _cmd_enumerate(ns):
    p = _params(ns.params, ("m", "d", "N"))
    weights = enumerate_weights(p["m"], p["d"], p["N"])
    return [_weight_str(k) for k in weights], {"weights": [list(k) for k in weights]}


def _cmd_ladder(ns):
    p = _params(ns.params, ("N", "m", "d", "lambda", "seq"))
    lad = ladder_from_sequence(p["seq"], p["lambda"], p["m"], p["d"], p["N"])
    text = "ZERO" if lad is Zero else str(lad)
    return [text], {"ladder": text}


def _cmd_eval(ns):
    value = str(ev_closed(_parse_web(ns.web)))
    return [value], {"value": value}


def _cmd_form(ns):
    value = str(web_form(_parse_web(ns.left), _parse_web(ns.right)))
    return [value], {"value": value}


def _cmd_gram(ns):
    p = _params(ns.params, ("N", "m", "d", "lambda", "seqs"))
    lads = [
        ladder_from_sequence(s, p["lambda"], p["m"], p["d"], p["N"])
        for s in p["seqs"]
    ]
    tops = {tuple(l.top) for l in lads if l is not Zero}
    if len(tops) > 1:
        raise CliError(
            "sequences land in different weight spaces: "
            + ", ".join(_weight_str(t) for t in sorted(tops, reverse=True))
        )
    n = len(lads)
    entries = []
    for i in range(n):
        for j in range(n):
            v = web_form(lads[i], lads[j])
            if not v.is_zero():
                entries.append((i, j, v))
    gens = ["ZERO" if l is Zero else str(l) for l in lads]
    lines = [f"size {n}"]
    lines += [f"gen {i} {g}" for i, g in enumerate(gens)]
    lines += [f"entry {i} {j} {v}" for i, j, v in entries]
    return lines, {
        "size": n,
        "gens": gens,
        "entries": [{"row": i, "col": j, "value": str(v)} for i, j, v in entries],
    }


def _cmd_verify_relations(ns):
    p = _params(ns.params, ("N",), ("rules",))
    if p.get("rules") == ():  # relation_instances would read it as every rule
        raise CliError(f"rules= names no rule (available: {', '.join(RULES)})")
    lines = verify_report(p["N"], p.get("rules"))
    failed = sum(1 for line in lines if line.endswith(" FAIL"))
    passed = len(lines) - failed
    summary = f"summary: {len(lines)} checked, {passed} passed, {failed} failed"
    return lines + [summary], {"lines": lines, "checked": len(lines),
                               "passed": passed, "failed": failed}


def _cmd_compile_mf(ns):
    mf = compile_web(_parse_web(ns.web))
    return dump_mf(mf).splitlines(), {
        "N": mf.N,
        "ring": [{"var": x, "degree": deg, "alphabet": name}
                 for (x, deg), name in zip(mf.gr.ring.gens, mf.gr.owners)],
        "rows": [{"p": str(p), "q": str(q)} for p, q, _, _ in mf.rows],
        "qshift": mf.qshift,
        "hshift": mf.hshift,
        "basemodule": list(mf.basemodule),
        "boundary": dict(mf.boundary),
    }


def _cmd_ext_dim(ns):
    left = compile_web(_parse_web(ns.left))
    right = compile_web(_parse_web(ns.right))
    if left.boundary != right.boundary:
        raise CliError("webs have different boundaries")
    h0, h1 = (str(h) for h in ext_qdim(left, right))
    return [f"dim0: {h0}", f"dim1: {h1}"], {"dim0": h0, "dim1": h1}


# ----------------------------------------------------------------- dispatch


def _build_parser():
    parser = _Parser(prog="qwebs", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, handler, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--json", action="store_true",
                        help="structured output instead of plain lines")
        sp.set_defaults(handler=handler)
        return sp

    sp = add("enumerate", _cmd_enumerate, "list the N-bounded weights with m parts summing to d")
    sp.add_argument("params", nargs="*", metavar="m= d= N=")

    sp = add("ladder", _cmd_ladder, "ladder (or ZERO) for a divided-power sequence at a weight")
    sp.add_argument("params", nargs="*", metavar="N= m= d= lambda= seq=")

    sp = add("eval", _cmd_eval, "closed evaluation of a web")
    sp.add_argument("web", help="ladder text, quoted")

    sp = add("form", _cmd_form, "web form of two webs with common boundary")
    sp.add_argument("left", help="ladder text, quoted")
    sp.add_argument("right", help="ladder text, quoted")

    sp = add("gram", _cmd_gram, "Gram matrix of the web form over generated ladders")
    sp.add_argument("params", nargs="*", metavar="N= m= d= lambda= seqs=")

    sp = add("verify-relations", _cmd_verify_relations, "sweep diagram relations, PASS/FAIL per instance")
    sp.add_argument("params", nargs="*", metavar="N= [rules=]")

    sp = add("compile-mf", _cmd_compile_mf, "compile a web and dump the factorization")
    sp.add_argument("web", help="ladder text, quoted")

    sp = add("ext-dim", _cmd_ext_dim, "graded EXT dimensions between two compiled webs")
    sp.add_argument("left", help="ladder text, quoted")
    sp.add_argument("right", help="ladder text, quoted")

    return parser


def run(argv):
    """Parse argv (no program name), execute, write stdout in the chosen
    format and return the exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        lines, record = ns.handler(ns)
    except IrreducibleToFinite as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if ns.json:
        sys.stdout.write(json.dumps(record, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("".join(line + "\n" for line in lines))
    # only a relation sweep's record counts failures; one FAIL line exits 2
    return 2 if record.get("failed") else 0


def main(argv=None):
    sys.exit(run(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
