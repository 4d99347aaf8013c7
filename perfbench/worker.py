"""One pass of one workload, in a fresh process with cold library caches.

run.py starts this file and reads the JSON object it prints as its last
line. Modes:
  setup  stop where the first op would start and report that instant
  run    run the pass untraced, each op under a deadline
  trace  the same with every layer wrapped (layertrace.py), ops in --skip left out

Every op ends in one of four outcomes:
  solved    checked exact answer
  typed     IrreducibleToFinite (CLI exit 3): no finite answer, not a failure
  deadline  a known hang of variable exclusion (gen.KNOWN_HANGS), cut off at
            its deadline
  failed    wrong answer, an exception the library does not declare, or any
            other op cut off at its deadline
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
import gen  # noqa: E402
import speed  # noqa: E402

# Per-op deadlines. The slowest op that finishes at the seed commit takes
# about 0.16 s (relations), 0.04 s (compile), 0.15 s (ext) and 0.3 s (one CLI
# call), so each limit leaves room for a loaded machine. The ext and cli
# limits are kept short because the hanging exclusions run until cut off.
DEADLINE_S = {"relations": 5.0, "compile": 5.0, "ext": 0.5, "cli": 1.0}
# Traced ops run several times slower; the traced pass already leaves out
# the ops that did not complete untraced.
TRACE_DEADLINE_FACTOR = 20


class Deadline(BaseException):
    """Raised by SIGALRM inside the op that ran past its deadline.

    A BaseException, so that no `except Exception` in the library swallows it.
    """


def _alarm(signum, frame):
    raise Deadline()


def _within(seconds, fn, *args):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def parse_laurent(text):
    """{exponent: coeff} of a polynomial printed by the CLI, e.g. 'q^3 + 2q - q^-1'."""
    out = {}
    for term in re.split(r"(?<!\^)(?=[+-])", text.replace(" ", "")):
        if not term:
            continue
        sign = -1 if term[0] == "-" else 1
        body = term.lstrip("+-")
        if "q" in body:
            head, _, tail = body.partition("q")
            coeff, exp = int(head or 1), int(tail[1:]) if tail else 1
        else:
            coeff, exp = int(body), 0
        out[exp] = out.get(exp, 0) + sign * coeff
    return {e: c for e, c in out.items() if c}


def _dims_total(text):
    """dim0 + dim1 of `qwebs ext-dim` output, or None if it does not parse."""
    try:
        dims = dict(line.split(": ", 1) for line in text.splitlines())
        total = parse_laurent(dims["dim0"])
        for e, c in parse_laurent(dims["dim1"]).items():
            total[e] = total.get(e, 0) + c
    except (KeyError, ValueError):
        return None
    return {e: c for e, c in total.items() if c}


def _ladder(spec):
    from qwebs.webs import Ladder, Rung

    N, m, base, rungs = spec
    return Ladder(N, m, base, tuple(Rung(*r) for r in rungs))


class Pass:
    """Inputs and op runner of one workload pass."""

    def __init__(self, workload, seed, pass_no, inproc):
        self.workload = workload
        self.inproc = inproc
        items = gen.ops(workload, seed, pass_no)
        if workload == "relations":
            from qwebs.relations import relation_instances

            insts = relation_instances(gen.RELATIONS_N)
            if len(insts) != gen.RELATIONS_COUNT:
                raise RuntimeError(f"relation_instances({gen.RELATIONS_N}) has {len(insts)} "
                                   f"instances, expected {gen.RELATIONS_COUNT}")
            self.items = [(i, insts[x]) for i, x in items]
        elif workload == "compile":
            self.items = [(i, _ladder(spec)) for i, spec in items]
        elif workload == "ext":
            self.items = [(i, (name, _ladder(u), _ladder(v))) for i, (name, u, v) in items]
        else:
            self.items = items
            path = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
            self.env = dict(os.environ, PYTHONPATH=path)
        import qwebs.cli  # noqa: F401  every layer is imported before the first op

    def calibration(self):
        """(calibration, its reference time, measure before every k-th op)."""
        if self.workload == "cli" and not self.inproc:
            # every second call: a spawn costs a third of a call, and three
            # passes (102 completed calls, enough for a p90) fit in 30 s
            return speed.spawn_time, speed.SPAWN_REF_S, 2
        return speed.loop_time, speed.LOOP_REF_S, 1

    def run_op(self, idx, payload, deadline, tracer):
        """(outcome, seconds, detail). Checks run after the clock stops."""
        from qwebs.mfcore import IrreducibleToFinite

        t0 = time.perf_counter()
        try:
            result = _within(deadline, getattr(self, "_" + self.workload), payload)
        except Deadline:
            took = time.perf_counter() - t0
            if tracer is not None:
                tracer.drop_op(idx)
            if idx in gen.KNOWN_HANGS.get(self.workload, ()):
                return "deadline", took, None
            return "failed", took, f"cut off at its {deadline} s deadline; not a known hang"
        except IrreducibleToFinite as exc:
            return "typed", time.perf_counter() - t0, str(exc)
        except Exception as exc:  # an undeclared error is a failed op, not a harness crash
            return "failed", time.perf_counter() - t0, repr(exc)
        took = time.perf_counter() - t0
        if tracer is not None:
            tracer.live = False
        try:
            outcome, detail = _within(deadline, getattr(self, "_check_" + self.workload),
                                      payload, result)
        except Deadline:
            outcome, detail = "failed", "check ran past the deadline"
        except Exception as exc:
            outcome, detail = "failed", f"check raised {exc!r}"
        finally:
            if tracer is not None:
                tracer.live = True
        return outcome, took, detail

    # ------------------------------------------------------------ the ops
    # Library names are looked up per call, not bound at set-up, so that a
    # traced pass calls the wrapped functions.

    def _relations(self, inst):
        from qwebs.relations import verify_relation

        return verify_relation(inst, gen.RELATIONS_N)

    def _check_relations(self, inst, ok):
        return ("solved", None) if ok is True else ("failed", f"{inst} reads FAIL")

    def _compile(self, lad):
        from qwebs.mfcore import compile_web, dump_mf

        mf = compile_web(lad)
        return mf, dump_mf(mf)

    def _check_compile(self, lad, result):
        from qwebs.mfcore import check_potential

        mf, text = result
        if not text.startswith(f"N: {lad.N}\n") or not check_potential(mf):
            return "failed", f"{lad}: potential does not match its boundary"
        return "solved", None

    def _ext(self, payload):
        from qwebs.mfcore import compile_web, ext_qdim
        from qwebs.repfun import web_form

        _, u, v = payload
        h0, h1 = ext_qdim(compile_web(u), compile_web(v))
        return h0, h1, web_form(u, v)

    def _check_ext(self, payload, result):
        h0, h1, form = result
        if h0 + h1 != form:
            _, u, v = payload
            return "failed", f"{u} / {v}: h0 + h1 = {h0 + h1}, form {form}"
        return "solved", None

    def _cli(self, call):
        if self.inproc:
            from qwebs import cli

            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(list(call["argv"]))
            return code, out.getvalue().encode()
        # the SIGALRM deadline interrupts the wait; subprocess.run then kills
        # and reaps the child before Deadline propagates
        proc = subprocess.run([sys.executable, "-m", "qwebs.cli", *call["argv"]],
                              capture_output=True, env=self.env, cwd=ROOT)
        return proc.returncode, proc.stdout

    def _check_cli(self, call, result):
        code, stdout = result
        if "form" in call:
            # the pinned hang has no pinned bytes: check EXT against the form
            if code == 3:
                return "typed", None
            text = stdout.decode(errors="replace")
            if code == 0 and _dims_total(text) == parse_laurent(call["form"]):
                return "solved", None
            return "failed", f"{call['argv']}: exit {code}, stdout {stdout[:200]!r}"
        if code != call["exit"] or hashlib.sha256(stdout).hexdigest() != call["stdout_sha256"]:
            return "failed", f"{call['argv']}: exit {code}, stdout {stdout[:200]!r}"
        return "solved", None


def _pin_to_current_cpu():
    """Keep this process, and the CLI processes it starts, on one CPU.

    The CPUs of a shared machine can run at different speeds at once; on one
    CPU the calibration loop before an op (speed.py) runs where the op runs.
    """
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, ValueError, IndexError):
        pass


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("relations", "compile", "ext", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass-no", type=int, default=0)
    p.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    p.add_argument("--inproc", action="store_true",
                   help="cli only: call cli.run in this process instead of a subprocess")
    p.add_argument("--skip", default="", help="comma-separated op ids to leave out")
    args = p.parse_args(argv)

    _pin_to_current_cpu()
    sys.path.insert(0, SRC)
    work = Pass(args.workload, args.seed, args.pass_no, args.inproc)
    setup_end = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"setup_end": setup_end}))
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    deadline = DEADLINE_S[args.workload]
    tracer = None
    skip = {int(x) for x in args.skip.split(",") if x}
    if args.mode == "trace":
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
        deadline *= TRACE_DEADLINE_FACTOR
    cal_fn, cal_ref, cal_every = work.calibration()
    ops = []
    t0 = time.perf_counter()
    for idx, payload in work.items:
        if idx in skip:
            continue
        if tracer is not None:
            tracer.op = idx
        cal = cal_fn() if len(ops) % cal_every == 0 else None
        outcome, took, detail = work.run_op(idx, payload, deadline, tracer)
        ops.append([idx, outcome, took, cal, detail])
    wall = time.perf_counter() - t0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {"setup_end": setup_end, "wall_s": wall, "ops": ops, "cal_ref": cal_ref,
              # ru_maxrss is in KiB on Linux; for subprocess CLI calls the
              # program's memory is that of the largest child
              "peak_rss_mb": (kids if args.workload == "cli" and not args.inproc else own) / 1024}
    if tracer is not None:
        tracer.uninstall()
        from qwebs.repfun import split_matrix
        from layertrace import layer_metrics

        result["layers"] = layer_metrics(tracer, split_matrix.cache_info())
        result["spans"] = len(tracer.spans)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
