"""Layer tracing from outside the library.

Wraps the public functions of each qwebs layer, and every name another
module imported them under (`relations.lincomb_matrix`, `mfcore.fraction_rank`,
`cli.compile_web`, ...), so inner calls are seen too. A span records name,
start, end, parent span and the op id it belongs to; spans stay in memory and
are written out once, at the end of the pass. Hot constructors and
arithmetic are counted, not timed: a span per `LaurentPoly.__init__` would
cost more than the work it measures.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# An observer runs after a live call returns, with (tracer, args, result).


def _nnz(tracer, args, out):
    tracer.counts["repfun.matrix_nnz"] += len(out.entries())


def _exclusion(tracer, args, out):
    mf = args[0]
    c = tracer.counts
    c["mfcore.exclude.rows_in"] += len(mf.rows)
    c["mfcore.exclude.rows_out"] += len(out.rows)
    c["mfcore.exclude.vars_in"] += len(mf.gr.ring.gens)
    c["mfcore.exclude.vars_out"] += len(out.gr.ring.gens)


def _cells(tracer, args, out):
    rows = args[0]
    if isinstance(rows, (list, tuple)):
        tracer.counts["linalg.fraction_rank.cells"] += sum(len(r) for r in rows)


# (module, class or None, attribute, span name, observer)
SPANS = [
    ("qpoly", "MultiPoly", "substitute", "qpoly.MultiPoly.substitute", None),
    ("qpoly", "MultiPoly", "convert", "qpoly.MultiPoly.convert", None),
    ("qpoly", "MultiPoly", "exact_divide", "qpoly.MultiPoly.exact_divide", None),
    ("webs", None, "make_ladder", "webs.make_ladder", None),
    ("repfun", None, "ladder_matrix", "repfun.ladder_matrix", _nnz),
    ("repfun", None, "lincomb_matrix", "repfun.lincomb_matrix", _nnz),
    ("repfun", None, "rung_matrix", "repfun.rung_matrix", _nnz),
    ("repfun", "QMatrix", "compose", "repfun.QMatrix.compose", _nnz),
    ("repfun", None, "web_form", "repfun.web_form", None),
    ("repfun", None, "ev_closed", "repfun.ev_closed", None),
    ("relations", None, "verify_relation", "relations.verify_relation", None),
    ("mfcore", None, "compile_web", "mfcore.compile_web", None),
    ("mfcore", None, "mf_merge", "mfcore.mf_piece", None),
    ("mfcore", None, "mf_split", "mfcore.mf_piece", None),
    ("mfcore", None, "mf_edge", "mfcore.mf_piece", None),
    ("mfcore", None, "tensor_all", "mfcore.tensor_all", None),
    ("mfcore", "KoszulMF", "__init__", "mfcore.KoszulMF.init", None),
    ("mfcore", None, "exclude_variables", "mfcore.exclude_variables", _exclusion),
    ("mfcore", None, "ext_qdim", "mfcore.ext_qdim", None),
    ("mfcore", None, "check_potential", "mfcore.check_potential", None),
    ("_linalg", None, "fraction_rank", "linalg.fraction_rank", _cells),
    ("cli", None, "run", "cli.run", None),
]

# (module, class or None, attribute, count name)
COUNTS = [
    ("qpoly", "LaurentPoly", "__init__", "qpoly.LaurentPoly.init"),
    ("qpoly", "LaurentPoly", "__mul__", "qpoly.LaurentPoly.mul"),
    # every MultiPoly is built by one of these two
    ("qpoly", "MultiPoly", "__init__", "qpoly.MultiPoly.objects"),
    ("qpoly", "MultiPoly", "_raw", "qpoly.MultiPoly.objects"),
    ("webs", None, "compose", "webs.compose"),
]

# Spans that still record while the tracer is paused: the untimed checks.
ALWAYS = {"mfcore.check_potential"}


class Tracer:
    """Spans and counts of one pass. `live` is cleared around untimed checks
    so that their inner calls do not count as op work."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent id, op id, nested in same name]
        self.counts = Counter()
        self.op = -1
        self.live = True
        self._stack = []
        self._active = Counter()
        self._undo = []

    def _span(self, name, fn, observe):
        spans, stack, active, clock = self.spans, self._stack, self._active, time.perf_counter
        always = name in ALWAYS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not (self.live or always):
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, active[name] > 0]
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                active[name] -= 1
            if observe is not None and self.live:
                observe(self, args, out)
            return out

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.live:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, owner, attr, make):
        orig = vars(owner)[attr]
        if isinstance(orig, classmethod):
            wrapped = classmethod(make(orig.__func__))
        else:
            wrapped = make(orig)
        # every alias: class attributes such as __rmul__ = __mul__, and names
        # other qwebs modules imported with `from .x import f`
        homes = [owner] if isinstance(owner, type) else [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "qwebs" or name.startswith("qwebs."))]
        for home in homes:
            for key, val in list(vars(home).items()):
                if val is orig:
                    setattr(home, key, wrapped)
                    self._undo.append((home, key, orig))

    def install(self):
        """Wrap every layer; qwebs and all its modules must be imported."""
        mods = {name: sys.modules["qwebs." + name]
                for name in ("qpoly", "webs", "repfun", "relations", "mfcore", "_linalg", "cli")}
        for mod, cls, attr, name, observe in SPANS:
            owner = getattr(mods[mod], cls) if cls else mods[mod]
            self._rebind(owner, attr, lambda fn, n=name, o=observe: self._span(n, fn, o))
        for mod, cls, attr, name in COUNTS:
            owner = getattr(mods[mod], cls) if cls else mods[mod]
            self._rebind(owner, attr, lambda fn, n=name: self._count(n, fn))

    def uninstall(self):
        for home, key, orig in reversed(self._undo):
            setattr(home, key, orig)
        self._undo.clear()

    def drop_op(self, op):
        """Forget the spans of an op that was cut off by its deadline.

        Counts of a cut-off op cannot be separated and stay; callers report
        how many ops were cut off.
        """
        self.spans = [s for s in self.spans if s[4] != op]

    def summary(self):
        """name -> {calls, s (outermost spans only), self_s}."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out = {}
        for sid, (name, start, end, _, _, nested) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            if not nested:
                agg["s"] += end - start
            agg["self_s"] += end - start - child[sid]
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id\tparent\top\tname\tstart\tend\n")
            for sid, (name, start, end, parent, op, _) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{op}\t{name}\t{start:.9f}\t{end:.9f}\n")


def layer_metrics(tracer, split_cache_info):
    """The per-layer metrics of BENCHMARK.json that a traced pass yields."""
    s = tracer.summary()
    c = tracer.counts

    def span(name, stat):
        return s.get(name, {}).get(stat, 0)

    hits, misses = split_cache_info.hits, split_cache_info.misses
    vars_in = c["mfcore.exclude.vars_in"]
    m = {
        "qpoly.LaurentPoly.init_calls": c["qpoly.LaurentPoly.init"],
        "qpoly.LaurentPoly.mul_calls": c["qpoly.LaurentPoly.mul"],
        "qpoly.MultiPoly.objects": c["qpoly.MultiPoly.objects"],
        "webs.compose.calls": c["webs.compose"],
        "repfun.matrix_nnz": c["repfun.matrix_nnz"],
        "repfun.split_matrix.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "mfcore.exclude.rows_in": c["mfcore.exclude.rows_in"],
        "mfcore.exclude.rows_out": c["mfcore.exclude.rows_out"],
        "mfcore.exclude.vars_in": vars_in,
        "mfcore.exclude.vars_out": c["mfcore.exclude.vars_out"],
        "mfcore.exclude.var_removal_ratio":
            (vars_in - c["mfcore.exclude.vars_out"]) / vars_in if vars_in else 0.0,
        "linalg.fraction_rank.cells": c["linalg.fraction_rank.cells"],
    }
    for op in ("substitute", "convert", "exact_divide"):
        m[f"qpoly.MultiPoly.{op}_calls"] = span(f"qpoly.MultiPoly.{op}", "calls")
        m[f"qpoly.MultiPoly.{op}_s"] = span(f"qpoly.MultiPoly.{op}", "s")
    m["mfcore.KoszulMF.init_calls"] = span("mfcore.KoszulMF.init", "calls")
    m["mfcore.KoszulMF.init_s"] = span("mfcore.KoszulMF.init", "s")
    for name in ("webs.make_ladder", "mfcore.mf_piece", "linalg.fraction_rank"):
        m[f"{name}.calls"] = span(name, "calls")
        m[f"{name}.s"] = span(name, "s")
    for name in ("repfun.ladder_matrix", "repfun.lincomb_matrix", "repfun.rung_matrix",
                 "repfun.QMatrix.compose", "mfcore.exclude_variables"):
        m[f"{name}.calls"] = span(name, "calls")
        m[f"{name}.self_s"] = span(name, "self_s")
    for name in ("repfun.web_form", "repfun.ev_closed", "mfcore.tensor_all",
                 "mfcore.check_potential"):
        m[f"{name}.s"] = span(name, "s")
    for name in ("relations.verify_relation", "mfcore.compile_web", "mfcore.ext_qdim",
                 "cli.run"):
        m[f"{name}.self_s"] = span(name, "self_s")
    return m
