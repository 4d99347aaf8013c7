import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from qwebs.qpoly import LaurentPoly
from qwebs.webs import Ladder, Rung
from qwebs.mfcore import (
    GradedRing,
    KoszulMF,
    _piece,
    check_potential,
    compile_web,
    dual,
    dump_mf,
    exclude_variables,
    ext_qdim,
    koszul,
    mf_edge,
    mf_merge,
    mf_split,
    rename_alphabets,
    shift_h,
    shift_q,
    tensor,
)


def unbalanced(*exps):
    out = LaurentPoly.zero()
    for e in exps:
        out = out + LaurentPoly.q_power(e)
    return out


def test_graded_ring_basics():
    gr = GradedRing([("top", 2), ("bot", 2)])
    assert gr.names() == ("top", "bot")
    assert gr.indices("top") == (1, 2)
    assert gr.ring.degree_of("top.2") == 4
    assert gr.size("missing") == 0
    smaller = gr.without("top.1")
    assert smaller.indices("top") == (2,)
    with pytest.raises(ValueError):
        GradedRing([("a", 1), ("a", 2)])


def test_empty_alphabets_are_pruned():
    gr = GradedRing([("a", 0), ("b", 1)])
    assert gr.names() == ("b",)


def test_edge_k1_shape():
    e = mf_edge(1, 2)
    assert len(e.rows) == 1
    p, q, dp, dq = e.rows[0]
    t = e.gr.var("top", 1)
    b = e.gr.var("bot", 1)
    assert q == t - b
    assert p == t * t + t * b + b * b
    assert (dp, dq) == (4, 2)
    assert check_potential(e)


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_edge_potential(k, N):
    assert check_potential(mf_edge(k, N))


def test_edge_row_degrees_sum():
    e = mf_edge(3, 3)
    for p, q, dp, dq in e.rows:
        assert dp + dq == 8
        assert p.homogeneous_degree() == dp
        assert q.homogeneous_degree() == dq


@pytest.mark.parametrize("k1,k2", [(1, 1), (1, 2), (2, 1), (3, 0), (0, 3)])
def test_merge_split_potential(k1, k2):
    for N in (2, 3):
        assert check_potential(mf_merge(k1, k2, N))
        assert check_potential(mf_split(k1, k2, N))


def test_merge_shift():
    assert mf_merge(1, 2, 3).qshift == -2
    assert mf_split(1, 2, 3).qshift == 0


def test_degenerate_merge_split_equal_edge():
    for N in (2, 3):
        for k in (1, 2):
            edge = mf_edge(k, N, top="t", bot="b")
            assert mf_merge(0, k, N, top="t", bot1="dead", bot2="b") == edge
            assert mf_merge(k, 0, N, top="t", bot1="b", bot2="dead") == edge
            split = mf_split(k, 0, N, top1="t", top2="dead", bot="b")
            edge2 = mf_edge(k, N, top="t", bot="b")
            assert split.rows == edge2.rows
            assert split.qshift == 0


def test_koszul_row_and_errors():
    gr = GradedRing([("a", 1)])
    x = gr.var("a", 1)
    mf = koszul(gr, x * x * x, x, 3)
    assert mf.rows[0][2:] == (6, 2)
    with pytest.raises(ValueError):
        koszul(gr, x * x, x, 3)  # degrees 4 + 2 != 8
    with pytest.raises(ValueError):
        KoszulMF(gr, [(gr.ring.zero(), gr.ring.zero())], 2)
    zz = KoszulMF(gr, [(gr.ring.zero(), gr.ring.zero(), 4, 2)], 2)
    assert zz.rows[0][2:] == (4, 2)


def test_tensor_glues_and_collides():
    a = mf_edge(1, 2, top="mid", bot="bot")
    b = mf_edge(1, 2, top="top", bot="mid")
    t = tensor(a, b)
    assert t.gr.names() == ("mid", "bot", "top")
    assert t.boundary == {"bot": -1, "top": 1}
    assert check_potential(t)
    with pytest.raises(ValueError):
        tensor(mf_edge(1, 2, top="x", bot="y"), mf_edge(2, 2, top="x", bot="z"))
    with pytest.raises(ValueError):
        tensor(mf_edge(1, 2, top="x", bot="y"), mf_edge(1, 3, top="z", bot="x"))
    e = mf_edge(1, 2)
    assert tensor(dual(e), e).potential().is_zero()


def test_shifts_and_dual():
    e = mf_edge(1, 2)
    assert shift_q(e, 3).qshift == 3
    assert shift_h(e).hshift == 1
    assert shift_h(shift_h(e)).hshift == 0
    d = dual(shift_q(e, 2))
    assert d.qshift == -2
    assert d.potential() == -e.potential()
    assert d.boundary == {"top": -1, "bot": 1}
    p, q, dp, dq = e.rows[0]
    assert d.rows[0] == (-q, p, dq, dp)


def test_rename_alphabets():
    e = mf_edge(2, 2, top="t", bot="b")
    r = rename_alphabets(e, {"b": "inner"})
    assert r.gr.names() == ("t", "inner")
    assert r.boundary == {"t": 1, "inner": -1}
    assert check_potential(r)


@pytest.mark.parametrize("build", [
    lambda: mf_edge(2, 3, top="t", bot="t"),
    lambda: mf_edge(0, 3, top="t", bot="t"),
    lambda: mf_merge(1, 2, 3, top="t", bot1="b", bot2="t"),
    lambda: mf_merge(0, 2, 3, top="t", bot1="t", bot2="b"),
    lambda: mf_merge(0, 0, 3, top="b", bot1="t", bot2="t"),
    lambda: mf_split(2, 1, 3, top1="t", top2="b", bot="t"),
    lambda: mf_split(2, 0, 3, top1="t", top2="b", bot="b"),
])
def test_piece_duplicate_names_raise(build):
    # a zero-thickness strand has no alphabet in the ring, but its name counts
    with pytest.raises(ValueError, match="duplicate alphabet"):
        build()


def _rename_by_substitution(mf, mapping):
    """Reference rename: substitute each moved variable by its new name."""
    gr = mf.gr.renamed(mapping)
    moved = {f"{n}.{j}": gr.var(mapping[n], j)
             for n, idx in mf.gr.alphabets if n in mapping for j in idx}
    rows = tuple((p.substitute(moved, gr.ring), q.substitute(moved, gr.ring), dp, dq)
                 for p, q, dp, dq in mf.rows)
    boundary = {mapping.get(n, n): s for n, s in mf.boundary.items()}
    return KoszulMF(gr, rows, mf.N, qshift=mf.qshift, hshift=mf.hshift,
                    basemodule=mf.basemodule, boundary=boundary)


def _relabel_checked(mf, mapping):
    out = rename_alphabets(mf, mapping)
    want = _rename_by_substitution(mf, mapping)
    assert out == want and dump_mf(out) == dump_mf(want)
    return out


def test_rename_matches_substitution_on_pieces():
    merge_names = {"top": "m", "bot1": "bot2", "bot2": "x"}
    split_names = {"top1": "bot", "top2": "top1", "bot": "y"}
    for N in (2, 3):
        for k1 in range(N + 1):
            for k2 in range(N + 1 - k1):
                merge = _piece.__wrapped__("merge", k1, k2, N)
                split = _piece.__wrapped__("split", k1, k2, N)
                assert mf_merge(k1, k2, N, **merge_names) == _relabel_checked(merge, merge_names)
                assert mf_split(k1, k2, N, **split_names) == _relabel_checked(split, split_names)
            edge = _piece.__wrapped__("merge", k1, 0, N)
            assert mf_edge(k1, N, top="u", bot="v") == _relabel_checked(
                edge, {"top": "u", "bot1": "v"})
    # the renamed copies handed out above left the cached pieces as built
    for N in (2, 3):
        for kind in ("merge", "split"):
            for k1 in range(N + 1):
                for k2 in range(N + 1 - k1):
                    assert _piece(kind, k1, k2, N) == _piece.__wrapped__(kind, k1, k2, N)


def _small_ladders():
    for N, base in ((2, (2, 1, 0)), (3, (2, 1, 3)), (3, (3, 0, 1))):
        yield Ladder(N, 3, base, [])
        for r1, r2 in product([None] + [Rung(p, s, a) for p in (1, 2) for s in (1, -1)
                                        for a in (1, 2)], repeat=2):
            try:
                yield Ladder(N, 3, base, [r for r in (r1, r2) if r is not None])
            except ValueError:
                pass


def test_rename_matches_substitution_on_compiled_ladders():
    for lad in _small_ladders():
        mf = compile_web(lad)
        names = mf.gr.names()
        _relabel_checked(mf, {n: f"R.{n}" for n in names if n not in mf.boundary})
        _relabel_checked(mf, dict(zip(names, reversed(names))))


def test_rename_matches_substitution_on_ext_glue():
    # the rename ext_qdim applies to its contracted second argument
    for lad in _small_ladders():
        red = exclude_variables(compile_web(lad))
        _relabel_checked(red, {n: f"R.{n}" for n in red.gr.names() if n not in red.boundary})
    # an alphabet left with a sparse index set after exclusions
    gr = GradedRing([("a", (2, 3)), ("b", 1)])
    mf = KoszulMF(gr, [(gr.var("a", 3), gr.var("a", 2) + gr.var("b", 1) ** 2)], 4,
                  boundary={"b": 1})
    assert _relabel_checked(mf, {"a": "R.a"}).gr.indices("R.a") == (2, 3)


def test_compile_identity_ladder_is_edge():
    lad = Ladder(2, 2, (2, 0), [])
    mf = compile_web(lad)
    assert mf == mf_edge(2, 2, top="top.1", bot="bot.1")


def test_compile_rung_boundary_and_shift():
    lad = Ladder(2, 2, (2, 0), [Rung(1, -1, 1)])
    mf = compile_web(lad)
    assert mf.boundary == {"bot.1": -1, "top.1": 1, "top.2": 1}
    assert mf.qshift == 0  # merge against an empty strand costs nothing
    assert check_potential(mf)
    lad2 = Ladder(2, 2, (1, 1), [Rung(1, -1, 1)])
    mf2 = compile_web(lad2)
    assert mf2.qshift == -1
    assert check_potential(mf2)


def test_compile_two_rungs_potential():
    lad = Ladder(3, 3, (2, 1, 1), [Rung(1, -1, 1), Rung(2, 1, 1)])
    mf = compile_web(lad)
    assert check_potential(mf)
    assert mf.boundary == {"bot.1": -1, "bot.2": -1, "bot.3": -1,
                           "top.1": 1, "top.2": 1}


def test_exclusion_keeps_boundary():
    e = mf_edge(2, 3)
    assert exclude_variables(e) == e


@pytest.mark.parametrize("N", [2, 3])
def test_overfull_strand_contracts(N):
    e = mf_edge(N + 1, N)
    out = exclude_variables(e)
    assert out.is_zero_object()


def test_exclusion_scalar_rule():
    gr = GradedRing([("a", 1)])
    x = gr.var("a", 1)
    mf = KoszulMF(gr, [(gr.ring.const(3), x * x * x, 0, 6)], 2)
    assert exclude_variables(mf).is_zero_object()


def test_exclusion_linear_rule_shifts():
    # q-side exclusion carries no shift, p-side costs the row's half-twist
    gr = GradedRing([("a", 1), ("c", 1)])
    x = gr.var("a", 1)
    y = gr.var("c", 1)
    row_q = (x * y, x - y, 4, 2)
    out = exclude_variables(KoszulMF(gr, [row_q], 2))
    assert out.rows == () and out.qshift == 0 and out.hshift == 0
    assert out.gr.ring.names() == ("c.1",)
    row_p = (x - y, x * y, 2, 4)
    out = exclude_variables(KoszulMF(gr, [row_p], 2))
    assert out.rows == () and out.qshift == 1 and out.hshift == 1


@pytest.mark.parametrize("N", [2, 3, 4])
def test_ext_point_class(N):
    e = mf_edge(1, N)
    h0, h1 = ext_qdim(e, e)
    assert h0 == unbalanced(*range(0, 2 * N, 2))
    assert h1 == LaurentPoly.zero()


def test_ext_two_strand():
    e = mf_edge(2, 3)
    h0, h1 = ext_qdim(e, e)
    assert h0 == unbalanced(0, 2, 4)
    assert h1 == LaurentPoly.zero()
    full = mf_edge(2, 2)
    h0, h1 = ext_qdim(full, full)
    assert h0 == LaurentPoly.one()
    assert h1 == LaurentPoly.zero()


def test_ext_of_zero_is_zero():
    e = mf_edge(3, 2)
    h0, h1 = ext_qdim(e, e)
    assert h0.is_zero() and h1.is_zero()


def test_ext_matches_form_on_a_rung():
    from qwebs.repfun import web_form

    lad = Ladder(2, 2, (2, 0), [Rung(1, -1, 1)])
    mf = compile_web(lad)
    h0, h1 = ext_qdim(mf, mf)
    assert h0 + h1 == web_form(lad, lad)


def test_ext_boundary_mismatch():
    with pytest.raises(ValueError):
        ext_qdim(mf_edge(1, 2), mf_edge(2, 2))


# exclude_variables must terminate on this digon-shaped pair, where a row
# sweep returns its input unchanged. The call runs in a subprocess so that a
# loop fails on the timeout instead of stalling the suite.
DIGON_HANG = """
import sys
from qwebs.mfcore import IrreducibleToFinite, compile_web, ext_qdim
from qwebs.webs import Ladder, Rung
u = Ladder(3, 2, (3, 0), [Rung(1, -1, 1), Rung(1, -1, 1)])
v = Ladder(3, 2, (3, 0), [Rung(1, -1, 2)])
try:
    ext_qdim(compile_web(u), compile_web(v))
except IrreducibleToFinite:
    sys.exit(0)
sys.exit("ext_qdim returned instead of raising IrreducibleToFinite")
"""


def test_exclusion_terminates_on_digon_pair():
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-c", DIGON_HANG], env=env,
                          capture_output=True, text=True, timeout=20)
    assert done.returncode == 0, done.stderr


def test_composed_identity_edges_are_transparent():
    # gluing identity strands through internal alphabets must not shift EXT
    N = 2
    single = mf_edge(1, N, top="t", bot="b")
    double = tensor(mf_edge(1, N, top="t", bot="m"), mf_edge(1, N, top="m", bot="b"))
    want = ext_qdim(single, single)
    assert ext_qdim(double, double) == want
    assert ext_qdim(double, single) == want
    assert ext_qdim(single, double) == want


def test_digon_web_contracts_through_basemodule():
    # F then E holds an internal digon; its contraction is rank two, not Koszul
    lad = Ladder(2, 2, (2, 0), [Rung(1, -1, 1), Rung(1, 1, 1)])
    red = exclude_variables(compile_web(lad))
    assert set(red.gr.names()) <= {"bot.1", "top.1"}
    assert red.basemodule == (0, 2)


def test_ext_agrees_with_form_on_small_ladders():
    from itertools import product

    from qwebs.repfun import web_form

    N, m, base = 2, 2, (2, 0)
    lads = []

    def grow(rungs, weight):
        lads.append(Ladder(N, m, base, list(rungs)))
        if len(rungs) == 2:
            return
        for sign in (1, -1):
            nk = (weight[0] + sign, weight[1] - sign)
            if 0 <= nk[0] <= N and 0 <= nk[1] <= N:
                grow(rungs + [Rung(1, sign, 1)], nk)

    grow([], base)
    by_top = {}
    for lad in lads:
        by_top.setdefault(lad.top, []).append(lad)
    for group in by_top.values():
        for u, v in product(group, repeat=2):
            h0, h1 = ext_qdim(compile_web(u), compile_web(v))
            assert h0 + h1 == web_form(u, v)


def test_dump_deterministic():
    text = dump_mf(mf_edge(1, 2))
    assert text == (
        "N: 2\n"
        "ring:\n"
        "  top.1: 2 [top]\n"
        "  bot.1: 2 [bot]\n"
        "rows:\n"
        "  top.1^2 + top.1*bot.1 + bot.1^2 ; top.1 - bot.1\n"
        "qshift: 0\n"
        "hshift: 0\n"
        "basemodule: [0]\n"
        "boundary: bot:-1 top:+1\n"
    )
    assert dump_mf(mf_edge(2, 3)) == dump_mf(mf_edge(2, 3))
