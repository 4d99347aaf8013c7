import gc
import hashlib
import importlib.util
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from itertools import count, product
from pathlib import Path

import pytest

from qwebs import mfcore
from oracles import certified_hilbert
from qwebs.qpoly import LaurentPoly, MultiPoly, PolyRing
from qwebs.webs import Ladder, Rung, Zero, compose, d_norm, reflect
from qwebs.mfcore import (
    GradedRing,
    IrreducibleToFinite,
    KoszulMF,
    _glue,
    _p_at_slots,
    _piece,
    check_potential,
    compile_web,
    dual,
    dump_mf,
    exclude_variables,
    ext_qdim,
    mf_edge,
    mf_merge,
    mf_split,
    rename_alphabets,
    tensor,
    tensor_all,
)


@pytest.fixture(autouse=True)
def fresh_contractions():
    # ext_qdim keeps each web's contraction; a test that patches the exclusion
    # must see it run, not be served what an earlier test left behind
    mfcore._contracted.cache_clear()
    yield
    mfcore._contracted.cache_clear()


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
    with pytest.raises(ValueError):
        GradedRing([("a", 1), ("a", 2)])


def test_owners_name_the_alphabet_of_each_slot():
    # slots run through the alphabets in order, sparse and dotted ones too
    gr = GradedRing([("a", 2), ("b", 0), ("c", (2, 3)), ("d.x", 1)])
    assert gr.owners == ("a", "a", "c", "c", "d.x")
    assert gr.ring.names() == ("a.1", "a.2", "c.2", "c.3", "d.x.1")
    assert GradedRing([]).owners == ()


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
    mf = KoszulMF(gr, [(x * x * x, x)], 3)
    assert mf.rows[0][2:] == (6, 2)
    with pytest.raises(ValueError):
        KoszulMF(gr, [(x * x, x)], 3)  # degrees 4 + 2 != 8
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
    with pytest.raises(ValueError, match="size collision"):
        tensor_all([mf_edge(1, 2, top="x", bot="y"), mf_edge(2, 2, top="x", bot="z")], 2)
    with pytest.raises(ValueError, match="different N"):
        tensor_all([mf_edge(1, 2, top="x", bot="y"), mf_edge(1, 3, top="z", bot="x")], 2)
    e = mf_edge(1, 2)
    assert tensor(dual(e), e).potential().is_zero()


def test_shifts_and_dual():
    e = mf_edge(1, 2)
    d = dual(KoszulMF(e.gr, e.rows, e.N, qshift=2, boundary=e.boundary))
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
    # a name the factorization does not carry is ignored, a collision raises
    assert rename_alphabets(e, {"x": "t", "b": "inner"}) == r
    with pytest.raises(ValueError, match="duplicate alphabet t"):
        rename_alphabets(e, {"b": "t"})


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
    gr = GradedRing((mapping.get(n, n), idx) for n, idx in mf.gr.alphabets)
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
    # the renames ext_qdim applies to its contracted arguments
    for lad in _small_ladders():
        red = exclude_variables(compile_web(lad))
        _relabel_checked(red, {n: f"L.{n}" for n in red.gr.names() if n not in red.boundary})
        _relabel_checked(red, {n: f"R.{n}" for n in red.gr.names() if n not in red.boundary})
    # an alphabet left with a sparse index set after exclusions
    gr = GradedRing([("a", (2, 3)), ("b", 1)])
    mf = KoszulMF(gr, [(gr.var("a", 3), gr.var("a", 2) + gr.var("b", 1) ** 2)], 4,
                  boundary={"b": 1})
    assert _relabel_checked(mf, {"a": "R.a"}).gr.indices("R.a") == (2, 3)


# ------------------------------------------ the two-pass route as oracle


def _tensor_by_convert(factors, N):
    """Reference tensor: convert every row into the amalgamated ring by name."""
    alphs = {}
    for f in factors:
        assert f.N == N
        for name, idx in f.gr.alphabets:
            assert alphs.setdefault(name, idx) == idx
    gr = GradedRing(alphs.items())
    rows, boundary, qshift, hshift, base = [], {}, 0, 0, (0,)
    for f in factors:
        rows.extend((p.convert(gr.ring), q.convert(gr.ring), dp, dq) for p, q, dp, dq in f.rows)
        for name, sign in f.boundary.items():
            boundary[name] = boundary.get(name, 0) + sign
        qshift += f.qshift
        hshift += f.hshift
        base = tuple(d + e for d in base for e in f.basemodule)
    return KoszulMF(gr, rows, N, qshift=qshift, hshift=hshift, basemodule=base,
                    boundary=boundary)


def _compile_by_pieces(u):
    """Reference compile: substitute each piece into its own checked ring, then
    convert every row into the amalgamated ring."""
    N, k, fresh = u.N, list(u.base), count(1)
    seg = [f"bot.{i + 1}" for i in range(u.m)]
    factors = []
    for rung in u.rungs:
        i, a = rung.pos - 1, rung.thickness
        k1, k2 = k[i], k[i + 1]
        if rung.sign == 1:
            j, r, l = (f"s{next(fresh)}" for _ in range(3))
            factors.append(_rename_by_substitution(_piece("split", a, k2 - a, N),
                                                   {"top1": j, "top2": r, "bot": seg[i + 1]}))
            factors.append(_rename_by_substitution(_piece("merge", a, k1, N),
                                                   {"top": l, "bot1": j, "bot2": seg[i]}))
            k[i], k[i + 1] = k1 + a, k2 - a
        else:
            j, l, r = (f"s{next(fresh)}" for _ in range(3))
            factors.append(_rename_by_substitution(_piece("split", k1 - a, a, N),
                                                   {"top1": l, "top2": j, "bot": seg[i]}))
            factors.append(_rename_by_substitution(_piece("merge", k2, a, N),
                                                   {"top": r, "bot1": seg[i + 1], "bot2": j}))
            k[i], k[i + 1] = k1 - a, k2 + a
        seg[i], seg[i + 1] = l, r
    for i in range(u.m):
        if k[i]:
            factors.append(_rename_by_substitution(_piece("merge", k[i], 0, N),
                                                   {"top": f"top.{i + 1}", "bot1": seg[i]}))
    return _tensor_by_convert(factors, N)


def _check_potential_by_substitution(mf):
    """Reference check: substitute each boundary alphabet into the power sum
    and multiply every row out."""
    declared = W = mf.gr.ring.zero()
    for name, sign in mf.boundary.items():
        slots = [mf.gr.var(name, j) for j in mf.gr.indices(name)]
        declared = declared + sign * _p_at_slots(mf.gr, mf.N, slots)
    for p, q, _, _ in mf.rows:
        W = W + p * q
    return W == declared


@pytest.fixture(scope="module")
def criterion_08_ladders():
    """Criterion 08's 6,049 ladders, in its order."""
    out = []
    for N in (2, 3):
        for m in (1, 2, 3):
            for base in product(range(N + 1), repeat=m):
                frontier = [Ladder(N, m, base)]
                out.extend(frontier)
                for _ in range(3):
                    frontier = [ext for lad in frontier for pos in range(1, m)
                                for sign in (1, -1) for a in range(1, N + 1)
                                if (ext := lad.with_rung(Rung(pos, sign, a))) is not Zero]
                    out.extend(frontier)
    assert len(out) == 6049
    return out


def test_compile_matches_two_pass_route(criterion_08_ladders):
    for lad in criterion_08_ladders[::7]:
        mf = compile_web(lad)
        assert mf == _compile_by_pieces(lad), str(lad)
        assert check_potential(mf) and _check_potential_by_substitution(mf), str(lad)


def test_compile_copies_and_checks_once(monkeypatch):
    lad = Ladder(3, 3, (2, 1, 1), [Rung(1, -1, 1), Rung(2, 1, 1)])
    want = compile_web(lad)  # warms the piece cache
    inits = []
    real_init = KoszulMF.__init__

    def counted(self, *args, **kw):
        inits.append(1)
        real_init(self, *args, **kw)

    def refuse(*args, **kw):
        raise AssertionError("a row took the two-pass route")

    monkeypatch.setattr(KoszulMF, "__init__", counted)
    monkeypatch.setattr(MultiPoly, "convert", refuse)
    monkeypatch.setattr(mfcore, "rename_alphabets", refuse)
    # built anew, as compile_web would hand back the interned want
    assert mfcore._build_web(lad) == want
    assert len(inits) == 1


def test_ext_glue_matches_two_pass_route():
    # the gluing step of ext_qdim, on its contracted and renamed arguments
    for u, v in _same_top_pairs(2, 3):
        a, b = exclude_variables(compile_web(u)), exclude_variables(compile_web(v))
        if a.is_zero_object() or b.is_zero_object():
            continue
        lmap = {n: f"L.{n}" for n in a.gr.names() if n not in a.boundary}
        rmap = {n: f"R.{n}" for n in b.gr.names() if n not in b.boundary}
        want = _tensor_by_convert((dual(_rename_by_substitution(a, lmap)),
                                   _rename_by_substitution(b, rmap)), u.N)
        assert _glue([(dual(a), lmap), (b, rmap)], u.N) == want, (str(u), str(v))


def test_ext_glues_once(monkeypatch):
    u = compile_web(Ladder(2, 2, (2, 0), [Rung(1, -1, 1), Rung(1, 1, 1)]))
    v = compile_web(Ladder(2, 2, (2, 0), [Rung(1, -1, 1), Rung(1, -1, 1), Rung(1, 1, 2)]))
    want = (LaurentPoly({-2: 1, 0: 2, 2: 1}), LaurentPoly.zero())

    glues = []

    def counted(placed, N):
        glues.append(len(placed))
        return _glue(placed, N)

    def refuse(*args, **kw):
        raise AssertionError("the gluing took the two-pass route")

    # exclusion converts its own rows; only the gluing step is watched here
    monkeypatch.setattr(mfcore, "_glue", counted)
    for name in ("rename_alphabets", "tensor", "tensor_all"):
        monkeypatch.setattr(mfcore, name, refuse)
    assert ext_qdim(u, v) == want
    assert glues == [2]


def _with_row(mf, r, row):
    rows = list(mf.rows)
    rows[r] = row
    return KoszulMF(mf.gr, rows, mf.N, qshift=mf.qshift, hshift=mf.hshift,
                    basemodule=mf.basemodule, boundary=mf.boundary)


def test_check_potential_sees_a_changed_row():
    for lad in _small_ladders():
        mf = compile_web(lad)
        for r, (p, q, dp, dq) in enumerate(mf.rows):
            for bad in (_with_row(mf, r, (p, -q, dp, dq)), _with_row(mf, r, (p * 2, q, dp, dq))):
                assert not check_potential(bad), (str(lad), r)


def test_glue_refuses_colliding_renames():
    merge = _piece("merge", 1, 1, 2)
    for piece, renames in ((merge, {"top": "a", "bot1": "a", "bot2": "b"}),  # two onto one
                           (merge, {"bot1": "top"}),  # onto a name kept as it is
                           # onto the name of a strand pruned for thickness zero
                           (_piece("merge", 2, 0, 2), {"top": "a", "bot1": "b", "bot2": "a"})):
        with pytest.raises(ValueError, match="duplicate alphabet"):
            _glue([(piece, renames)], 2)
    # names shared between factors glue; a swap is no collision
    glued = _glue([(merge, {"bot1": "bot2", "bot2": "bot1"}), (merge, {})], 2)
    assert glued.gr.names() == ("top", "bot2", "bot1")


def test_wrong_degree_reaches_the_check_through_glue(monkeypatch):
    good = _piece("merge", 1, 1, 3)
    p, q, dp, dq = good.rows[0]
    bad = KoszulMF._raw(good.gr, ((p * good.gr.var("top", 1), q, dp, dq),) + good.rows[1:],
                        good.N, good.qshift, good.hshift, good.basemodule, good.boundary)
    with pytest.raises(ValueError, match="entry degree"):
        _glue([(bad, {})], 3)
    # this ladder's F-rung places the merge of 1 with 1; built anew, so that
    # no interned web of an equal ladder stands in for the patched piece
    monkeypatch.setattr(mfcore, "_piece", lambda *key: bad if key == ("merge", 1, 1, 3)
                        else _piece(*key))
    with pytest.raises(ValueError, match="entry degree"):
        mfcore._build_web(Ladder(3, 2, (1, 1), [Rung(1, -1, 1)]))


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


@pytest.mark.parametrize("hshift", [0, 1])
def test_ext_readout_of_zero_rows(hshift):
    # a row with both entries zero is the Koszul complex R -0-> R: it doubles
    # the EXT space, the copy in odd h-degree shifted by q^((dq - dp)/2) as a
    # flipped row's is (CONVENTIONS.md, Duals); an odd h-shift swaps h0, h1
    gr = GradedRing([])
    zero = gr.ring.zero()
    point = KoszulMF(gr, [], 2)
    rows = [(zero, zero, 0, 6), (zero, zero, 4, 2)]
    mf = KoszulMF(gr, rows, 2, qshift=5, hshift=hshift)
    h0, h1 = ext_qdim(point, mf)
    assert (h0 + h1).evaluate(1) == 2 ** len(rows)
    s1, s2 = (6 - 0) // 2, (2 - 4) // 2
    even = LaurentPoly.q_power(5) * (LaurentPoly.one() + LaurentPoly.q_power(s1 + s2))
    odd = LaurentPoly.q_power(5) * (LaurentPoly.q_power(s1) + LaurentPoly.q_power(s2))
    assert (h0, h1) == ((odd, even) if hshift else (even, odd))


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
# sweep returns its input unchanged and an internal alphabet of the first web
# survives its contraction. The call runs in a subprocess so that a loop fails
# on the timeout instead of stalling the suite.
DIGON_PAIR = """
import sys
from qwebs.mfcore import compile_web, ext_qdim
from qwebs.repfun import web_form
from qwebs.webs import Ladder, Rung
u = Ladder(3, 2, (3, 0), [Rung(1, -1, 1), Rung(1, -1, 1)])
v = Ladder(3, 2, (3, 0), [Rung(1, -1, 2)])
h0, h1 = ext_qdim(compile_web(u), compile_web(v))
if h0 + h1 != web_form(u, v):
    sys.exit(f"h0 + h1 = {h0 + h1}, form {web_form(u, v)}")
"""


def test_exclusion_terminates_on_digon_pair():
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-c", DIGON_PAIR], env=env,
                          capture_output=True, text=True, timeout=20)
    assert done.returncode == 0, done.stderr


def _restless(calls):
    """A row sweep that always reports progress but never exposes a linear
    entry, recording each call in calls."""
    def sweep(cur, internals):
        calls.append(1)
        if len(calls) > 50:
            raise AssertionError("exclude_variables kept sweeping")
        return KoszulMF(cur.gr, cur.rows, cur.N, qshift=cur.qshift, hshift=cur.hshift,
                        basemodule=cur.basemodule, boundary=cur.boundary)
    return sweep


def _unexcludable():
    gr = GradedRing([("a", 1)])
    x = gr.var("a", 1)
    return KoszulMF(gr, [(x * x, x * x, 4, 4)], 3)


def test_exclusion_bounds_row_sweeps(monkeypatch):
    calls = []
    monkeypatch.setattr(mfcore, "_rref_once", _restless(calls))
    mf = _unexcludable()
    with pytest.raises(IrreducibleToFinite):
        exclude_variables(mf)
    assert len(calls) == mfcore.MAX_IDLE_SWEEPS


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


def _ladders(N, max_rungs, base=None):
    """The ladders over base, (N, 0) by default, with <= max_rungs rungs."""
    base = base or (N, 0)
    lads = frontier = [Ladder(N, len(base), base, [])]
    for _ in range(max_rungs):
        frontier = [ext for lad in frontier for pos in range(1, len(base))
                    for sign in (1, -1) for a in range(1, N + 1)
                    if (ext := lad.with_rung(Rung(pos, sign, a))) is not Zero]
        lads = lads + frontier
    return lads


def _same_top_pairs(N, max_rungs, base=None):
    """The same-top pairs of ladders over base, (N, 0) by default, with <=
    max_rungs rungs."""
    by_top = {}
    for lad in _ladders(N, max_rungs, base):
        by_top.setdefault(lad.top, []).append(lad)
    return [(u, v) for group in by_top.values() for u, v in product(group, repeat=2)]


@pytest.mark.parametrize("base,max_rungs,count", [((2, 2, 0), 4, 1135), ((2, 0, 0, 0), 3, 148)])
def test_ext_matches_the_form_beyond_two_strands(base, max_rungs, count):
    # a rung at position 2 or 3 meets strands that two-strand sweeps never
    # reach; at N=2 every pair answers, with no odd part
    from qwebs.repfun import web_form

    pairs = _same_top_pairs(2, max_rungs, base)
    assert len(pairs) == count
    bad = []
    for u, v in pairs:
        h0, h1 = ext_qdim(compile_web(u), compile_web(v))
        if not h1.is_zero() or h0 != web_form(u, v):
            bad.append((str(u), str(v)))
    assert bad == []


@pytest.mark.parametrize("base,least_answered", [((3, 0, 0), 705), ((3, 3, 0), 711)])
def test_ext_matches_the_form_on_three_strands_at_n3(base, least_answered):
    # N=3 with up to three rungs reaches thickness-2 and -3 rungs at position
    # 2, which neither the two-strand sweeps nor N=2 meet; a pair that raises
    # is passed over, so a readout that answers it later needs no edit
    from qwebs.repfun import web_form

    pairs = _same_top_pairs(3, 3, base)
    assert len(pairs) == 730
    answered, bad = 0, []
    for u, v in pairs:
        try:
            h0, h1 = ext_qdim(compile_web(u), compile_web(v))
        except IrreducibleToFinite:
            continue
        answered += 1
        if not h1.is_zero() or h0 != web_form(u, v):
            bad.append((str(u), str(v)))
    assert bad == [] and answered >= least_answered


def test_dual_commutes_with_exclusion(monkeypatch):
    # gluing the uncontracted first web through dual gives the same EXT as
    # ext_qdim, which contracts it first
    pairs = _same_top_pairs(2, 3)
    assert len(pairs) == 75
    real = mfcore.exclude_variables
    for u, v in pairs:
        a, b = compile_web(u), compile_web(v)
        want = ext_qdim(a, b)
        with monkeypatch.context() as mp:
            # the patched run neither reads nor keeps contractions: a kept one
            # would answer for a, and its uncontracted a would answer for an
            # equal b here and for the next pair's want
            mp.setattr(mfcore, "_contracted", lambda mf: mfcore.exclude_variables(mf))
            mp.setattr(mfcore, "exclude_variables", lambda mf: mf if mf is a else real(mf))
            assert ext_qdim(a, b) == want, (str(u), str(v))


def test_dual_is_an_involution_on_compiled_webs():
    # twice (p, q) -> (-q, p) is (-p, -q): the same factorization with its
    # odd generator negated; the internal shifts cancel
    for lad in _small_ladders():
        mf = compile_web(lad)
        negated = KoszulMF(mf.gr, [(-p, -q, dp, dq) for p, q, dp, dq in mf.rows], mf.N,
                           qshift=mf.qshift, hshift=mf.hshift, basemodule=mf.basemodule,
                           boundary=mf.boundary)
        assert dual(dual(mf)) == negated, str(lad)


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


# ------------------------------------------------ pinned exclusion output


def _bench_gen():
    """perfbench/gen.py, loaded by path: the fixed EXT pair sets live there."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("_bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


# SHA-256 of the exclusion dump of each pair's first web and of its EXT, or
# of its IrreducibleToFinite message, over the four EXT sets of the benchmark
# and the 400 same-top pairs at N=3, m=2, base (3, 0) with <= 3 rungs
EXCLUSION_DIGEST = "9a3f21cb88f99f8154f70e33b3c4b7e50195bde8d223f67580438669bb953e47"


def test_exclusion_output_is_pinned():
    gen = _bench_gen()
    wide = gen._pairs(3, 2, (3, 0), 3, 3)
    assert len(wide) == 400
    pairs = gen.ext_pairs() + [("n3m2r3", u, v) for u, v in wide]
    digest = hashlib.sha256()
    raised = 0
    for name, u, v in pairs:
        a, b = (compile_web(Ladder(N, m, base, tuple(Rung(*r) for r in rungs)))
                for N, m, base, rungs in (u, v))
        digest.update(f"{name} {u} {v}\n".encode())
        digest.update(dump_mf(exclude_variables(a)).encode())
        try:
            h0, h1 = ext_qdim(a, b)
            digest.update(f"{h0} | {h1}\n".encode())
        except IrreducibleToFinite as exc:
            raised += 1
            digest.update(f"IrreducibleToFinite: {exc}\n".encode())
    assert raised == 17
    assert digest.hexdigest() == EXCLUSION_DIGEST


# ------------------------------------------- EXT identities without the form


@pytest.fixture(scope="module")
def n3_sweep_ext():
    """ext_qdim of each of the 400 same-top pairs at N=3, m=2, base (3, 0)
    with <= 3 rungs, by pair; None where it raises IrreducibleToFinite."""
    pairs = _same_top_pairs(3, 3)
    assert len(pairs) == 400
    out = {}
    for u, v in pairs:
        try:
            out[u, v] = ext_qdim(compile_web(u), compile_web(v))
        except IrreducibleToFinite:
            out[u, v] = None
    return out


def test_ext_has_no_odd_part_on_the_n3_sweep(n3_sweep_ext):
    # measured, not derived (CONVENTIONS.md, "EXT identities"); a pair that
    # raises is passed over, so a readout that answers it later needs no edit
    answered = {uv: h for uv, h in n3_sweep_ext.items() if h is not None}
    assert len(answered) >= 383
    assert [(str(u), str(v)) for (u, v), (_, h1) in answered.items() if not h1.is_zero()] == []


def test_ext_is_bar_symmetric_on_the_n3_sweep(n3_sweep_ext):
    # h0(v, u) = q^(2 d(k)) * bar(h0(u, v)) at the common top k, the form's
    # own symmetry one level up; it needs dual's internal q-shift
    both = [(u, v) for (u, v), h in n3_sweep_ext.items()
            if h is not None and n3_sweep_ext[v, u] is not None]
    assert len(both) >= 376
    bad = [(str(u), str(v)) for u, v in both
           if n3_sweep_ext[v, u][0]
           != LaurentPoly.q_power(2 * d_norm(u.top, u.N)) * n3_sweep_ext[u, v][0].bar()]
    assert bad == []


def test_ext_of_a_pair_is_the_ext_of_its_closed_web():
    # h_i(u, v) = q^d(k) * h_i(empty, reflect(u) o v) for i = 0, 1, with k the
    # common top and empty the rung-free ladder on the base: the form's own
    # definition one level up; the closed route duals only a web without
    # internal alphabets. A pair that raises either way is passed over.
    answered = 0
    for N, max_rungs, count in ((2, 3, 75), (3, 2, 43), (4, 2, 89)):
        pairs = _same_top_pairs(N, max_rungs)
        assert len(pairs) == count
        empty = compile_web(Ladder(N, 2, (N, 0), []))
        for u, v in pairs:
            try:
                pair = ext_qdim(compile_web(u), compile_web(v))
                closed = ext_qdim(empty, compile_web(compose(reflect(u), v)))
            except IrreducibleToFinite:
                continue
            answered += 1
            shift = LaurentPoly.q_power(d_norm(u.top, N))
            assert pair == tuple(shift * h for h in closed), (str(u), str(v))
    assert answered >= 203


def test_ext_adjunction_moves_a_rung_across():
    # h0(r.u, v) = q^s * h0(u, rbar.v) with s = a(-sigma*lambda - a), for r of
    # sign sigma and thickness a on strands 1-2, rbar its flip and lambda =
    # k1 - k2 at u's top: the form's adjunction one level up (CONVENTIONS.md,
    # "EXT identities"). u and v run over the N=3 ladders with <= 2 rungs, so
    # r.u and rbar.v have <= 3; a pair that raises either way is passed over.
    lads = _ladders(3, 2)
    answered, kinds = 0, set()
    for u, v in product(lads, repeat=2):
        d = v.top[0] - u.top[0]
        if d == 0:
            continue
        r = Rung(1, 1 if d > 0 else -1, abs(d))
        ru, rv = u.with_rung(r), v.with_rung(r.flipped())
        if ru is Zero or rv is Zero:
            continue
        try:
            left = ext_qdim(compile_web(ru), compile_web(v))[0]
            right = ext_qdim(compile_web(u), compile_web(rv))[0]
        except IrreducibleToFinite:
            continue
        k1, k2 = u.top
        s = r.thickness * (-r.sign * (k1 - k2) - r.thickness)
        assert left == LaurentPoly.q_power(s) * right, (str(u), str(v))
        answered += 1
        kinds.add((u.top, r.sign, r.thickness))
    assert answered >= 122 and len(kinds) >= 12


# ------------------------------------------------ the one elimination step


def test_final_drop_matches_a_fresh_ring():
    gr = GradedRing([("a", 2), ("b", 1), ("c", (2, 3)), ("d.x", 3)])
    mf = KoszulMF(gr, [], 2)
    cases = {
        ("a.1",): [("a", (2,)), ("b", 1), ("c", (2, 3)), ("d.x", 3)],
        ("b.1",): [("a", 2), ("c", (2, 3)), ("d.x", 3)],  # b is emptied and pruned
        ("c.3",): [("a", 2), ("b", 1), ("c", (2,)), ("d.x", 3)],  # sparse c stays sparse
        ("d.x.2",): [("a", 2), ("b", 1), ("c", (2, 3)), ("d.x", (1, 3))],
        gr.ring.names(): [],  # every generator at once leaves the empty ring
    }
    for names, alphabets in cases.items():
        got = mfcore._dropped(mf, {gr.ring.index(x) for x in names}).gr
        want = GradedRing(alphabets)
        assert got == want and hash(got) == hash(want), names
        assert got.ring == want.ring and hash(got.ring) == hash(want.ring)
        assert got.ring.gens == want.ring.gens and got.ring.names() == want.ring.names()
        for x in want.ring.names():
            assert got.ring.index(x) == want.ring.index(x)
            assert got.ring.degree_of(x) == want.ring.degree_of(x)
        assert not any(x in got.ring for x in names)


def _eliminate_by_substitution(cur, r, name, flip, sol=None, basemodule=None):
    """Reference step: a freshly built smaller ring, every other row through
    substitute, sol through convert, and the checked KoszulMF."""
    alph, j = name.rsplit(".", 1)
    gr = GradedRing((n, tuple(i for i in idx if not (n == alph and i == int(j))))
                    for n, idx in cur.gr.alphabets)
    mapping = {} if sol is None else {name: sol.convert(gr.ring)}
    rows = [(p.substitute(mapping, gr.ring), q.substitute(mapping, gr.ring), dp, dq)
            for k, (p, q, dp, dq) in enumerate(cur.rows) if k != r]
    qsh, hsh = cur.qshift, cur.hshift
    if flip:
        _, _, dp, dq = cur.rows[r]
        qsh, hsh = qsh + (dq - dp) // 2, hsh + 1
    return KoszulMF(gr, rows, cur.N, qshift=qsh, hshift=hsh,
                    basemodule=cur.basemodule if basemodule is None else basemodule,
                    boundary=cur.boundary)


def _over_used(mf):
    """mf over only the generators that some entry uses, moved by name."""
    used = {x for row in mf.rows for f in row[:2] for x in mf.gr.ring.names() if f.uses(x)}
    gr = GradedRing((n, [j for j in idx if f"{n}.{j}" in used]) for n, idx in mf.gr.alphabets)
    rows = [(p.convert(gr.ring), q.convert(gr.ring), dp, dq) for p, q, dp, dq in mf.rows]
    # unchecked, as a boundary alphabet may have gone unused
    return KoszulMF._raw(gr, rows, mf.N, mf.qshift, mf.hshift, mf.basemodule, mf.boundary)


@pytest.fixture(scope="module")
def sweep_webs():
    """The compiled webs of the 75 n2m2 and the 43 n3m2 pairs of the benchmark."""
    out = []
    for name, u, v in _bench_gen().ext_pairs():
        if name in ("n2m2", "n3m2"):
            out.append(tuple(compile_web(Ladder(N, m, base, tuple(Rung(*r) for r in rungs)))
                             for N, m, base, rungs in (u, v)))
    assert len(out) == 118
    return out


def test_eliminate_matches_substitution_oracle(monkeypatch, sweep_webs):
    # each step keeps its input's ring, where the oracle drops the generator,
    # so both sides are compared over the generators their entries use
    real = mfcore._eliminate
    kinds = {"linear": 0, "absorb": 0, "substituted": 0}

    def checked(cur, r, i, flip, sol=None, basemodule=None):
        out = real(cur, r, i, flip, sol=sol, basemodule=basemodule)
        name = cur.gr.ring.names()[i]
        want = _eliminate_by_substitution(cur, r, name, flip, sol=sol, basemodule=basemodule)
        out_used, want_used = _over_used(out), _over_used(want)
        assert out_used == want_used and dump_mf(out_used) == dump_mf(want_used)
        kinds["linear" if sol is not None else "absorb"] += 1
        kinds["substituted"] += any(f.uses(name) for j, row in enumerate(cur.rows) if j != r
                                    for f in row[:2])
        return out

    monkeypatch.setattr(mfcore, "_eliminate", checked)
    for a, b in sweep_webs:
        ext_qdim(a, b)
    assert all(kinds.values()), kinds


def test_eliminate_keeps_its_input_ring_and_untouched_entries(monkeypatch, sweep_webs):
    # a step substitutes only into the entries that use the eliminated slot
    real = mfcore._eliminate
    seen = {"kept": 0, "moved": 0}

    def checked(cur, r, i, flip, sol=None, basemodule=None):
        out = real(cur, r, i, flip, sol=sol, basemodule=basemodule)
        assert out.gr is cur.gr
        before = [row for j, row in enumerate(cur.rows) if j != r]
        assert len(out.rows) == len(before)
        for new, old in zip(out.rows, before):
            assert new[2:] == old[2:]
            for f, g in zip(new[:2], old[:2]):
                assert not any(e[i] for e in f.terms())
                if any(e[i] for e in g.terms()):
                    seen["moved"] += 1
                else:
                    assert f is g
                    seen["kept"] += 1
        return out

    monkeypatch.setattr(mfcore, "_eliminate", checked)
    for a, b in sweep_webs:
        ext_qdim(a, b)
    assert all(seen.values()), seen


def test_exclusion_drops_only_removed_generators():
    # s.2 is internal, used by no entry and removed by no rule: it stays
    gr = GradedRing([("b", 1), ("s", 2)])
    b, s1 = gr.var("b", 1), gr.var("s", 1)
    mf = KoszulMF(gr, [(b, s1 - b), (b, b)], 1, boundary={"b": 1})
    red = exclude_variables(mf)
    assert red.gr == GradedRing([("b", 1), ("s", (2,))])
    assert [(str(p), str(q), dp, dq) for p, q, dp, dq in red.rows] == [("b.1", "b.1", 2, 2)]


def test_exclusion_resolves_no_names(monkeypatch, sweep_webs):
    # an elimination step moves every entry by slot, so no generator is
    # looked up by name between compiling and reading off
    want = [ext_qdim(a, b) for a, b in sweep_webs]

    def refuse(*args, **kw):
        raise AssertionError("an entry was moved by generator name")

    mfcore._contracted.cache_clear()  # the second run contracts every web again
    monkeypatch.setattr(MultiPoly, "substitute", refuse)
    monkeypatch.setattr(MultiPoly, "convert", refuse)
    assert [ext_qdim(a, b) for a, b in sweep_webs] == want


def test_eliminate_refuses_a_substitution_of_another_degree(monkeypatch):
    real = mfcore._linear_solution

    def heavier(entry, i, c):
        two = next(x for x, d in entry.ring.gens if d == 2)
        return real(entry, i, c) * entry.ring.var(two)

    monkeypatch.setattr(mfcore, "_linear_solution", heavier)
    mf = compile_web(Ladder(2, 2, (2, 0), [Rung(1, -1, 1)]))
    with pytest.raises(ValueError, match="changes its degree"):
        exclude_variables(mf)


def _rechecked(mf):
    return KoszulMF(mf.gr, mf.rows, mf.N, qshift=mf.qshift, hshift=mf.hshift,
                    basemodule=mf.basemodule, boundary=mf.boundary)


def test_trusted_factorizations_pass_the_checked_constructor(monkeypatch, sweep_webs):
    # exclusion, row sweeps and dual build their results unchecked
    seen = dict.fromkeys(("exclude_variables", "_rref_once", "dual"), 0)

    def spy(fname):
        real = getattr(mfcore, fname)

        def wrapped(*args):
            out = real(*args)
            if out is not None:
                again = _rechecked(out)
                assert out == again and dump_mf(out) == dump_mf(again), fname
                assert check_potential(out), fname
                seen[fname] += 1
            return out
        return wrapped

    for fname in seen:
        monkeypatch.setattr(mfcore, fname, spy(fname))
    for a, b in sweep_webs:
        ext_qdim(a, b)
        mfcore.dual(a)  # uncontracted, so with internal variables
    assert all(seen.values()), seen


# ------------------------------------------- normal form and kept contractions


def _in_normal_form(f):
    # the checked constructor keeps it, and it holds no zero and no Fraction
    # that is an integer, which the dict comparison cannot tell from an int
    return (MultiPoly(f.ring, f._t)._t == f._t
            and all(type(v) is int and v or type(v) is Fraction and v.denominator != 1
                    for v in f._t.values()))


def test_trusted_entries_are_in_normal_form(monkeypatch, sweep_webs, criterion_08_ladders):
    # MultiPoly._raw trusts its coefficients: no zero, and no Fraction that
    # is an integer, in any factorization that compiling or contracting builds
    seen = []

    def check(mf):
        bad = [str(f) for row in mf.rows for f in row[:2] if not _in_normal_form(f)]
        assert not bad, bad
        seen.append(1)

    def spy(fname):
        real = getattr(mfcore, fname)

        def wrapped(*args, **kw):
            out = real(*args, **kw)
            if out is not None:
                check(out)
            return out
        return wrapped

    for fname in ("exclude_variables", "_eliminate", "_rref_once"):
        monkeypatch.setattr(mfcore, fname, spy(fname))
    for a, b in sweep_webs:
        check(a)
        check(b)
        ext_qdim(a, b)
    for lad in criterion_08_ladders[::61]:
        mf = compile_web(lad)
        check(mf)
        mfcore.exclude_variables(mf)
    assert len(seen) > 1000


def test_compiled_webs_hash_as_they_compare():
    lad = Ladder(3, 3, (2, 1, 1), [Rung(1, -1, 1), Rung(2, 1, 1)])
    a, b = compile_web(lad), mfcore._build_web(lad)
    assert a is not b and a == b and hash(a) == hash(b)
    # boundary equality ignores the order its alphabets were declared in
    flipped = KoszulMF._raw(a.gr, a.rows, a.N, a.qshift, a.hshift, a.basemodule,
                            dict(reversed(a.boundary.items())))
    assert list(flipped.boundary) != list(a.boundary)
    assert flipped == a and hash(flipped) == hash(a)
    # the hash a web keeps after a sweep has used it is that of its fields
    web = compile_web(Ladder(2, 3, (2, 0, 0), [Rung(1, -1, 1), Rung(2, -1, 1)]))
    ext_qdim(web, web)
    fresh = KoszulMF(web.gr, web.rows, web.N, qshift=web.qshift, hshift=web.hshift,
                     basemodule=web.basemodule, boundary=web.boundary)
    assert fresh == web and hash(fresh) == hash(web)


def test_ext_contracts_each_web_once(monkeypatch):
    u = Ladder(2, 2, (2, 0), [Rung(1, -1, 1), Rung(1, 1, 1)])
    v = Ladder(2, 2, (2, 0), [Rung(1, -1, 1), Rung(1, -1, 1), Rung(1, 1, 2)])
    real = mfcore.exclude_variables
    calls = []

    def spied(mf):
        calls.append(mf)
        return real(mf)

    monkeypatch.setattr(mfcore, "exclude_variables", spied)
    want = ext_qdim(compile_web(u), compile_web(v))
    assert len(calls) == 3
    # equal webs built anew reuse both contractions and the pair's read-off,
    # so a repeated pair runs no exclusion
    a, b = compile_web(u), compile_web(v)
    assert ext_qdim(a, b) == want
    assert len(calls) == 3


def _spy_exclusion(monkeypatch):
    """The factorizations exclude_variables is handed from now on, in order."""
    real = mfcore.exclude_variables
    calls = []

    def spied(mf):
        calls.append(mf)
        return real(mf)

    monkeypatch.setattr(mfcore, "exclude_variables", spied)
    return calls


def test_ladders_with_equal_contractions_share_one_read_off(monkeypatch):
    # F1^1 and F1^2 E1^1 compile to different webs that contract to one
    # factorization; the read-off depends on the contraction alone
    u = Ladder(2, 2, (2, 0), [Rung(1, -1, 1)])
    w = Ladder(2, 2, (2, 0), [Rung(1, -1, 2), Rung(1, 1, 1)])
    a, b = compile_web(u), compile_web(w)
    assert a != b and exclude_variables(a) == exclude_variables(b)
    want = ext_qdim(a, a)
    calls = _spy_exclusion(monkeypatch)
    assert ext_qdim(b, a) == want and ext_qdim(a, b) == want
    # only b's own contraction runs; no glued factorization is excluded
    assert calls == [b]


def test_a_pair_that_raises_is_not_kept(monkeypatch):
    left = Ladder.parse("N=3 m=2 base=[3,0] rungs=[F1^1, F1^1, E1^1]")
    right = Ladder.parse("N=3 m=2 base=[3,0] rungs=[F1^1]")
    a, b = compile_web(left), compile_web(right)
    calls = _spy_exclusion(monkeypatch)
    for _ in range(2):
        with pytest.raises(IrreducibleToFinite, match="a row kept both entries nonzero"):
            ext_qdim(a, b)
    # two contractions, then the glued factorization on each call
    assert len(calls) == 4 and calls[2] == calls[3] and calls[2] not in (a, b)
    assert mfcore._read_off.cache_info().currsize == 0
    assert mfcore._contracted.cache_info().currsize == 2


def test_clearing_the_contractions_clears_the_read_offs():
    web = compile_web(Ladder(2, 2, (2, 0), [Rung(1, -1, 1), Rung(1, 1, 1)]))
    ext_qdim(web, web)
    assert mfcore._contracted.cache_info().currsize == 1
    assert mfcore._read_off.cache_info().currsize == 1
    mfcore._contracted.cache_clear()
    assert mfcore._contracted.cache_info().currsize == 0
    assert mfcore._read_off.cache_info().currsize == 0


def test_public_exclusion_is_not_kept():
    mf = compile_web(Ladder(2, 2, (2, 0), [Rung(1, -1, 1), Rung(1, 1, 1)]))
    first, second = exclude_variables(mf), exclude_variables(mf)
    assert first is not mf and first is not second and first == second


def test_a_web_that_raises_raises_again(monkeypatch):
    calls = []
    monkeypatch.setattr(mfcore, "_rref_once", _restless(calls))
    mf = _unexcludable()
    for _ in range(2):
        with pytest.raises(IrreducibleToFinite):
            ext_qdim(mf, mf)
    assert len(calls) == 2 * mfcore.MAX_IDLE_SWEEPS
    assert mfcore._contracted.cache_info().currsize == 0


def test_equal_ladders_compile_to_one_web_while_it_lives():
    rungs = [Rung(1, -1, 1), Rung(2, 1, 1)]
    lad, again = Ladder(3, 3, (2, 1, 1), rungs), Ladder(3, 3, (2, 1, 1), tuple(rungs))
    assert lad is not again
    mf = compile_web(lad)
    assert compile_web(again) is mf
    ext_qdim(mf, mf)  # the contraction cache now holds mf
    del mf
    mfcore._contracted.cache_clear()
    gc.collect()
    # a compile-only loop keeps nothing alive
    assert lad not in mfcore._compiled_webs


def _builds_per_sweep(monkeypatch, pairs):
    """_build_web calls in each of two EXT sweeps over pairs of ladders."""
    # cold: no interned web (the module's fixtures hold some) and no contraction
    monkeypatch.setattr(mfcore, "_compiled_webs", weakref.WeakValueDictionary())
    real = mfcore._build_web
    built = []

    def spied(u):
        built.append(u)
        return real(u)

    monkeypatch.setattr(mfcore, "_build_web", spied)
    counts = []
    for _ in range(2):
        built.clear()
        for u, v in pairs:
            ext_qdim(compile_web(u), compile_web(v))
        counts.append(len(built))
    return counts


def test_a_sweep_builds_each_web_once(monkeypatch):
    pairs = _same_top_pairs(2, 3)
    assert len(pairs) == 75 and _builds_per_sweep(monkeypatch, pairs) == [15, 0]


def test_an_ext_pass_builds_each_ladder_once(monkeypatch):
    # 7 of the benchmark's 48 ext ladders compile to a factorization equal to
    # another ladder's; the contraction cache holds those webs too
    pairs = [tuple(Ladder(N, m, base, tuple(Rung(*r) for r in rungs)) for N, m, base, rungs in uv)
             for _, *uv in _bench_gen().ext_pairs()]
    assert len(pairs) == 158 and _builds_per_sweep(monkeypatch, pairs) == [48, 0]


def test_residual_rows_ride_on_the_error():
    left = Ladder.parse("N=3 m=2 base=[3,0] rungs=[F1^1, F1^1, E1^1]")
    right = Ladder.parse("N=3 m=2 base=[3,0] rungs=[F1^1]")
    with pytest.raises(IrreducibleToFinite) as info:
        ext_qdim(compile_web(left), compile_web(right))
    exc = info.value
    assert str(exc) == ("a row kept both entries nonzero: 3 residual rows over"
                        " L.s4.1, L.s7.1, top.2.1")
    assert len(exc.rows) == 3 and exc.variables == ("L.s4.1", "L.s7.1", "top.2.1")
    assert any(not p.is_zero() and not q.is_zero() for p, q, _, _ in exc.rows)
    used = {x for p, q, _, _ in exc.rows for f in (p, q) for x in exc.variables if f.uses(x)}
    assert used == set(exc.variables)
    # an error raised elsewhere carries no rows
    plain = IrreducibleToFinite("stuck")
    assert plain.rows == () and plain.variables == ()


# ------------------------------------------- the Hilbert series certificate


def _certified_or_raised(certify, ring, fs):
    try:
        return certify(ring, fs)
    except IrreducibleToFinite:
        return IrreducibleToFinite


def test_certificate_matches_the_reference_on_the_sweeps(monkeypatch):
    # every system ext_qdim certifies on criterion 10's edges and on the
    # N=3 and N=4 sweeps of criterion 13 gets the reference's answer
    seen = []
    real = mfcore._certified_hilbert

    def spied(ring, fs):
        seen.append((ring, list(fs)))
        return real(ring, fs)

    monkeypatch.setattr(mfcore, "_certified_hilbert", spied)
    for N, k in ((2, 1), (3, 1), (3, 2)):
        ext_qdim(mf_edge(k, N), mf_edge(k, N))
    for N, want in ((3, 43), (4, 89)):
        pairs = _same_top_pairs(N, 2)
        assert len(pairs) == want
        for u, v in pairs:
            # a kept read-off would hide a repeated pair's system from the spy
            mfcore._contracted.cache_clear()
            ext_qdim(compile_web(u), compile_web(v))
    assert len(seen) == 135 and max(len(ring) for ring, _ in seen) == 4
    for ring, fs in seen:
        assert (_certified_or_raised(real, ring, fs)
                == _certified_or_raised(certified_hilbert, ring, fs)), (ring.gens, fs)


XZ = PolyRing([("x", 2), ("z", 4)])
X, Z = XZ.var("x"), XZ.var("z")


def test_certificate_of_a_complete_intersection():
    assert mfcore._certified_hilbert(XZ, [X**2, Z**2]) == unbalanced(0, 2, 4, 6)


def test_certificate_needs_the_whole_window():
    # the candidate of (x^2, xz) is 1 + q^2 + q^4, so T = 4; the quotient
    # matches it through degree 4 and is 0 at degree 6, but z^2 survives at
    # degree 8 = T + max|y|: a window cut to T + 2 would certify it
    fs = [X**2, X * Z]
    assert [mfcore._graded_quotient_dim(XZ, fs, d) for d in (0, 2, 4, 6, 8)] == [1, 1, 1, 0, 1]
    with pytest.raises(IrreducibleToFinite, match="degree 8"):
        mfcore._certified_hilbert(XZ, fs)


def test_certificate_ranks_only_the_window(monkeypatch):
    # the window alone proves the series, so no degree up to T is ranked
    real = mfcore._graded_quotient_dim
    asked = []

    def spied(ring, fs, d):
        asked.append(d)
        return real(ring, fs, d)

    monkeypatch.setattr(mfcore, "_graded_quotient_dim", spied)
    mfcore._certified_hilbert(XZ, [X**2, Z**2])  # T = 6
    assert asked == [8, 10]
    asked.clear()
    with pytest.raises(IrreducibleToFinite):
        mfcore._certified_hilbert(XZ, [X**2, X * Z])  # T = 4
    assert asked == [6, 8]


def _ranks_taken(monkeypatch):
    """(which rank, its value) for each rank _graded_quotient_dim takes from
    now on, in order, with the rows it was handed."""
    taken = []
    for name, label in (("_rank_mod2", "mod 2"), ("_rank_mod_p", "mod p"),
                        ("fraction_rank", "exact")):
        def spied(rows, *args, _real=getattr(mfcore, name), _label=label):
            out = _real(rows, *args)
            taken.append((_label, out, rows))
            return out
        monkeypatch.setattr(mfcore, name, spied)
    return taken


def test_a_window_of_full_rank_mod_2_needs_no_other_rank(monkeypatch):
    taken = _ranks_taken(monkeypatch)
    assert mfcore._certified_hilbert(XZ, [X**2, Z**2]) == unbalanced(0, 2, 4, 6)
    # degree 8 holds x^4, x^2 z, z^2 and degree 10 holds x^5, x^3 z, x z^2
    assert [(label, rank) for label, rank, _ in taken] == [("mod 2", 3), ("mod 2", 3)]


XY = PolyRing([("x", 2), ("y", 2)])


def test_a_window_short_mod_2_is_certified_mod_an_odd_prime(monkeypatch):
    # x^2 + y^2 and x^2 - y^2 agree mod 2, so the degree-6 window, T + 2 for
    # T = 4, has rank 2 mod 2 but its full 4 over Q, and so mod 3
    x, y = XY.var("x"), XY.var("y")
    taken = _ranks_taken(monkeypatch)
    assert mfcore._certified_hilbert(XY, [x**2 + y**2, x**2 - y**2]) == unbalanced(0, 2, 2, 4)
    assert [(label, rank) for label, rank, _ in taken] == [("mod 2", 2), ("mod p", 4)]
    assert mfcore._rank_mod_p(taken[0][2], 4, 3) == 4


def test_a_window_short_mod_p_goes_to_the_exact_rank(monkeypatch):
    # (x^2, xz) is certified at degree 6 mod 2; at degree 8, z^2 survives, so
    # every rank falls short and the exact one gives the dimension
    taken = _ranks_taken(monkeypatch)
    with pytest.raises(IrreducibleToFinite, match="graded dimension 1 at degree 8"):
        mfcore._certified_hilbert(XZ, [X**2, X * Z])
    assert [(label, rank) for label, rank, _ in taken] == [
        ("mod 2", 2), ("mod 2", 2), ("mod p", 2), ("exact", 2)]


def test_the_certificate_scales_equations_to_primitive_integers():
    # an equation with fractions is the same ideal as its primitive multiple
    x, y = XY.var("x"), XY.var("y")
    f = x**2 * Fraction(1, 2) + y**2 * Fraction(3, 4)
    assert mfcore._primitive(f) == {(2, 0): 2, (0, 2): 3}
    assert mfcore._primitive(x * y * (-6)) == {(1, 1): -1}
    assert (mfcore._graded_quotient_dim(XY, [f, x * y * Fraction(2, 3)], 4)
            == mfcore._graded_quotient_dim(XY, [2 * x**2 + 3 * y**2, x * y], 4) == 1)


@pytest.mark.parametrize("fs", [[XZ.const(1), Z], [XZ.const(3), Z**5], [XZ.const(1), XZ.const(2)]])
def test_a_unit_in_the_system_certifies_zero(fs):
    # a nonzero constant makes the numerator 0 and T anything, even negative;
    # R/I is then 0 in every degree, and 0 is its Hilbert series
    assert mfcore._certified_hilbert(XZ, fs) == LaurentPoly.zero()


@pytest.mark.parametrize("fs", [[X**2, X**2], [X**2], [X**2, Z**2, X * Z]],
                         ids=["repeated", "one-of-two", "three-of-two"])
def test_certificate_refuses_a_system_that_is_not_regular(fs):
    with pytest.raises(IrreducibleToFinite):
        mfcore._certified_hilbert(XZ, fs)
