import hashlib
import random
from functools import lru_cache
from itertools import combinations
from math import comb

import pytest

from oracles import qint_signed
from qwebs.qpoly import LaurentPoly, qbinom
from qwebs.webs import (
    GlWeight,
    Ladder,
    Rung,
    WebLinComb,
    Zero,
    apply_rung,
    compose,
    highest_weight_ladder,
    make_ladder,
    reflect,
)
from qwebs import repfun
from qwebs.repfun import (
    FockBasis,
    QMatrix,
    _e_move,
    _f_move,
    _kexp,
    ev_closed,
    ladder_matrix,
    lincomb_matrix,
    merge_matrix,
    rung_matrix,
    split_matrix,
    web_form,
    wedge_normal_form,
)

Q = LaurentPoly.q_power
ONE = LaurentPoly.one()


# ------------------------------------------------------------------- wedges


def test_wedge_normal_form_convention():
    coeff, s = wedge_normal_form((2, 1))
    assert s == (1, 2)
    assert coeff == LaurentPoly({-1: -1})
    assert wedge_normal_form((1, 1)) is Zero
    assert wedge_normal_form((3, 1, 2)) == (LaurentPoly({-2: 1}), (1, 2, 3))
    assert wedge_normal_form(()) == (ONE, ())


def test_fock_basis():
    b = FockBasis(3, (2, 1))
    assert b.dim == comb(3, 2) * comb(3, 1)
    assert b.elements[0] == ((1, 2), (1,))
    assert b.elements == sorted(b.elements)
    assert FockBasis(2, (1, 1)).dim == 4


# ------------------------------------------------------------- merge / split


def test_merge_example():
    m = merge_matrix(1, 1, 2)
    pairs = FockBasis(2, (1, 1))
    whole = FockBasis(2, (2,))
    r = whole.index(((1, 2),))
    assert m.entry(r, pairs.index(((1,), (2,)))) == ONE
    assert m.entry(r, pairs.index(((2,), (1,)))) == LaurentPoly({-1: -1})
    assert m.entry(r, pairs.index(((1,), (1,)))).is_zero()


def test_merge_rejects_overflow():
    with pytest.raises(ValueError):
        merge_matrix(2, 1, 2)


def test_digon_all_small():
    for N in range(2, 7):
        for a in range(N + 1):
            for b in range(N + 1 - a):
                got = merge_matrix(a, b, N) * split_matrix(a, b, N)
                want = QMatrix.identity(FockBasis(N, (a + b,)).dim).scaled(qbinom(a + b, a))
                assert got == want, (N, a, b)


def test_merge_split_intertwine():
    for N in range(2, 7):
        for a in range(N + 1):
            for b in range(N + 1 - a):
                pairs = FockBasis(N, (a, b))
                whole = FockBasis(N, (a + b,))
                mg = merge_matrix(a, b, N)
                sp = split_matrix(a, b, N)
                for i in range(1, N):
                    for g in ("E", "F", "K"):
                        gp = qg_action(i, g, pairs)
                        gw = qg_action(i, g, whole)
                        assert gw * mg == mg * gp, ("merge", N, a, b, i, g)
                        assert sp * gw == gp * sp, ("split", N, a, b, i, g)


def test_merge_associative():
    for N in (2, 3, 4):
        for a in range(N + 1):
            for b in range(N + 1 - a):
                for c in range(N + 1 - a - b):
                    left = FockBasis(N, (a, b, c))
                    # (a, b) first
                    m_ab = merge_matrix(a, b, N)
                    first = QMatrix(
                        FockBasis(N, (a + b, c)).dim, left.dim,
                        _tensor_entries(m_ab, QMatrix.identity(comb(N, c)),
                                        FockBasis(N, (a + b,)), FockBasis(N, (c,)),
                                        FockBasis(N, (a, b)), FockBasis(N, (c,)), N))
                    one = merge_matrix(a + b, c, N) * first
                    # (b, c) first
                    m_bc = merge_matrix(b, c, N)
                    second = QMatrix(
                        FockBasis(N, (a, b + c)).dim, left.dim,
                        _tensor_entries(QMatrix.identity(comb(N, a)), m_bc,
                                        FockBasis(N, (a,)), FockBasis(N, (b + c,)),
                                        FockBasis(N, (a,)), FockBasis(N, (b, c)), N))
                    two = merge_matrix(a, b + c, N) * second
                    assert one == two, (N, a, b, c)


def _tensor_entries(A, B, rowA, rowB, colA, colB, N):
    """Kronecker-style entries for A (x) B with Fock bases on each side."""
    rows = FockBasis(N, rowA.factors + rowB.factors)
    cols = FockBasis(N, colA.factors + colB.factors)
    out = {}
    for (ra, ca), va in A.entries().items():
        for (rb, cb), vb in B.entries().items():
            r = rows.index(rowA.elements[ra] + rowB.elements[rb])
            c = cols.index(colA.elements[ca] + colB.elements[cb])
            out[(r, c)] = va * vb
    return out


# ----------------------------------------------------------------- qg action
# The U_q(gl_N) action as QMatrix generators: the oracle of the monomial
# intertwiner certificate in repfun.


def qg_action(i, gen, basis):
    """Action of the generator E_i / F_i / K_i on a FockBasis tensor product.

    Coproducts: E acts in one factor with K on every later factor; F acts in
    one factor with K^-1 on every earlier factor; K is grouplike.
    """
    if gen not in ("E", "F", "K"):
        raise ValueError(f"unknown generator {gen!r}")
    if not 1 <= i <= basis.N - 1:
        raise ValueError(f"generator index {i} outside [1, {basis.N - 1}]")
    entries = {}
    for col, elem in enumerate(basis.elements):
        if gen == "K":
            e = sum(_kexp(i, T) for T in elem)
            entries[(col, col)] = LaurentPoly.q_power(e)
            continue
        for j, T in enumerate(elem):
            if gen == "E":
                moved = _e_move(i, T)
                if moved is None:
                    continue
                twist = sum(_kexp(i, elem[j2]) for j2 in range(j + 1, len(elem)))
            else:
                moved = _f_move(i, T)
                if moved is None:
                    continue
                twist = -sum(_kexp(i, elem[j2]) for j2 in range(j))
            new = elem[:j] + (moved,) + elem[j + 1:]
            row = basis.index(new)
            add = LaurentPoly.q_power(twist)
            key = (row, col)
            entries[key] = entries[key] + add if key in entries else add
    return QMatrix(basis.dim, basis.dim, entries)


def _qg_commutes(m, src, dst, N):
    return all(qg_action(i, g, dst) * m == m * qg_action(i, g, src)
               for i in range(1, N) for g in ("E", "F", "K"))


def _oracle_commutes(N, cols):
    """Reference for repfun._commutes: every K_i weight checked for each i,
    and E_i and F_i on every element that either side of the commutator
    can reach."""
    for i in range(1, N):
        for x, col in cols.items():
            w = sum(_kexp(i, T) for T in x)
            if any(sum(_kexp(i, T) for T in y) != w for y, _, _ in col):
                return False
        for gen, undo in (("E", _f_move), ("F", _e_move)):
            todo = set(cols)
            for y in cols:
                for j, T in enumerate(y):
                    moved = undo(i, T)
                    if moved is not None:
                        todo.add(y[:j] + (moved,) + y[j + 1:])
            for x in todo:
                diff = {}
                for y, t in repfun._gen_terms(i, gen, x):
                    for z, e, s in cols.get(y, ()):
                        repfun._add_term(diff, z, e + t, s)
                for y, e, s in cols.get(x, ()):
                    for z, t in repfun._gen_terms(i, gen, y):
                        repfun._add_term(diff, z, e + t, -s)
                if any(c for poly in diff.values() for c in poly.values()):
                    return False
    return True


def _piece_variants(a, b, N, monkeypatch):
    """(kind, cols) for the merge and split of (a, b), as built and under
    the wrong wedge sign x_j ^ x_i = -q x_i ^ x_j, each also scaled by q and
    with one entry negated."""
    with monkeypatch.context() as mp:
        mp.setattr(repfun, "WEDGE_FLIP", LaurentPoly({1: -1}))
        wrong = repfun._piece.__wrapped__(a, b, N)
    right = repfun._piece(a, b, N)
    out = []
    for kind, cols in (("merge", right.merge), ("split", right.split),
                       ("merge", wrong.merge), ("split", wrong.split)):
        x = min(cols)
        (y, e, s), *rest = cols[x]
        scaled = {z: [(w, f + 1, t) for w, f, t in col] for z, col in cols.items()}
        out += [(kind, cols), (kind, scaled), (kind, {**cols, x: [(y, e, -s), *rest]})]
    return out


def test_certificate_matches_qg_action(monkeypatch):
    verdicts = []
    for N in range(2, 5):
        for a in range(N + 1):
            for b in range(N + 1 - a):
                pairs = FockBasis(N, (a, b))
                whole = FockBasis(N, (a + b,))
                for kind, cols in _piece_variants(a, b, N, monkeypatch):
                    src, dst = (pairs, whole) if kind == "merge" else (whole, pairs)
                    m = repfun._piece_matrix(cols, src, dst)
                    got = repfun._commutes(N, cols)
                    assert got == _qg_commutes(m, src, dst, N), (N, a, b, kind, m.entries())
                    assert got == _oracle_commutes(N, cols), (N, a, b, kind, m.entries())
                    verdicts.append(got)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("N", range(2, 8))
def test_certificate_holds(N):
    for a in range(N + 1):
        for b in range(N + 1 - a):
            piece = repfun._piece(a, b, N)
            assert piece.certified, (a, b, N)
            assert _oracle_commutes(N, piece.merge) and _oracle_commutes(N, piece.split), (a, b, N)


def _moved_index(N, cols):
    """cols with one index of its first image term swapped for one that
    factor lacks, so that term's index multiset changes; None if no factor
    of that term has both."""
    x = min(cols)
    (y, e, s), *rest = cols[x]
    for j, T in enumerate(y):
        spare = [v for v in range(1, N + 1) if v not in T]
        if T and spare:
            moved = y[:j] + (tuple(sorted(T[1:] + (spare[0],))),) + y[j + 1:]
            return {**cols, x: [(moved, e, s), *rest]}
    return None


def test_both_certificates_reject_a_moved_index():
    mutants = 0
    for N in range(2, 5):
        for a in range(N + 1):
            for b in range(N + 1 - a):
                piece = repfun._piece(a, b, N)
                for cols in (piece.merge, piece.split):
                    bad = _moved_index(N, cols)
                    if bad is None:
                        continue
                    mutants += 1
                    assert not repfun._commutes(N, bad), (N, a, b)
                    assert not _oracle_commutes(N, bad), (N, a, b)
    assert mutants == 38


P, QP = 1000003, 123457  # a prime, and the point q = QP of GF(P)


def _restricted_rows(N, src, dst):
    """The checks of repfun._commutes as linear equations in the entries
    f[(y, x)] of a map src -> dst, at q = QP over GF(P): f(g x) = g(f x),
    one equation {(y, x): coefficient} per target z, for g = E_i on every x
    holding i+1 and g = F_i on every x holding i."""
    rows = []
    for i in range(1, N):
        for gen, held in (("E", i + 1), ("F", i)):
            for x in src:
                if not any(held in T for T in x):
                    continue
                eqs = {}
                for x2, t in repfun._gen_terms(i, gen, x):
                    for z in dst:
                        row = eqs.setdefault(z, {})
                        row[(z, x2)] = row.get((z, x2), 0) + pow(QP, t, P)
                for y in dst:
                    for z, t in repfun._gen_terms(i, gen, y):
                        row = eqs.setdefault(z, {})
                        row[(y, x)] = row.get((y, x), 0) - pow(QP, t, P)
                rows += eqs.values()
    return rows


def _nullity(rows, unknowns):
    """Dimension over GF(P) of the solutions supported on unknowns."""
    col = {u: n for n, u in enumerate(unknowns)}
    pivots = {}
    for row in rows:
        r = {col[u]: c % P for u, c in row.items() if u in col and c % P}
        while r:
            lead = min(r)
            if lead not in pivots:
                inv = pow(r[lead], -1, P)
                pivots[lead] = {c: v * inv % P for c, v in r.items()}
                break
            f = r[lead]
            for c, v in pivots[lead].items():
                v = (r.get(c, 0) - f * v) % P
                if v:
                    r[c] = v
                else:
                    r.pop(c, None)
    return len(unknowns) - len(pivots)


def test_e_and_f_checks_alone_certify_a_piece():
    # the restricted E_i / F_i checks admit no map that changes the index
    # multiset of a term (a zero nullity at one q is zero over Q(q)), and
    # with every pair allowed their solutions are the multiples of the piece
    def content(x):
        return sorted(j for T in x for j in T)

    for N in range(2, 5):
        for a in range(N + 1):
            for b in range(N + 1 - a):
                piece = repfun._piece(a, b, N)
                pairs = FockBasis(N, (a, b)).elements
                whole = FockBasis(N, (a + b,)).elements
                for src, dst, cols in ((pairs, whole, piece.merge), (whole, pairs, piece.split)):
                    rows = _restricted_rows(N, src, dst)
                    every = [(y, x) for x in src for y in dst]
                    moved = [(y, x) for y, x in every if content(y) != content(x)]
                    assert _nullity(rows, moved) == 0, (N, a, b, len(src))
                    assert _nullity(rows, every) == 1, (N, a, b, len(src))
                    f = {(y, x): s * pow(QP, e, P) for x, col in cols.items() for y, e, s in col}
                    assert all(sum(c * f.get(u, 0) for u, c in row.items()) % P == 0 for row in rows)


def test_certificate_fails_under_wrong_wedge_sign(monkeypatch):
    caches = (repfun.merge_matrix, repfun.split_matrix, repfun._piece, repfun._local_rung_cols)
    for cache in caches:
        cache.cache_clear()
    try:
        with monkeypatch.context() as mp:
            mp.setattr(repfun, "WEDGE_FLIP", LaurentPoly({1: -1}))
            for N in range(2, 6):
                for a in range(N + 1):
                    for b in range(N + 1 - a):
                        # only merges of two nonempty words see the sign
                        assert repfun._piece(a, b, N).certified == (a * b == 0), (a, b, N)
    finally:
        for cache in caches:
            cache.cache_clear()


def test_a_wedge_convention_off_the_signed_monomials_raises(monkeypatch):
    # pieces hold +-q^e entries read off WEDGE_FLIP; any other convention
    # is refused, not rounded into one
    monkeypatch.setattr(repfun, "WEDGE_FLIP", LaurentPoly({-1: -2}))
    with pytest.raises(ValueError, match="is not a signed monomial"):
        repfun._piece.__wrapped__(1, 1, 2)


def test_qg_action_commutator_single_factor():
    # [E_i, F_j] = delta_ij (K_i - K_i^-1)/(q - q^-1) on wedge powers
    for N in (2, 3):
        for k in range(N + 1):
            basis = FockBasis(N, (k,))
            for i in range(1, N):
                for j in range(1, N):
                    E = qg_action(i, "E", basis)
                    F = qg_action(j, "F", basis)
                    lhs = E * F - F * E
                    if i != j:
                        assert lhs.is_zero()
                        continue
                    entries = {}
                    for idx, (T,) in enumerate(basis.elements):
                        w = (1 if i in T else 0) - (1 if i + 1 in T else 0)
                        val = qint_signed(w)
                        if not val.is_zero():
                            entries[(idx, idx)] = val
                    assert lhs == QMatrix(basis.dim, basis.dim, entries)


def test_qg_action_tensor_commutator():
    basis = FockBasis(3, (1, 1))
    for i in (1, 2):
        E = qg_action(i, "E", basis)
        F = qg_action(i, "F", basis)
        K = qg_action(i, "K", basis)
        lhs = E * F - F * E
        diff = {}
        for idx in range(basis.dim):
            val = K.entry(idx, idx) - _kinv_entry(K, idx)
            want = val.exact_divide(Q(1) - Q(-1)) if not val.is_zero() else val
            if not want.is_zero():
                diff[(idx, idx)] = want
        assert lhs == QMatrix(basis.dim, basis.dim, diff)


def _kinv_entry(K, idx):
    return K.entry(idx, idx).bar()


# -------------------------------------------------------------------- rungs


def test_rung_matrix_vs_ladder_matrix():
    rng = random.Random(31)
    for _ in range(30):
        N = rng.randint(2, 3)
        m = rng.randint(2, 3)
        base = GlWeight(rng.randint(0, N) for _ in range(m))
        lad = Ladder(N, m, base)
        for _ in range(rng.randint(1, 3)):
            opts = [Rung(p, s, a)
                    for p in range(1, m)
                    for s in (1, -1)
                    for a in range(1, N + 1)
                    if apply_rung(lad.top, Rung(p, s, a), N) is not Zero]
            if not opts:
                break
            lad = lad.with_rung(rng.choice(opts))
        want = QMatrix.identity(FockBasis(N, lad.base).dim)
        k = lad.base
        for r in lad.rungs:
            want = rung_matrix(r, k, N).compose(want)
            k = apply_rung(k, r, N)
        assert ladder_matrix(lad) == want


def test_closed_circle_and_theta():
    circle = Ladder(2, 2, GlWeight((2, 0)), (Rung(1, -1, 1), Rung(1, 1, 1)))
    assert ev_closed(circle) == Q(1) + Q(-1)
    theta = Ladder(2, 2, GlWeight((2, 0)), (Rung(1, -1, 2), Rung(1, 1, 2)))
    assert ev_closed(theta) == ONE
    # colored circle at N=3: value [3] and [3;2]
    c1 = Ladder(3, 2, GlWeight((3, 0)), (Rung(1, -1, 1), Rung(1, 1, 1)))
    assert ev_closed(c1) == qbinom(3, 1)
    c2 = Ladder(3, 2, GlWeight((3, 0)), (Rung(1, -1, 2), Rung(1, 1, 2)))
    assert ev_closed(c2) == qbinom(3, 2)


def test_ev_closed_is_linear_on_combinations():
    circle = Ladder(2, 2, GlWeight((2, 0)), (Rung(1, -1, 1), Rung(1, 1, 1)))
    theta = Ladder(2, 2, GlWeight((2, 0)), (Rung(1, -1, 2), Rung(1, 1, 2)))
    comb = WebLinComb(2, 2, (2, 0), (2, 0), {circle: Q(2), theta: 3})
    assert ev_closed(comb) == Q(2) * (Q(1) + Q(-1)) + 3 * ONE
    assert ev_closed(WebLinComb(2, 2, (2, 0), (2, 0))) == LaurentPoly.zero()


def test_closed_bigon_on_partial_edge():
    # F(b) then E(b) with loop upright free: qbinom(outer, b) times identity
    for N in (2, 3):
        for outer in range(N + 1):
            for b in range(1, outer + 1):
                lad = make_ladder(N, 2, (outer, 0), [Rung(1, -1, b), Rung(1, 1, b)])
                assert lad is not Zero
                M = ladder_matrix(lad)
                want = QMatrix.identity(FockBasis(N, (outer, 0)).dim).scaled(qbinom(outer, b))
                assert M == want, (N, outer, b)


def test_ev_closed_validation():
    open_lad = Ladder(2, 2, GlWeight((2, 0)), (Rung(1, -1, 1),))
    with pytest.raises(ValueError):
        ev_closed(open_lad)
    not_hw = Ladder(2, 2, GlWeight((1, 1)))
    with pytest.raises(ValueError):
        ev_closed(not_hw)


def test_ev_closed_checks_the_boundary_of_an_empty_combination():
    # no terms is no licence: the boundary is checked as for any combination,
    # and only Zero is 0 unchecked
    with pytest.raises(ValueError, match="ladder is not closed"):
        ev_closed(WebLinComb(2, 2, (2, 0), (1, 1)))
    with pytest.raises(ValueError, match=r"base \(1, 1\) is not the highest weight pattern"):
        ev_closed(WebLinComb(2, 2, (1, 1), (1, 1)))
    assert ev_closed(Zero) == LaurentPoly.zero()


# ------------------------------------------------------------------ the form


def test_form_normalizations():
    hw = highest_weight_ladder(2, 2, 1)
    assert web_form(hw, hw) == ONE
    f = Ladder(2, 2, GlWeight((2, 0)), (Rung(1, -1, 1),))
    assert web_form(f, f) == ONE + Q(2)


def test_form_sesquilinear():
    f = Ladder(2, 2, GlWeight((2, 0)), (Rung(1, -1, 1),))
    c = Q(3) + 2 * Q(-1)
    left = WebLinComb.of(f, c)
    assert web_form(left, f) == c.bar() * web_form(f, f)
    assert web_form(f, left) == c * web_form(f, f)


def _random_web_with_top(rng, N, m, ell, steps):
    lad = highest_weight_ladder(N, m, ell)
    for _ in range(steps):
        opts = [Rung(p, s, a)
                for p in range(1, m)
                for s in (1, -1)
                for a in range(1, N + 1)
                if apply_rung(lad.top, Rung(p, s, a), N) is not Zero]
        if not opts:
            break
        lad = lad.with_rung(rng.choice(opts))
    return lad


def test_adjunction_random():
    rng = random.Random(41)
    hits = 0
    while hits < 60:
        N = rng.randint(2, 3)
        m = rng.randint(2, 3)
        ell = rng.randint(1, m - 1)
        u = _random_web_with_top(rng, N, m, ell, rng.randint(0, 3))
        i = rng.randint(1, m - 1)
        erung = Rung(i, 1, 1)
        ktop = u.top
        k2 = apply_rung(ktop, erung, N)
        v = _random_web_with_top(rng, N, m, ell, rng.randint(0, 4))
        lam = ktop.sl()[i - 1]
        scale = Q(-1 - lam)
        if k2 is Zero:
            # nothing to compare unless v lands on k2, which it cannot
            continue
        if tuple(v.top) != tuple(k2):
            continue
        hits += 1
        lhs = web_form(u.with_rung(erung), v)
        frung = Rung(i, -1, 1)
        vf = v.with_rung(frung)
        rhs = scale * (web_form(u, vf) if vf is not Zero else LaurentPoly.zero())
        assert lhs == rhs, (N, m, u, v, i)


# ------------------------------------------------------------------- lincomb


def test_lincomb_matrix():
    f = Ladder(2, 2, GlWeight((2, 0)), (Rung(1, -1, 1),))
    w = WebLinComb.of(f, Q(1)) + WebLinComb.of(f, ONE)
    assert lincomb_matrix(w) == ladder_matrix(f).scaled(Q(1) + ONE)
    # F1 then E1 on (2,0) at N=3 is [2] times the identity
    fe = Ladder(3, 2, GlWeight((2, 0)), (Rung(1, -1, 1), Rung(1, 1, 1)))
    empty = Ladder(3, 2, GlWeight((2, 0)))
    cancel = WebLinComb.of(fe) + WebLinComb.of(empty, -qbinom(2, 1))
    M = lincomb_matrix(cancel)
    assert (M.nrows, M.ncols) == (3, 3)
    assert M.is_zero()


# ------------------------------------------------- the LaurentPoly push oracle
# The functor as it was evaluated before rung entries became signed
# monomials: every local entry a LaurentPoly product, every basis vector
# pushed through the rungs on its own.


@lru_cache(maxsize=None)
def _oracle_rung_cols(ki, kj, sign, a, N):
    if sign == 1:
        sp = split_matrix(a, kj - a, N)
        spb = FockBasis(N, (a, kj - a))
        whole = FockBasis(N, (kj,))
    else:
        sp = split_matrix(ki - a, a, N)
        spb = FockBasis(N, (ki - a, a))
        whole = FockBasis(N, (ki,))
    sp_cols = {}
    for (r, c), v in sp.entries().items():
        sp_cols.setdefault(c, []).append((spb.elements[r], v))
    cols = {}
    for S in combinations(range(1, N + 1), ki):
        for T in combinations(range(1, N + 1), kj):
            out = {}
            if sign == 1:
                for (A, B2), c1 in sp_cols.get(whole.index((T,)), ()):
                    nf = wedge_normal_form(S + A)
                    if nf is Zero:
                        continue
                    c2, S2 = nf
                    key = (S2, B2)
                    out[key] = out.get(key, LaurentPoly.zero()) + c1 * c2
            else:
                for (C, A), c1 in sp_cols.get(whole.index((S,)), ()):
                    nf = wedge_normal_form(A + T)
                    if nf is Zero:
                        continue
                    c2, T2 = nf
                    key = (C, T2)
                    out[key] = out.get(key, LaurentPoly.zero()) + c1 * c2
            cols[(S, T)] = [(p, v) for p, v in out.items() if not v.is_zero()]
    return cols


def _oracle_push(N, base, rungs, vec):
    k = GlWeight(base)
    for r in rungs:
        i = r.pos - 1
        cols = _oracle_rung_cols(k[i], k[i + 1], r.sign, r.thickness, N)
        out = {}
        for elem, c in vec.items():
            for (S2, T2), v in cols[(elem[i], elem[i + 1])]:
                new = elem[:i] + (S2, T2) + elem[i + 2:]
                out[new] = out.get(new, LaurentPoly.zero()) + c * v
        vec = {e: c for e, c in out.items() if not c.is_zero()}
        k = apply_rung(k, r, N)
    return vec


def _oracle_matrix(N, base, top, terms):
    src = FockBasis(N, base)
    dst = FockBasis(N, top)
    entries = {}
    for ci, elem in enumerate(src.elements):
        for coeff, rungs in terms:
            for new, v in _oracle_push(N, base, rungs, {elem: coeff}).items():
                key = (dst.index(new), ci)
                entries[key] = entries.get(key, LaurentPoly.zero()) + v
    return QMatrix(dst.dim, src.dim, entries)


def _oracle_ev_closed(u):
    e0 = FockBasis(u.N, u.base).elements[0]
    return _oracle_push(u.N, u.base, u.rungs, {e0: ONE}).get(e0, LaurentPoly.zero())


def _rung_options(N, m, k):
    return [Rung(p, s, a)
            for p in range(1, m)
            for s in (1, -1)
            for a in range(1, N + 1)
            if apply_rung(k, Rung(p, s, a), N) is not Zero]


def _random_rungs(rng, N, lad, max_rungs):
    for _ in range(rng.randint(0, max_rungs)):
        opts = _rung_options(N, lad.m, lad.top)
        if not opts:
            break
        lad = lad.with_rung(rng.choice(opts))
    return lad


def test_local_rung_cols_are_signed_monomials():
    keys = entries = 0
    for N in range(2, 7):
        for ki in range(N + 1):
            for kj in range(N + 1):
                for sign in (1, -1):
                    for a in range(1, N + 1):
                        if apply_rung(GlWeight((ki, kj)), Rung(1, sign, a), N) is Zero:
                            continue
                        keys += 1
                        new = repfun._local_rung_cols(ki, kj, sign, a, N)
                        old = _oracle_rung_cols(ki, kj, sign, a, N)
                        for ST in old:  # a column is built on its first lookup
                            new[ST]
                        entries += sum(len(col) for col in new.values())
                        assert new.keys() == old.keys()
                        for ST, col in old.items():
                            for _, v in col:
                                ((e, c),) = v.coeffs().items()
                                assert c in (1, -1), (N, ki, kj, sign, a, ST, v)
                            assert {(S2, T2): Q(e, s) for S2, T2, e, s in new[ST]} == dict(col)
    assert (keys, entries) == (390, 28138)


def test_a_corrupt_split_entry_raises_when_its_column_is_reached(monkeypatch):
    # an E-rung of thickness 1 on uprights (1, 1) at N=3 splits T with
    # split(1, 0); doubling the term of T = (2,) makes the rung entry of
    # ((1,), (2,)) a sum of two products
    real = repfun._piece
    good = real(1, 0, 3)
    split = dict(good.split)
    split[((2,),)] = split[((2,),)] * 2
    bad = repfun._Piece(3, good.merge, split)
    monkeypatch.setattr(repfun, "_piece", lambda a, b, N: bad if (a, b, N) == (1, 0, 3) else real(a, b, N))
    table = repfun._local_rung_cols.__wrapped__(1, 1, 1, 1, 3)
    assert table[((1,), (3,))] == [((1, 3), (), 0, 1)]
    with pytest.raises(ValueError, match="is a sum, not a signed monomial"):
        table[((1,), (2,))]
    assert ((1,), (2,)) not in table


def test_push_matches_laurent_oracle():
    rng = random.Random(6)
    for N in range(2, 6):
        for m in (2, 3):
            for _ in range(10):
                base = GlWeight(rng.randint(0, N) for _ in range(m))
                lads = [_random_rungs(rng, N, Ladder(N, m, base), 3) for _ in range(5)]
                for lad in lads:
                    want = _oracle_matrix(N, base, lad.top, [(ONE, lad.rungs)])
                    assert ladder_matrix(lad) == want, lad
                top = lads[0].top
                terms = {lad: Q(rng.randint(-2, 2), rng.choice((1, -1, 2)))
                         for lad in lads if tuple(lad.top) == tuple(top)}
                w = WebLinComb(N, m, base, top, terms)
                want = _oracle_matrix(N, base, top, [(c, lad.rungs) for lad, c in w.items()])
                assert lincomb_matrix(w) == want, w
            for _ in range(10):
                hw = highest_weight_ladder(N, m, rng.randint(1, m - 1))
                u = _random_rungs(rng, N, hw, 3)
                v = _random_rungs(rng, N, hw, 3)
                if tuple(u.top) != tuple(v.top):
                    v = u
                closed = compose(reflect(u), v)
                assert ev_closed(closed) == _oracle_ev_closed(closed), closed


# ------------------------------------------------------- closed values pinned
# Every same-top pair of five small sweeps, over the highest weight
# (N, 0, ...) with at most max_rungs rungs of any thickness.
PINNED_SWEEPS = ((2, (2, 0), 3), (3, (3, 0), 3), (2, (2, 0, 0), 3), (3, (3, 0, 0), 2), (4, (4, 0), 2))


def _sweep(N, base, max_rungs):
    lads = frontier = [Ladder(N, len(base), base)]
    for _ in range(max_rungs):
        frontier = [ext for lad in frontier for r in _rung_options(N, lad.m, lad.top)
                    if (ext := lad.with_rung(r)) is not Zero]
        lads = lads + frontier
    return lads


def _pinned_webs():
    """(same-top pairs, closed ladders) of PINNED_SWEEPS: 757 pairs, 29 closed."""
    pairs, closed = [], []
    for sweep in PINNED_SWEEPS:
        by_top = {}
        for lad in _sweep(*sweep):
            by_top.setdefault(lad.top, []).append(lad)
        pairs += [(u, v) for group in by_top.values() for u in group for v in group]
        closed += by_top.get(GlWeight(sweep[1]), [])
    return pairs, closed


# SHA-256 over str(web_form(u, v)), str(web_form(w, v)) and str(web_form(v, w))
# with w = (2q - q^-1) u, for every pinned pair, then str(ev_closed(u)) and
# str(reduce_to_highest(u)) for every closed u, each ended by a newline
CLOSED_VALUES_DIGEST = "6128c67988760c24458839ec29adec51dcadedb16c1101070fba628e29b19888"


def test_closed_values_are_pinned():
    from qwebs.relations import reduce_to_highest

    pairs, closed = _pinned_webs()
    assert (len(pairs), len(closed)) == (757, 29)
    c = 2 * Q(1) - Q(-1)
    digest = hashlib.sha256()
    for u, v in pairs:
        w = WebLinComb.of(u, c)
        for val in (web_form(u, v), web_form(w, v), web_form(v, w)):
            digest.update(f"{val}\n".encode())
    for u in closed:
        for val in (ev_closed(u), reduce_to_highest(u)):
            digest.update(f"{val}\n".encode())
    assert digest.hexdigest() == CLOSED_VALUES_DIGEST


def test_closed_values_are_one_sum_of_exponents(monkeypatch):
    # every pair of terms is one term of a single _images call, which sums in
    # exponent dicts: web_form multiplies only bar(cu) * cv per pair and
    # q^d(k) once, and neither web_form nor ev_closed adds LaurentPolys
    pairs, closed = _pinned_webs()
    c = 2 * Q(1) - Q(-1)
    combs = [(u, v, WebLinComb.of(u, c) + WebLinComb.of(v)) for u, v in pairs]
    calls = []
    for name in ("__add__", "__mul__"):
        def spied(self, other, _real=getattr(LaurentPoly, name), _name=name):
            calls.append(_name)
            return _real(self, other)
        monkeypatch.setattr(LaurentPoly, name, spied)
    want = 0
    for u, v, w in combs:
        for left, right in ((u, v), (w, v), (v, w), (w, w)):
            web_form(left, right)
        n = len(w.items())
        want += (1 + 1) + 2 * (n + 1) + (n * n + 1)
    assert calls == ["__mul__"] * want
    calls.clear()
    for u in closed:
        ev_closed(u)
        ev_closed(WebLinComb.of(u, c))
    assert calls == []


def test_closed_values_build_no_webs_or_bases(monkeypatch):
    # each pair of terms is one push along the ladders' own slices, so once
    # the pieces are cached no ladder, combination or basis is built;
    # reduce_to_highest checks its boundary without building anything
    from qwebs import relations
    from qwebs.relations import reduce_to_highest

    pairs, closed = _pinned_webs()
    c = 2 * Q(1) - Q(-1)
    combs = {u: WebLinComb.of(u, c) for u, _ in pairs}
    for u, v in pairs:
        web_form(u, v)
    built = []
    for cls, name in ((Ladder, "__post_init__"), (WebLinComb, "__init__"), (FockBasis, "__init__")):
        def spied(self, *args, _real=getattr(cls, name), _name=cls.__name__, **kwargs):
            built.append(_name)
            _real(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, spied)

    def refuse(*args):
        raise AssertionError("reduce_to_highest went through web_form")

    monkeypatch.setattr(repfun, "web_form", refuse)
    monkeypatch.setattr(relations, "web_form", refuse, raising=False)
    for u, v in pairs:
        for left, right in ((u, v), (combs[u], v), (v, combs[u])):
            web_form(left, right)
    for u in closed:
        ev_closed(u)
        ev_closed(combs[u])
    assert built == []
    for u in closed:
        reduce_to_highest(u)
    assert set(built) <= {"Ladder"}
    assert built == []
