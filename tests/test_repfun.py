import random
from math import comb

import pytest

from qwebs.qpoly import LaurentPoly, qbinom, qint_signed
from qwebs.webs import (
    GlWeight,
    Ladder,
    Rung,
    WebLinComb,
    Zero,
    apply_rung,
    highest_weight_ladder,
    make_ladder,
)
from qwebs.repfun import (
    FockBasis,
    QMatrix,
    ev_closed,
    ladder_matrix,
    lincomb_matrix,
    merge_matrix,
    qg_action,
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
