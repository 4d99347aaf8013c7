"""Acceptance sweep: one test per numbered criterion, one verdict line each.

Every check is an exact equality of Laurent polynomials or matrices; there
are no tolerances anywhere. Each test prints `criterion NN <label>: PASS`
(or FAIL) so a plain `pytest -v -s` run shows one verdict line per
criterion. Where a criterion carries a wall-clock budget the elapsed time
is asserted too.
"""

import random
import time
from fractions import Fraction
from itertools import product

from oracles import qint_signed
from qwebs._linalg import fraction_rank
from qwebs.qpoly import (
    LaurentPoly,
    elementary_ring,
    power_sum_in_e,
    qbinom,
)
from qwebs.webs import (
    GlWeight,
    Ladder,
    Rung,
    Zero,
    apply_rung,
    enumerate_weights,
    highest_weight_ladder,
)
from qwebs.repfun import (
    FockBasis,
    QMatrix,
    ladder_matrix,
    merge_matrix,
    rung_matrix,
    split_matrix,
    web_form,
)
from qwebs.relations import reduce_to_highest, relation_instances, verify_relation
from qwebs.mfcore import (
    IrreducibleToFinite,
    check_potential,
    compile_web,
    exclude_variables,
    ext_qdim,
    mf_edge,
    mf_merge,
    mf_split,
)

Q = LaurentPoly.q_power


def _run(num, label, body, budget=None):
    t0 = time.monotonic()
    failures = ["did not finish"]
    try:
        failures = body()
    finally:
        took = time.monotonic() - t0
        verdict = "PASS" if not failures else "FAIL"
        print(f"criterion {num:02d} {label}: {verdict} ({took:.1f}s)")
    assert not failures, f"criterion {num} {label}: " + "; ".join(
        str(f) for f in failures[:5]
    )
    if budget is not None:
        assert took < budget, f"criterion {num} took {took:.1f}s, budget {budget}s"


# ---------------------------------------------------------------- utilities


def _grow_ladders(N, m, base, max_rungs, max_thick):
    """Every ladder over `base` with at most max_rungs rungs, base included."""
    out, frontier = [], [Ladder(N, m, base)]
    out.extend(frontier)
    for _ in range(max_rungs):
        nxt = []
        for lad in frontier:
            for pos in range(1, m):
                for sign in (1, -1):
                    for a in range(1, max_thick + 1):
                        ext = lad.with_rung(Rung(pos, sign, a))
                        if ext is not Zero:
                            nxt.append(ext)
        out.extend(nxt)
        frontier = nxt
    return out


def _weyl_dim(hw, m):
    """Dimension of the irreducible with partition hw, by the product formula."""
    hw = list(hw) + [0] * (m - len(hw))
    num = den = 1
    for i in range(m):
        for j in range(i + 1, m):
            num *= hw[i] - hw[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


def _box_partition_poincare(N, k):
    """Sum of q^(2|mu|) over partitions mu inside a k x (N-k) box."""
    counts = {}

    def rec(row, cap, size):
        if row == k:
            counts[size] = counts.get(size, 0) + 1
            return
        for part in range(cap + 1):
            rec(row + 1, part, size + part)

    rec(0, N - k, 0)
    return LaurentPoly({2 * j: c for j, c in counts.items()})


# --------------------------------------------------------------- criteria


def test_criterion_01_newton_identity():
    def body():
        ring = elementary_ring(2)
        e1, e2 = ring.var("e1"), ring.var("e2")
        want = e1 * e1 * e1 - ring.const(3) * e1 * e2
        return [] if power_sum_in_e(3, 2) == want else ["p_3 != e1^3 - 3 e1 e2"]

    _run(1, "newton identity", body, budget=1)


def test_criterion_02_digon_relations():
    def body():
        bad = []
        for N in (2, 3, 4):
            for a in range(0, N + 1):
                for b in range(0, N - a + 1):
                    dim = FockBasis(N, (a + b,)).dim
                    lhs = merge_matrix(a, b, N) * split_matrix(a, b, N)
                    if lhs != QMatrix.identity(dim).scaled(qbinom(a + b, a)):
                        bad.append(("digon", N, a, b))
                    # complementary color: the strand carries N-a, the loop b
                    c = N - a - b
                    dim2 = FockBasis(N, (N - a,)).dim
                    opp = merge_matrix(c, b, N) * split_matrix(c, b, N)
                    if opp != QMatrix.identity(dim2).scaled(qbinom(N - a, b)):
                        bad.append(("opposite", N, a, b))
        return bad

    _run(2, "digon relations", body, budget=30)


def test_criterion_03_square_relations():
    def body():
        bad = []
        for N in (2, 3):
            for inst in relation_instances(N, ("parallel-square", "opposite-square")):
                if not verify_relation(inst, N):
                    bad.append((N, inst.rule, inst.labels))
        return bad

    _run(3, "square relations", body, budget=300)


def _word_matrix(word, k, N):
    """Matrix of a generator word (leftmost factor applied last), or None."""
    out = QMatrix.identity(FockBasis(N, k).dim)
    cur = k
    for sym, pos in reversed(word):
        r = Rung(pos, 1 if sym == "E" else -1, 1)
        nxt = apply_rung(cur, r, N)
        if nxt is Zero:
            return None
        out = rung_matrix(r, cur, N) * out
        cur = nxt
    return out


def _word_target(word, k, N):
    out = list(k)
    for sym, pos in word:
        s = 1 if sym == "E" else -1
        out[pos - 1] += s
        out[pos] -= s
    if all(0 <= x <= N for x in out):
        return GlWeight(out)
    return None


def _word_sum(terms, k, N):
    """Sum coeff * word over a common target weight; None if all words die."""
    target = None
    for _, word in terms:
        target = _word_target(word, k, N)
        break
    if target is None:
        return None, None
    dims = (FockBasis(N, target).dim, FockBasis(N, k).dim)
    total = QMatrix.zero(*dims)
    for coeff, word in terms:
        mat = _word_matrix(word, k, N)
        if mat is not None:
            total = total + mat.scaled(coeff)
    return total, dims


def test_criterion_04_quantum_group_action():
    one = LaurentPoly.one()
    two = Q(1) + Q(-1)

    def body():
        bad = []
        for N in (2, 3):
            for m in (2, 3):
                for d in range(0, min(6, m * N) + 1):
                    for k in enumerate_weights(m, d, N):
                        lam = k.sl()
                        for i in range(1, m):
                            for j in range(1, m):
                                terms = [(one, (("E", i), ("F", j))),
                                         (-one, (("F", j), ("E", i)))]
                                got, dims = _word_sum(terms, k, N)
                                if got is None:
                                    continue
                                want = QMatrix.zero(*dims)
                                if i == j:
                                    val = qint_signed(lam[i - 1])
                                    want = QMatrix.identity(dims[0]).scaled(val)
                                if got != want:
                                    bad.append(("commutator", N, m, tuple(k), i, j))
                        if m < 3:
                            continue
                        for sym in ("E", "F"):
                            for i, j in ((1, 2), (2, 1)):
                                terms = [
                                    (one, ((sym, i), (sym, i), (sym, j))),
                                    (-two, ((sym, i), (sym, j), (sym, i))),
                                    (one, ((sym, j), (sym, i), (sym, i))),
                                ]
                                got, dims = _word_sum(terms, k, N)
                                if got is None:
                                    continue
                                if got != QMatrix.zero(*dims):
                                    bad.append(("serre", N, m, tuple(k), sym, i, j))
        return bad

    _run(4, "quantum group action", body, budget=300)


def _random_web_from_highest(rng, N, m, ell, nrungs):
    lad = highest_weight_ladder(N, m, ell)
    for _ in range(nrungs):
        opts = [Rung(p, s, a)
                for p in range(1, m)
                for s in (1, -1)
                for a in range(1, N + 1)
                if apply_rung(lad.top, Rung(p, s, a), N) is not Zero]
        if not opts:
            break
        lad = lad.with_rung(rng.choice(opts))
    return lad


def test_criterion_05_shapovalov_form():
    def body():
        bad = []
        for N in (2, 3):
            for m in (1, 2, 3):
                for ell in range(0, m + 1):
                    hw = highest_weight_ladder(N, m, ell)
                    if web_form(hw, hw) != LaurentPoly.one():
                        bad.append(("norm", N, m, ell))
        rng = random.Random(20260816)
        hits = 0
        while hits < 200:
            N = rng.randint(2, 3)
            m = rng.randint(2, 3)
            ell = rng.randint(1, m - 1)
            u = _random_web_from_highest(rng, N, m, ell, rng.randint(0, 3))
            v = _random_web_from_highest(rng, N, m, ell, rng.randint(0, 4))
            i = rng.randint(1, m - 1)
            erung = Rung(i, 1, 1)
            k2 = apply_rung(u.top, erung, N)
            if k2 is Zero or tuple(v.top) != tuple(k2):
                continue
            hits += 1
            lam = u.top.sl()[i - 1]
            lhs = web_form(u.with_rung(erung), v)
            vf = v.with_rung(Rung(i, -1, 1))
            rhs = Q(-1 - lam) * (web_form(u, vf)
                                 if vf is not Zero else LaurentPoly.zero())
            if lhs != rhs:
                bad.append(("adjunction", N, m, str(u), str(v), i))
        return bad

    _run(5, "shapovalov form", body)


def test_criterion_06_positivity():
    def body():
        bad = []
        for N in (2, 3):
            for ell in (1, 2):
                for m in range(max(2, ell), ell + 3):
                    base = GlWeight([N] * ell + [0] * (m - ell))
                    closed = []

                    def far(k):
                        return sum(abs(x - y) for x, y in zip(k, base))

                    def rec(lad, left):
                        if tuple(lad.top) == tuple(base):
                            closed.append(lad)
                        if left == 0:
                            return
                        for pos in range(1, m):
                            for sign in (1, -1):
                                for a in range(1, N + 1):
                                    ext = lad.with_rung(Rung(pos, sign, a))
                                    if ext is Zero:
                                        continue
                                    if far(ext.top) <= 2 * N * (left - 1):
                                        rec(ext, left - 1)

                    rec(Ladder(N, m, base), 4)
                    for lad in closed:
                        try:
                            val = reduce_to_highest(lad)
                        except Exception as exc:
                            bad.append((N, ell, m, str(lad), repr(exc)))
                            continue
                        if not val.is_zero() and not val.has_nonneg_coeffs():
                            bad.append((N, ell, m, str(lad), str(val)))
        return bad

    _run(6, "closed web positivity", body)


def test_criterion_07_dimension_identity():
    def canonical(vec):
        """Normalize a functor vector by a unit, for duplicate removal."""
        nonzero = [(r, p) for r, p in vec if not p.is_zero()]
        if not nonzero:
            return None
        _, lead = nonzero[0]
        low = lead.min_exp()
        sgn = 1 if lead.coeff(low) > 0 else -1
        unit = LaurentPoly({-low: sgn})
        return tuple((r, tuple(sorted((unit * p).coeffs().items())))
                     for r, p in nonzero)

    def body():
        bad = []
        expected = {(2, 1, 2): 3, (2, 1, 3): 6, (2, 2, 4): 20}
        for (N, ell, m), frozen in sorted(expected.items()):
            d = N * ell
            base = GlWeight([N] * ell + [0] * (m - ell))
            by_top = {}
            for lad in _grow_ladders(N, m, base, 4, N):
                by_top.setdefault(tuple(lad.top), []).append(lad)
            total = 0
            for k in enumerate_weights(m, d, N):
                seen, gens = set(), []
                for lad in by_top.get(tuple(k), ()):
                    mat = ladder_matrix(lad)
                    key = canonical([(r, mat.entry(r, 0))
                                     for r in range(mat.nrows)])
                    if key is None or key in seen:
                        continue
                    seen.add(key)
                    gens.append(lad)
                if not gens:
                    continue
                gram = [[web_form(u, v).evaluate(Fraction(2)) for v in gens]
                        for u in gens]
                total += fraction_rank(gram)
            oracle = _weyl_dim([N] * ell, m)
            if total != oracle or oracle != frozen:
                bad.append((N, ell, m, total, oracle, frozen))
        return bad

    _run(7, "dimension identity", body, budget=600)


def test_criterion_08_mf_potentials():
    def body():
        bad = []
        for N in (2, 3):
            for k in range(0, 4):
                if not check_potential(mf_edge(k, N)):
                    bad.append(("edge", k, N))
            for k1 in range(0, 4):
                for k2 in range(0, 4 - k1):
                    if not check_potential(mf_merge(k1, k2, N)):
                        bad.append(("merge", k1, k2, N))
                    if not check_potential(mf_split(k1, k2, N)):
                        bad.append(("split", k1, k2, N))
            for m in (1, 2, 3):
                for base in enumerate_all_bases(m, N):
                    for lad in _grow_ladders(N, m, GlWeight(base), 3, N):
                        if not check_potential(compile_web(lad)):
                            bad.append(("compiled", N, str(lad)))
        return bad

    _run(8, "factorization potentials", body, budget=30)


def enumerate_all_bases(m, N):
    return product(range(N + 1), repeat=m)


def test_criterion_09_overfull_strand():
    def body():
        bad = []
        for N in (2, 3):
            if not exclude_variables(mf_edge(N + 1, N)).is_zero_object():
                bad.append(N)
        return bad

    _run(9, "overfull strand contracts", body)


def test_criterion_10_grassmannian_ext():
    def body():
        bad = []
        for N, k in ((2, 1), (3, 1), (3, 2)):
            e = mf_edge(k, N)
            h0, h1 = ext_qdim(e, e)
            oracle = _box_partition_poincare(N, k)
            concentrated = (h0 == oracle and h1.is_zero()) or (
                h1 == oracle and h0.is_zero())
            if not concentrated:
                bad.append((N, k, str(h0), str(h1), str(oracle)))
        return bad

    _run(10, "grassmannian ext", body, budget=300)


def test_criterion_11_ext_matches_form():
    def body():
        bad = []
        N, m, base = 2, 2, GlWeight((2, 0))
        by_top = {}
        for lad in _grow_ladders(N, m, base, 2, 1):
            by_top.setdefault(tuple(lad.top), []).append(lad)
        for group in by_top.values():
            for u, v in product(group, repeat=2):
                h0, h1 = ext_qdim(compile_web(u), compile_web(v))
                if h0 + h1 != web_form(u, v):
                    bad.append((str(u), str(v), str(h0), str(h1)))
        return bad

    _run(11, "ext decategorifies to the form", body, budget=600)


def test_criterion_12_degenerate_isomorphisms():
    def body():
        bad = []
        for N in (2, 3):
            for k in range(0, 4):
                edge = mf_edge(k, N, top="t", bot="b")
                merged = mf_merge(0, k, N, top="t", bot1="dead", bot2="b")
                if merged.rows != edge.rows or merged.gr != edge.gr:
                    bad.append(("merge", k, N))
                split = mf_split(k, 0, N, top1="t", top2="dead", bot="b")
                if split.rows != edge.rows or split.gr != edge.gr:
                    bad.append(("split", k, N))
        return bad

    _run(12, "degenerate merge and split", body)


def test_criterion_13_ext_matches_form_n3_and_m3():
    def body():
        bad = []
        # (N, m, bases, max thickness, same-top pairs), all with <= 2 rungs
        sweeps = ((3, 2, [(3, 0)], 3, 43), (2, 3, [(2, 0, 0), (2, 2, 0)], 2, 40),
                  (4, 2, [(4, 0)], 4, 89), (3, 3, [(3, 0, 0)], 3, 49))
        for N, m, bases, thick, want in sweeps:
            npairs = 0
            for base in bases:
                by_top = {}
                for lad in _grow_ladders(N, m, GlWeight(base), 2, thick):
                    by_top.setdefault(tuple(lad.top), []).append(lad)
                for group in by_top.values():
                    for u, v in product(group, repeat=2):
                        npairs += 1
                        try:
                            h0, h1 = ext_qdim(compile_web(u), compile_web(v))
                        except IrreducibleToFinite as exc:
                            bad.append(("irreducible", str(u), str(v), str(exc)))
                            continue
                        if h0 + h1 != web_form(u, v):
                            bad.append((str(u), str(v), str(h0), str(h1)))
            if npairs != want:
                bad.append(("pair count", N, m, npairs, want))
        return bad

    _run(13, "ext decategorifies to the form, N=3, N=4 and m=3", body, budget=60)
