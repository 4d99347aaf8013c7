import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import qint_signed
from qwebs.qpoly import (
    LaurentPoly,
    MultiPoly,
    NonExactDivision,
    PolyRing,
    bar,
    elementary_ring,
    exact_divide,
    power_sum_in_e,
    qbinom,
    qbinom_ext,
    qint,
)

Q = LaurentPoly.q_power
ONE = LaurentPoly.one()


def qfact(n):
    out = ONE
    for i in range(1, n + 1):
        out = out * qint(i)
    return out


# ---------------------------------------------------------------- quantum ints


def test_qint_small():
    assert qint(0) == LaurentPoly.zero()
    assert qint(1) == ONE
    assert qint(2) == Q(1) + Q(-1)
    assert qint(3) == Q(2) + ONE + Q(-2)


def test_qint_rejects_negative():
    with pytest.raises(ValueError):
        qint(-1)


def test_qint_signed():
    assert qint_signed(-3) == -qint(3)
    assert qint_signed(0) == LaurentPoly.zero()


def test_qbinom_frozen_example():
    # oracle: exact division of quantum factorials
    expected = qfact(4).exact_divide(qfact(2) * qfact(2))
    assert expected == LaurentPoly({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
    assert qbinom(4, 2) == expected


def test_qbinom_matches_factorial_division():
    for n in range(9):
        for k in range(n + 1):
            assert qbinom(n, k) == qfact(n).exact_divide(qfact(k) * qfact(n - k))


def test_qbinom_symmetry_and_bar():
    for n in range(9):
        for k in range(n + 1):
            b = qbinom(n, k)
            assert b == qbinom(n, n - k)
            assert b == bar(b)
            assert b.has_nonneg_coeffs()


def test_qbinom_pascal():
    for n in range(1, 9):
        for k in range(n + 1):
            rhs = LaurentPoly.zero()
            if k <= n - 1:
                rhs = rhs + Q(k) * qbinom(n - 1, k)
            if 1 <= k:
                rhs = rhs + Q(k - n) * qbinom(n - 1, k - 1)
            assert qbinom(n, k) == rhs


def test_qbinom_domain():
    with pytest.raises(ValueError):
        qbinom(3, 4)
    with pytest.raises(ValueError):
        qbinom(3, -1)


def test_qbinom_from_a_cold_cache_needs_no_recursion():
    qbinom.cache_clear()
    assert qbinom(500, 1) == qint(500)
    qbinom.cache_clear()
    got = qbinom(2000, 3)
    # [n;k] = [n][n-1][n-2] / ([1][2][3]), scaled to integers at q = 2^32:
    # P(m) = q^(m-1) [m] = (q^2m - 1) / (q^2 - 1). Every coefficient of the
    # quotient is nonnegative and below 2^32 (they sum to C(2000, 3)), so
    # its value at 2^32 fixes each of them.
    big = 2 ** 32

    def P(m):
        return (big ** (2 * m) - 1) // (big ** 2 - 1)

    shift = 3 * 1997
    assert min(got.coeffs()) == -shift and got.has_nonneg_coeffs()
    assert max(got.coeffs().values()) < big
    value = sum(c * big ** (e + shift) for e, c in got.coeffs().items())
    assert value * P(1) * P(2) * P(3) == P(1998) * P(1999) * P(2000)


def test_qbinom_ext_agrees_on_classical_domain():
    for n in range(7):
        for r in range(n + 1):
            assert qbinom_ext(n, r) == qbinom(n, r)


def test_qbinom_ext_negative_top():
    assert qbinom_ext(-1, 1) == LaurentPoly.const(-1)
    for n in range(1, 5):
        for r in range(5):
            want = qbinom(n + r - 1, r) if n + r - 1 >= r else ONE
            got = qbinom_ext(-n, r)
            sign = 1 if r % 2 == 0 else -1
            assert got == sign * qbinom(n + r - 1, r)


# ------------------------------------------------------------------- division


def test_exact_divide_example():
    num = (Q(1) + Q(-1)) * qint(3)
    assert exact_divide(num, qint(3)) == Q(1) + Q(-1)


def test_exact_divide_failure():
    with pytest.raises(NonExactDivision):
        exact_divide(Q(2) + ONE, Q(1) + ONE)


laurents = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(LaurentPoly)


@given(laurents, laurents)
@settings(max_examples=200)
def test_exact_divide_roundtrip(a, b):
    if b.is_zero():
        return
    assert exact_divide(a * b, b) == a


@given(laurents)
def test_bar_involution(a):
    assert bar(bar(a)) == a


@given(laurents, laurents)
def test_bar_multiplicative(a, b):
    assert bar(a * b) == bar(a) * bar(b)


def _in_normal_form(p):
    return all(type(e) is int and type(v) is int and v for e, v in p._c.items())


@given(laurents, laurents, st.integers(min_value=-3, max_value=3))
def test_arithmetic_results_are_in_normal_form(a, b, n):
    # results go through the trusted LaurentPoly._raw, so each operation
    # drops the zeros it leaves itself
    results = [a + b, a - b, -a, a * b, bar(a), a + n, n * a, n - a,
               LaurentPoly.zero(), LaurentPoly.one(), qint(abs(n))]
    if not b.is_zero():
        results.append(exact_divide(a * b, b))
    for r in results:
        assert _in_normal_form(r) and r == LaurentPoly(r.coeffs()), r
    assert (a - a).coeffs() == {} and (a * 0).coeffs() == {}


def test_multipoly_quotient_is_in_normal_form():
    ring = PolyRing([("a", 2), ("b", 4)])
    a, b = ring.var("a"), ring.var("b")
    quot = ((a ** 2 + b) * (a ** 3 - 2 * b + 1)).exact_divide(a ** 2 + b)
    assert all(type(v) is int and v for v in quot.terms().values())
    half = (a + b).exact_divide(ring.const(2))
    assert half.terms() == {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}


# ------------------------------------------------------------------ text form


def test_str_canonical():
    p = Q(4) + LaurentPoly.const(2) + Q(-4)
    assert str(p) == "q^4 + 2 + q^-4"
    assert str(LaurentPoly.zero()) == "0"
    assert str(Q(1) - ONE) == "q - 1"
    assert str(-2 * Q(1)) == "-2q"


# ----------------------------------------------------------------- power sums


def test_power_sum_frozen_example():
    ring = elementary_ring(2)
    e1, e2 = ring.var("e1"), ring.var("e2")
    assert power_sum_in_e(3, 2) == e1 ** 3 - 3 * e1 * e2


def test_power_sum_homogeneous():
    for k in range(1, 5):
        for p in range(1, 7):
            ps = power_sum_in_e(p, k)
            assert ps.homogeneous_degree() == 2 * p


def elem(xs, i):
    if i == 0:
        return 1
    total = 0
    from itertools import combinations

    for c in combinations(xs, i):
        prod = 1
        for v in c:
            prod *= v
        total += prod
    return total


def test_power_sum_numeric():
    rng = random.Random(7)
    for _ in range(40):
        k = rng.randint(1, 4)
        p = rng.randint(1, 6)
        xs = [rng.randint(-5, 5) for _ in range(k)]
        values = {f"e{i}": elem(xs, i) for i in range(1, k + 1)}
        want = sum(x ** p for x in xs)
        assert power_sum_in_e(p, k).evaluate(values) == want


def test_power_sum_is_cached_and_checks_every_call():
    assert power_sum_in_e(4, 2) is power_sum_in_e(4, 2)
    for _ in range(2):
        with pytest.raises(ValueError):
            power_sum_in_e(0, 2)
        with pytest.raises(ValueError):
            power_sum_in_e(3, 0)


# ----------------------------------------------------------------- multipolys


def test_multipoly_division_exact():
    ring = PolyRing([("a", 2), ("b", 4)])
    a, b = ring.var("a"), ring.var("b")
    num = (a ** 2 + b) * (a ** 3 - 2 * b + 1)
    assert num.exact_divide(a ** 2 + b) == a ** 3 - 2 * b + 1
    with pytest.raises(NonExactDivision):
        (a ** 2 + b + 1).exact_divide(a + 1)


def test_multipoly_substitute_and_convert():
    small = PolyRing([("a", 2)])
    big = PolyRing([("a", 2), ("b", 2)])
    p = small.var("a") ** 2 + 3 * small.var("a")
    q = p.substitute({"a": big.var("a") + big.var("b")}, ring=big)
    ab = big.var("a") + big.var("b")
    assert q == ab ** 2 + 3 * ab
    assert p.convert(big) == big.var("a") ** 2 + 3 * big.var("a")
    # unmapped generators move by name, so a reordered target is fine
    flipped = PolyRing([("b", 2), ("a", 2)])
    f = big.var("a") ** 2 * big.var("b") - 2 * big.var("b")
    r = f.substitute({}, flipped)
    assert r == f.convert(flipped)
    assert r == flipped.var("a") ** 2 * flipped.var("b") - 2 * flipped.var("b")
    # two mapped generators at high exponents, and Fraction coefficients
    tri = PolyRing([("a", 2), ("b", 2), ("c", 2)])
    a, b, c = (tri.var(n) for n in ("a", "b", "c"))
    f = a ** 3 * b ** 4 * c - 5 * a ** 4 * b ** 3 + a * c ** 3
    s, t = big.var("a") - 2 * big.var("b"), 3 * big.var("a") + big.var("b")
    want = s ** 3 * t ** 4 * big.var("b") - 5 * s ** 4 * t ** 3 + s * big.var("b") ** 3
    assert f.substitute({"a": s, "b": t, "c": big.var("b")}, big) == want
    half = big.var("a") * Fraction(1, 2) - big.var("b") * Fraction(2, 3)
    g = a ** 3 * Fraction(3, 4) + a * b * c - 2 * c ** 3
    want = half ** 3 * Fraction(3, 4) + half * big.var("b") ** 2 - 2 * big.var("b") ** 3
    assert g.substitute({"a": half, "b": big.var("b"), "c": big.var("b")}, big) == want
    # the input checks both paths share
    with pytest.raises(ValueError, match="missing from target ring"):
        big.var("b").convert(small)
    with pytest.raises(ValueError, match="missing from target ring"):
        big.var("b").substitute({"a": small.var("a")}, small)
    wide = PolyRing([("a", 4)])
    with pytest.raises(ValueError, match="changes degree"):
        p.convert(wide)
    with pytest.raises(ValueError, match="changes degree"):
        big.var("a").substitute({"b": wide.var("a")}, wide)
    with pytest.raises(ValueError, match="wrong ring"):
        p.substitute({"a": small.var("a")}, big)


def _times(a, b):
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + v1 * v2
    return out


def _reindex_by_name(f, mapping, ring):
    """Reference ring transfer: each used generator is looked up by name,
    mapped ones are substituted and the others placed one exponent at a time."""
    if not mapping and ring == f.ring:
        return f
    gens = f.ring.gens
    used = set()
    for exps in f.terms():
        used.update(i for i, e in enumerate(exps) if e)
    moved, subst = {}, {}
    for i in sorted(used):
        name, deg = gens[i]
        if name in mapping:
            subst[i] = mapping[name]
        elif name not in ring:
            raise ValueError(f"generator {name} missing from target ring")
        elif ring.degree_of(name) != deg:
            raise ValueError(f"generator {name} changes degree")
        else:
            moved[i] = ring.index(name)
    width = len(ring.gens)
    groups = {}
    for exps, v in f.terms().items():
        ne = [0] * width
        for i, j in moved.items():
            ne[j] = exps[i]
        groups.setdefault(tuple(exps[i] for i in subst), {})[tuple(ne)] = v
    powers = []
    for k, val in enumerate(subst.values()):
        pw = [None, val.terms()]
        for _ in range(max(key[k] for key in groups) - 1):
            pw.append(_times(pw[-1], val.terms()))
        powers.append(pw)
    out = {}
    for key, part in groups.items():
        for pw, e in zip(powers, key):
            if e:
                part = _times(part, pw[e])
        for e, v in part.items():
            out[e] = out.get(e, 0) + v
    return MultiPoly(ring, out)


DEGREES = {"a": 2, "b": 2, "c": 4, "d": 2, "e": 6, "f": 4}


def _random_ring(rng, size):
    return PolyRing([(n, DEGREES[n]) for n in rng.sample(sorted(DEGREES), size)])


def _random_poly(rng, ring, names, terms, top):
    """Terms over the given generators of ring, coefficients ints or Fractions."""
    out = {}
    for _ in range(terms):
        e = [0] * len(ring)
        for n in names:
            e[ring.index(n)] = rng.randint(0, top)
        out[tuple(e)] = rng.choice([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    return MultiPoly(ring, out)


def _assert_moves_alike(f, mapping, ring):
    try:
        want = _reindex_by_name(f, mapping, ring)
    except ValueError as err:
        with pytest.raises(ValueError, match=str(err)):
            f.substitute(mapping, ring)
        return False
    got = f.substitute(mapping, ring)
    assert got == want and str(got) == str(want), (str(f), mapping, ring)
    assert all(got.terms().values())
    if not mapping:
        assert f.convert(ring) == want
    return True


def test_ring_transfer_matches_name_oracle():
    # permuted, dropped and padded slots, target widths 0 to 4, substituted
    # slots at exponents up to 4 and values that make terms cancel
    rng = random.Random(15)
    moved = substituted = 0
    for _ in range(600):
        src = _random_ring(rng, rng.randint(0, 4))
        dst = _random_ring(rng, rng.randint(0, 4))
        names = src.names()
        mapping = {n: _random_poly(rng, dst, rng.sample(dst.names(), min(len(dst), 2)),
                                   rng.randint(0, 2), 1)
                   for n in names if rng.random() < (0.3 if n in dst else 0.9)}
        # a generator that is neither mapped nor in dst is used only sometimes,
        # so that the missing-generator check is reached as well
        used = [n for n in names if n in mapping or n in dst or rng.random() < 0.5]
        f = _random_poly(rng, src, used, rng.randint(0, 5), 4)
        if _assert_moves_alike(f, mapping, dst):
            moved += 1
            substituted += any(f.uses(n) for n in mapping)
    assert moved > 300 and substituted > 100 and moved < 600


def test_ring_transfer_edge_cases_match_name_oracle():
    ab = PolyRing([("a", 2), ("b", 2)])
    a, b = ab.var("a"), ab.var("b")
    empty = PolyRing([])
    one = PolyRing([("c", 2)])
    c = one.var("c")
    cases = [
        # target width 0: constants, and every generator substituted by one
        (ab.const(Fraction(3, 4)), {}, empty),
        (a ** 3 * b - 2 * b ** 4, {"a": empty.const(2), "b": empty.const(Fraction(1, 3))}, empty),
        # target width 1, moved and substituted
        (PolyRing([("c", 2), ("a", 2)]).var("c") ** 3, {}, one),
        (a ** 3 - 2 * a * b ** 4, {"a": c * Fraction(1, 2), "b": -c}, one),
        # terms that cancel to zero, partly and wholly
        (a ** 3 - b ** 3 + a, {"a": c, "b": c}, one),
        (a * b ** 3 - a ** 3 * b, {"a": c, "b": c}, one),
        # a slot substituted while the others are permuted and padded
        (a ** 4 * b ** 3 + 5 * b, {"a": PolyRing([("d", 2), ("b", 2), ("e", 6)]).var("d") * 3},
         PolyRing([("d", 2), ("b", 2), ("e", 6)])),
    ]
    for f, mapping, ring in cases:
        assert _assert_moves_alike(f, mapping, ring)
    assert (a * b ** 3 - a ** 3 * b).substitute({"a": c, "b": c}, one).terms() == {}


def test_multipoly_homogeneity_check():
    ring = PolyRing([("a", 2), ("b", 4)])
    assert (ring.var("a") ** 2 - ring.var("b")).homogeneous_degree() == 4
    with pytest.raises(ValueError):
        (ring.var("a") + ring.var("b")).homogeneous_degree()
    assert ring.zero().homogeneous_degree() is None


def test_ring_value_semantics():
    r1 = PolyRing([("a", 2), ("b", 4)])
    r2 = PolyRing([("a", 2), ("b", 4)])
    r3 = PolyRing([("b", 4), ("a", 2)])
    assert r1 == r2
    assert r1 != r3
    assert r1.var("a") == r2.var("a")
    # a constant equals its coefficient, so it must hash as one
    assert LaurentPoly.const(3) == 3 and hash(LaurentPoly.const(3)) == hash(3)
    assert len({3, LaurentPoly.const(3)}) == 1
    assert hash(LaurentPoly.zero()) == hash(0)
    half = r1.const(Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert len({Fraction(1, 2), half}) == 1
    assert hash(r1.zero()) == hash(0) and r1.const(2) in {2}
