import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwebs.qpoly import (
    LaurentPoly,
    NonExactDivision,
    PolyRing,
    bar,
    elementary_ring,
    exact_divide,
    power_sum_in_e,
    qbinom,
    qbinom_ext,
    qint,
    qint_signed,
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
