"""Exact arithmetic for the quantum coefficient ring and graded polynomial rings.

Two polynomial flavors live here. LaurentPoly is Z[q, q^-1] with the balanced
quantum combinatorics on top (quantum integers, quantum binomials, the bar
involution q -> q^-1). MultiPoly is a multivariate polynomial over an ordered
ring of named generators carrying even positive degrees; it backs the
symmetric-function side (power sums in elementary generators) that the
matrix factorization layer consumes.

All arithmetic is exact: integers, Fractions, and exponent dictionaries.
Division only ever happens in the exact sense and raises NonExactDivision
when the quotient does not exist.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add, itemgetter, mul


class NonExactDivision(ArithmeticError):
    """An exact quotient was requested but does not exist in the ring."""


def _norm_coeff(c):
    """Collapse Fractions with denominator 1 to int; reject floats."""
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise TypeError(f"exact coefficient expected, got {type(c).__name__}")
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _normal(t):
    """t without its zero values and with each integral Fraction made an int:
    the form MultiPoly._raw trusts it is handed."""
    return {e: v.numerator if v.denominator == 1 else v for e, v in t.items() if v}


def _slots(pick):
    """The function taking an exponent tuple e to (e[i] for i in pick), as a tuple."""
    return itemgetter(*pick) if len(pick) > 1 else lambda e: tuple(e[i] for i in pick)


def _mul_into(out, a, b):
    """Add the product of exponent dicts a and b into out, and return out."""
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + v1 * v2
    return out


class LaurentPoly:
    """Element of Z[q, q^-1]: a map from integer exponents to nonzero coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                v = _norm_coeff(v)
                if isinstance(v, Fraction):
                    raise TypeError("LaurentPoly coefficients must be integers")
                if v:
                    c[int(e)] = c.get(int(e), 0) + v
        self._c = {e: v for e, v in c.items() if v}

    @classmethod
    def _raw(cls, coeffs):
        """Internal fast path: coeffs maps int exponents to nonzero ints and is not copied."""
        self = object.__new__(cls)
        self._c = coeffs
        return self

    @staticmethod
    def zero():
        return LaurentPoly._raw({})

    @staticmethod
    def one():
        return LaurentPoly._raw({0: 1})

    @staticmethod
    def const(n):
        return LaurentPoly({0: n})

    @staticmethod
    def q_power(e, coeff=1):
        return LaurentPoly({e: coeff})

    def coeffs(self):
        return dict(self._c)

    def coeff(self, e):
        return self._c.get(e, 0)

    def is_zero(self):
        return not self._c

    def min_exp(self):
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return min(self._c)

    def has_nonneg_coeffs(self):
        return all(v > 0 for v in self._c.values())

    def bar(self):
        """The involution q -> q^-1."""
        return LaurentPoly._raw({-e: v for e, v in self._c.items()})

    def evaluate(self, value):
        """Evaluate at an exact value (int or Fraction)."""
        value = Fraction(value)
        total = Fraction(0)
        for e, v in self._c.items():
            total += v * value ** e
        return total

    def _coerce(other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return LaurentPoly._raw({0: other} if other else {})
        return None

    def __add__(self, other):
        other = LaurentPoly._coerce(other)
        if other is None:
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            c[e] = c.get(e, 0) + v
        return LaurentPoly._raw({e: v for e, v in c.items() if v})

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw({e: -v for e, v in self._c.items()})

    def __sub__(self, other):
        other = LaurentPoly._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = LaurentPoly._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = LaurentPoly._coerce(other)
        if other is None:
            return NotImplemented
        c = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + v1 * v2
        return LaurentPoly._raw({e: v for e, v in c.items() if v})

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = LaurentPoly._coerce(other)
        if other is None:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        # a constant equals its coefficient, so it hashes as one
        if not self._c.keys() - {0}:
            return hash(self._c.get(0, 0))
        return hash(frozenset(self._c.items()))

    def __bool__(self):
        return bool(self._c)

    def __repr__(self):
        return f"LaurentPoly({self})"

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c, reverse=True):
            v = self._c[e]
            mag = abs(v)
            if e == 0:
                body = str(mag)
            else:
                qp = "q" if e == 1 else f"q^{e}"
                body = qp if mag == 1 else f"{mag}{qp}"
            if not parts:
                parts.append(body if v > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if v > 0 else f"- {body}")
        return " ".join(parts)

    def exact_divide(self, den):
        """Exact quotient in Z[q, q^-1]; raises NonExactDivision otherwise."""
        if not isinstance(den, LaurentPoly):
            den = LaurentPoly._coerce(den)
        if den is None or den.is_zero():
            raise NonExactDivision("division by zero")
        if self.is_zero():
            return LaurentPoly.zero()
        # shift both to ordinary polynomials and long-divide
        ns, ds = self.min_exp(), den.min_exp()
        num = {e - ns: Fraction(v) for e, v in self._c.items()}
        dd = {e - ds: Fraction(v) for e, v in den._c.items()}
        dtop = max(dd)
        lead = dd[dtop]
        quot = {}
        while num:
            ntop = max(num)
            if ntop < dtop:
                raise NonExactDivision(f"({self}) / ({den})")
            qe = ntop - dtop
            qc = num[ntop] / lead
            quot[qe] = qc
            for e, v in dd.items():
                ne = e + qe
                nv = num.get(ne, Fraction(0)) - qc * v
                if nv:
                    num[ne] = nv
                else:
                    num.pop(ne, None)
        for v in quot.values():
            if v.denominator != 1:
                raise NonExactDivision(f"({self}) / ({den}) leaves Z[q,q^-1]")
        return LaurentPoly._raw({e + ns - ds: int(v) for e, v in quot.items()})


def bar(p):
    """Bar involution q -> q^-1 on LaurentPoly."""
    return p.bar()


def qint(n):
    """Balanced quantum integer [n] = q^(n-1) + q^(n-3) + ... + q^(1-n), n >= 0."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"qint wants a nonnegative integer, got {n!r}")
    return LaurentPoly._raw({n - 1 - 2 * j: 1 for j in range(n)})


@lru_cache(maxsize=None)
def qbinom(n, k):
    """Balanced quantum binomial [n choose k] for 0 <= k <= n.

    [n;k] = q^(-k(n-k)) G(q^2) for the Gaussian binomial G(x), the product of
    (1 - x^(n-k+i)) / (1 - x^i) over i = 1..min(k, n-k). Each partial product
    is a Gaussian binomial, so the division by 1 - x^i, a running sum with
    stride i, is exact and every step stays in Z[x].
    """
    if not isinstance(n, int) or not isinstance(k, int):
        raise ValueError("qbinom wants integers")
    if k < 0 or k > n:
        raise ValueError(f"qbinom({n}, {k}) is outside 0 <= k <= n")
    r = n - min(k, n - k)
    g = [1]  # coefficients of G, lowest degree first
    for i in range(1, n - r + 1):
        pad = [0] * (r + i)
        g = [x - y for x, y in zip(g + pad, pad + g)]
        for t in range(i, len(g)):
            g[t] += g[t - i]
        del g[-i:]
    return LaurentPoly._raw({2 * t - k * (n - k): c for t, c in enumerate(g) if c})


def qbinom_ext(n, r):
    """Quantum binomial [n; r] for arbitrary integer n and r >= 0.

    The product form [n][n-1]...[n-r+1] / [r]!, read off the cached qbinom:
    (-1)^r [r-n-1; r] for negative n, zero for 0 <= n < r, and [n; r]
    otherwise, so it always lands in Z[q, q^-1]. The restricted qbinom
    above is the public face; this one exists for commutation formulas
    whose weight argument can go negative.
    """
    if r < 0:
        raise ValueError("lower index must be >= 0")
    if n < 0:
        return (-1) ** r * qbinom(r - n - 1, r)
    if n < r:
        return LaurentPoly.zero()
    return qbinom(n, r)


class PolyRing:
    """Ordered ring of named generators, each with an even positive degree."""

    __slots__ = ("gens", "_index", "_names", "_degs")

    def __init__(self, gens):
        seen = set()
        out = []
        for name, deg in gens:
            name = str(name)
            deg = int(deg)
            if deg <= 0 or deg % 2:
                raise ValueError(f"generator {name} needs an even positive degree, got {deg}")
            if name in seen:
                raise ValueError(f"duplicate generator name {name}")
            seen.add(name)
            out.append((name, deg))
        self.gens = tuple(out)
        self._index = {name: i for i, (name, _) in enumerate(self.gens)}
        self._names = tuple(name for name, _ in self.gens)
        self._degs = tuple(deg for _, deg in self.gens)

    def names(self):
        return self._names

    def degree_of(self, name):
        return self.gens[self._index[name]][1]

    def index(self, name):
        return self._index[name]

    def __len__(self):
        return len(self.gens)

    def __contains__(self, name):
        return name in self._index

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.gens == other.gens

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        body = ", ".join(f"{n}:{d}" for n, d in self.gens)
        return f"PolyRing({body})"

    def zero(self):
        return MultiPoly(self, {})

    def one(self):
        return MultiPoly(self, {(0,) * len(self.gens): 1})

    def const(self, c):
        return MultiPoly(self, {(0,) * len(self.gens): c})

    def var(self, name):
        e = [0] * len(self.gens)
        e[self._index[name]] = 1
        return MultiPoly(self, {tuple(e): 1})

    def monomial_degree(self, exps):
        return sum(map(mul, exps, self._degs))


class MultiPoly:
    """Polynomial over a PolyRing: exponent vectors to exact coefficients."""

    __slots__ = ("ring", "_t")

    def __init__(self, ring, terms=None):
        if not isinstance(ring, PolyRing):
            raise TypeError("MultiPoly needs a PolyRing")
        self.ring = ring
        t = {}
        n = len(ring.gens)
        if terms:
            for exps, v in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != n:
                    raise ValueError("exponent vector length does not match ring")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent")
                v = _norm_coeff(v)
                if v:
                    t[exps] = t.get(exps, 0) + v
        self._t = {e: v for e, v in t.items() if v}

    @classmethod
    def _raw(cls, ring, terms):
        """Internal fast path: terms maps validated exponent tuples to nonzero
        coefficients in normal form (see _normal) and is not copied."""
        self = object.__new__(cls)
        self.ring = ring
        self._t = terms
        return self

    def terms(self):
        return dict(self._t)

    def is_zero(self):
        return not self._t

    def is_constant(self):
        return all(not any(e) for e in self._t)

    def homogeneous_degree(self):
        """Degree of a homogeneous polynomial; None for 0, ValueError if mixed."""
        degs = {self.ring.monomial_degree(e) for e in self._t}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise ValueError("ring mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_ring(other)
        t = dict(self._t)
        for e, v in other._t.items():
            t[e] = t.get(e, 0) + v
        return MultiPoly._raw(self.ring, _normal(t))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(self.ring, {e: -v for e, v in self._t.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiPoly._raw(self.ring, _normal({e: v * other for e, v in self._t.items()}))
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_ring(other)
        return MultiPoly._raw(self.ring, _normal(_mul_into({}, self._t, other._t)))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring == other.ring and self._t == other._t

    def __hash__(self):
        # a constant equals its coefficient, so it hashes as one
        if self.is_constant():
            return hash(next(iter(self._t.values()), 0))
        return hash((self.ring, frozenset(self._t.items())))

    def __bool__(self):
        return bool(self._t)

    def __str__(self):
        if not self._t:
            return "0"
        names = self.ring.names()
        parts = []
        for exps in sorted(self._t, reverse=True):
            v = self._t[exps]
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(v)
            if factors:
                body = "*".join(factors) if mag == 1 else "*".join([str(mag)] + factors)
            else:
                body = str(mag)
            if not parts:
                parts.append(body if v > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if v > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self})"

    def evaluate(self, values):
        """Numeric evaluation; values maps generator names to int/Fraction."""
        total = Fraction(0)
        names = self.ring.names()
        for exps, v in self._t.items():
            term = Fraction(v)
            for name, e in zip(names, exps):
                if e:
                    term *= Fraction(values[name]) ** e
            total += term
        return _norm_coeff(total)

    def substitute(self, mapping, ring):
        """Replace generators by polynomials over `ring`.

        mapping sends names of this ring to MultiPolys over `ring`. Every
        generator that is used and not mapped must exist in `ring` with the
        same degree; it moves to its place there by name, as in convert.
        """
        for val in mapping.values():
            if not isinstance(val, MultiPoly) or val.ring != ring:
                raise ValueError("substitution value in wrong ring")
        return self._reindex(mapping, ring)

    def convert(self, ring):
        """Reinterpret over another ring containing the same-named generators.

        The empty-mapping case of substitute: only generators actually used
        need to exist in the target, with the same degree.
        """
        return self._reindex({}, ring)

    def _reindex(self, mapping, ring):
        """The checks substitute and convert share, resolving the names of the
        used generators to the slot map and substitutions of _moved."""
        if not mapping and ring == self.ring:
            return self
        gens = self.ring.gens
        pick, subst = [len(gens)] * len(ring), {}
        for i in sorted({i for exps in self._t for i, e in enumerate(exps) if e}):
            name, deg = gens[i]
            if name in mapping:
                subst[i] = mapping[name]
            elif name not in ring:
                raise ValueError(f"generator {name} missing from target ring")
            elif ring.degree_of(name) != deg:
                raise ValueError(f"generator {name} changes degree")
            else:
                pick[ring.index(name)] = i
        return self._moved(ring, pick, subst)

    def _moved(self, ring, pick, subst=None):
        """This polynomial over ring, the one move between rings: target slot
        j takes the exponent of source slot pick[j], or 0 where pick[j] is the
        number of source slots, and each source slot in subst is replaced by
        its value, a MultiPoly over ring. Other source slots must be unused."""
        get = _slots(pick)
        # a target slot with no source reads a 0 appended to each tuple
        pad = (0,) if len(self.ring.gens) in pick else ()
        used = [i for i in subst if any(e[i] for e in self._t)] if subst else ()
        if not used:
            return MultiPoly._raw(ring, {get(e + pad): v for e, v in self._t.items()})
        # terms grouped by their exponents on the substituted slots; within a
        # group the moved exponents tell the terms apart
        key = _slots(used)
        groups = {}
        for e, v in self._t.items():
            groups.setdefault(key(e), {})[get(e + pad)] = v
        # powers[k][e] is the k-th used value to the e >= 1, built once
        powers = []
        for k, i in enumerate(used):
            pw = [None, subst[i]._t]
            for _ in range(max(g[k] for g in groups) - 1):
                pw.append(_mul_into({}, pw[-1], pw[1]))
            powers.append(pw)
        out = {}
        for g, part in groups.items():
            for pw, e in zip(powers, g):
                if e:
                    part = _mul_into({}, part, pw[e])
            for e, v in part.items():
                out[e] = out.get(e, 0) + v
        return MultiPoly._raw(ring, _normal(out))

    def uses(self, name):
        i = self.ring.index(name)
        return any(e[i] for e in self._t)

    def exact_divide(self, den):
        """Exact quotient by another MultiPoly; raises NonExactDivision otherwise.

        A single divisor is a Groebner basis of the ideal it generates, so
        plain monomial-order division decides membership: the quotient is
        exact iff the remainder vanishes.
        """
        if isinstance(den, (int, Fraction)):
            den = self.ring.const(den)
        self._check_ring(den)
        if den.is_zero():
            raise NonExactDivision("division by zero")
        if self.is_zero():
            return self.ring.zero()
        dlead = max(den._t)
        dcoeff = Fraction(den._t[dlead])
        num = {e: Fraction(v) for e, v in self._t.items()}
        quot = {}
        while num:
            nlead = max(num)
            diff = tuple(a - b for a, b in zip(nlead, dlead))
            if any(d < 0 for d in diff):
                raise NonExactDivision(f"({self}) / ({den})")
            qc = num[nlead] / dcoeff
            quot[diff] = quot.get(diff, Fraction(0)) + qc
            for e, v in den._t.items():
                ne = tuple(a + b for a, b in zip(e, diff))
                nv = num.get(ne, Fraction(0)) - qc * Fraction(v)
                if nv:
                    num[ne] = nv
                else:
                    num.pop(ne, None)
        return MultiPoly._raw(self.ring, _normal(quot))


def exact_divide(num, den):
    """Exact division for LaurentPoly or MultiPoly operands."""
    return num.exact_divide(den)


def elementary_ring(k):
    """Ring of elementary generators e1..ek with deg(ei) = 2i."""
    return PolyRing([(f"e{i}", 2 * i) for i in range(1, k + 1)])


@lru_cache(maxsize=None)
def power_sum_in_e(p, k):
    """The degree-2p power sum written in elementary generators e1..ek.

    Newton's identity, with e_i treated as zero above index k:
    p_n = sum_{i=1..min(n-1,k)} (-1)^(i-1) e_i p_{n-i} + (-1)^(n-1) n e_n.
    Cached, so the result is shared and must not be changed in place.
    """
    if p < 1 or k < 1:
        raise ValueError("need p >= 1 and k >= 1")
    ring = elementary_ring(k)
    e = [None] + [ring.var(f"e{i}") for i in range(1, k + 1)]
    ps = [ring.zero()]
    for n in range(1, p + 1):
        total = ring.zero()
        for i in range(1, min(n - 1, k) + 1):
            term = e[i] * ps[n - i]
            total = total + (term if i % 2 == 1 else -term)
        if n <= k:
            total = total + (n if n % 2 == 1 else -n) * e[n]
        ps.append(total)
    return ps[p]
