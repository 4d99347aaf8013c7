"""Exact arithmetic for the quantum coefficient ring and graded polynomial rings.

Two polynomial flavors live here. LaurentPoly is Z[q, q^-1] with the balanced
quantum combinatorics on top (quantum integers, quantum binomials, the bar
involution q -> q^-1). MultiPoly is a multivariate polynomial over an ordered
ring of named generators carrying even positive degrees; it backs the
symmetric-function side (power sums in elementary generators, signed series
components) that the matrix factorization layer consumes.

All arithmetic is exact: integers, Fractions, and exponent dictionaries.
Division only ever happens in the exact sense and raises NonExactDivision
when the quotient does not exist.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class NonExactDivision(ArithmeticError):
    """An exact quotient was requested but does not exist in the ring."""


def _norm_coeff(c):
    """Collapse Fractions with denominator 1 to int; reject floats."""
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise TypeError(f"exact coefficient expected, got {type(c).__name__}")
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


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

    @staticmethod
    def zero():
        return LaurentPoly()

    @staticmethod
    def one():
        return LaurentPoly({0: 1})

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

    def is_one(self):
        return self._c == {0: 1}

    def min_exp(self):
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return min(self._c)

    def max_exp(self):
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return max(self._c)

    def has_nonneg_coeffs(self):
        return all(v > 0 for v in self._c.values())

    def bar(self):
        """The involution q -> q^-1."""
        return LaurentPoly({-e: v for e, v in self._c.items()})

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
            return LaurentPoly({0: other})
        return None

    def __add__(self, other):
        other = LaurentPoly._coerce(other)
        if other is None:
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            c[e] = c.get(e, 0) + v
        return LaurentPoly(c)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -v for e, v in self._c.items()})

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
        return LaurentPoly(c)

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

    @staticmethod
    def parse(text):
        """Inverse of str() for the canonical form, e.g. 'q^4 + 2 + q^-4'."""
        s = text.strip()
        if s == "0":
            return LaurentPoly.zero()
        s = s.replace("-", " - ").replace("+", " + ")
        # undo the damage done to exponent signs like q^-4
        s = s.replace("^ - ", "^-").replace("^ + ", "^+")
        tokens = s.split()
        c = {}
        sign = 1
        for tok in tokens:
            if tok == "+":
                sign = 1
                continue
            if tok == "-":
                sign = -1
                continue
            if "q" in tok:
                head, _, tail = tok.partition("q")
                coeff = int(head) if head else 1
                if tail.startswith("^"):
                    e = int(tail[1:])
                elif tail == "":
                    e = 1
                else:
                    raise ValueError(f"bad term {tok!r}")
            else:
                coeff = int(tok)
                e = 0
            c[e] = c.get(e, 0) + sign * coeff
            sign = 1
        return LaurentPoly(c)

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
        return LaurentPoly({e + ns - ds: int(v) for e, v in quot.items()})


def bar(p):
    """Bar involution q -> q^-1 on LaurentPoly."""
    return p.bar()


def qint(n):
    """Balanced quantum integer [n] = q^(n-1) + q^(n-3) + ... + q^(1-n), n >= 0."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"qint wants a nonnegative integer, got {n!r}")
    return LaurentPoly({n - 1 - 2 * j: 1 for j in range(n)})


def qint_signed(n):
    """[n] for any integer, with [-n] = -[n]."""
    if n >= 0:
        return qint(n)
    return -qint(-n)


@lru_cache(maxsize=None)
def qbinom(n, k):
    """Balanced quantum binomial [n choose k] for 0 <= k <= n.

    Computed through the q-Pascal rule, which stays inside Z[q, q^-1]:
    [n;k] = q^k [n-1;k] + q^(k-n) [n-1;k-1].
    """
    if not isinstance(n, int) or not isinstance(k, int):
        raise ValueError("qbinom wants integers")
    if k < 0 or k > n:
        raise ValueError(f"qbinom({n}, {k}) is outside 0 <= k <= n")
    if k == 0 or k == n:
        return LaurentPoly.one()
    return LaurentPoly.q_power(k) * qbinom(n - 1, k) + LaurentPoly.q_power(k - n) * qbinom(n - 1, k - 1)


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

    __slots__ = ("gens", "_index")

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

    def names(self):
        return tuple(name for name, _ in self.gens)

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
        return sum(e * d for e, (_, d) in zip(exps, self.gens))


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
        self._t = {e: _norm_coeff(v) for e, v in t.items() if v}

    @classmethod
    def _raw(cls, ring, terms):
        """Internal fast path: exponent tuples are already validated."""
        self = object.__new__(cls)
        self.ring = ring
        t = {}
        for e, v in terms.items():
            v = _norm_coeff(v)
            if v:
                t[e] = v
        self._t = t
        return self

    def terms(self):
        return dict(self._t)

    def is_zero(self):
        return not self._t

    def is_constant(self):
        return all(not any(e) for e in self._t)

    def constant_value(self):
        if self.is_zero():
            return 0
        [(e, v)] = self._t.items()
        if any(e):
            raise ValueError("not a constant")
        return v

    def is_homogeneous(self):
        degs = {self.ring.monomial_degree(e) for e in self._t}
        return len(degs) <= 1

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
        return MultiPoly._raw(self.ring, t)

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
            return MultiPoly._raw(self.ring, {e: v * other for e, v in self._t.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_ring(other)
        t = {}
        for e1, v1 in self._t.items():
            for e2, v2 in other._t.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                t[e] = t.get(e, 0) + v1 * v2
        return MultiPoly._raw(self.ring, t)

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

    def substitute(self, mapping, ring=None):
        """Replace generators by polynomials in a target ring.

        mapping sends names of this ring to MultiPolys over the target ring.
        Names absent from the mapping must exist in the target ring with the
        same degree and pass through unchanged. With ring=None the target is
        this ring (self-substitution).
        """
        target = ring if ring is not None else self.ring
        if mapping:
            some = next(iter(mapping.values()))
            if isinstance(some, MultiPoly) and ring is None:
                target = some.ring
        cache = {}
        names = self.ring.names()
        out = target.zero()
        for exps, v in self._t.items():
            term = target.const(v)
            for name, e in zip(names, exps):
                if not e:
                    continue
                if name not in cache:
                    if name in mapping:
                        val = mapping[name]
                        if isinstance(val, (int, Fraction)):
                            val = target.const(val)
                        if val.ring != target:
                            raise ValueError("substitution value in wrong ring")
                    else:
                        if name not in target:
                            raise ValueError(f"generator {name} missing from target ring")
                        if target.degree_of(name) != self.ring.degree_of(name):
                            raise ValueError(f"generator {name} changes degree")
                        val = target.var(name)
                    cache[name] = val
                term = term * cache[name] ** e
            out = out + term
        return out

    def convert(self, ring):
        """Reinterpret over another ring containing the same-named generators.

        Pure index remapping; only generators actually used need to exist in
        the target (with the same degree), matching substitute({}, ring).
        """
        if ring == self.ring:
            return self
        width = len(ring.gens)
        gens = self.ring.gens
        remap = {}
        out = {}
        for exps, v in self._t.items():
            ne = [0] * width
            for i, e in enumerate(exps):
                if not e:
                    continue
                j = remap.get(i)
                if j is None:
                    name, deg = gens[i]
                    if name not in ring:
                        raise ValueError(f"generator {name} missing from target ring")
                    if ring.degree_of(name) != deg:
                        raise ValueError(f"generator {name} changes degree")
                    j = ring.index(name)
                    remap[i] = j
                ne[j] = e
            key = tuple(ne)
            out[key] = out.get(key, 0) + v
        return MultiPoly._raw(ring, out)

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
        return MultiPoly(self.ring, quot)


def exact_divide(num, den):
    """Exact division for LaurentPoly or MultiPoly operands."""
    return num.exact_divide(den)


def elementary_ring(k, prefix="e"):
    """Ring of elementary generators e1..ek with deg(ei) = 2i."""
    return PolyRing([(f"{prefix}{i}", 2 * i) for i in range(1, k + 1)])


def power_sum_in_e(p, k):
    """The degree-2p power sum written in elementary generators e1..ek.

    Newton's identity, with e_i treated as zero above index k:
    p_n = sum_{i=1..min(n-1,k)} (-1)^(i-1) e_i p_{n-i} + (-1)^(n-1) n e_n.
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


def x_series_ring(sizes, prefix="x"):
    """Ring for a list of alphabets: generators '<prefix><a>.<b>' with deg 2b."""
    gens = []
    for a, size in enumerate(sizes, start=1):
        for b in range(1, size + 1):
            gens.append((f"{prefix}{a}.{b}", 2 * b))
    return PolyRing(gens)


def x_series_component(signs_and_sizes, j):
    """Degree-2j component of prod_a (sum_b e_{a,b})^(s_a) over signed alphabets.

    signs_and_sizes is a list of (sign, size) with sign in {+1, -1}. Each
    alphabet a contributes generators x<a>.1 .. x<a>.<size>. A positive
    alphabet contributes its elementary generators as series components; a
    negative one contributes the inverse series, whose degree-2j piece is
    (-1)^j h_j rewritten in the elementaries.
    """
    if j < 0:
        raise ValueError("component index must be >= 0")
    sizes = [size for _, size in signs_and_sizes]
    ring = x_series_ring(sizes)
    # per-alphabet component lists up to degree j
    comp = []
    for a, (sign, size) in enumerate(signs_and_sizes, start=1):
        evars = [None] + [ring.var(f"x{a}.{b}") if b <= size else ring.zero()
                          for b in range(1, j + 1)]
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if sign == 1:
            cs = [ring.one()] + [evars[b] for b in range(1, j + 1)]
        else:
            # inverse series: c_0 = 1, c_j = -sum_{i=1..j} e_i c_{j-i}
            cs = [ring.one()]
            for b in range(1, j + 1):
                total = ring.zero()
                for i in range(1, b + 1):
                    total = total + evars[i] * cs[b - i]
                cs.append(-total)
        comp.append(cs)
    # convolve the alphabets
    acc = [ring.one()] + [ring.zero()] * j
    for cs in comp:
        nxt = [ring.zero()] * (j + 1)
        for d1 in range(j + 1):
            if acc[d1].is_zero():
                continue
            for d2 in range(j + 1 - d1):
                if cs[d2].is_zero():
                    continue
                nxt[d1 + d2] = nxt[d1 + d2] + acc[d1] * cs[d2]
        acc = nxt
    return acc[j]
