"""Ladder webs: the diagram combinatorics.

A ladder lives on m vertical uprights. Each upright segment carries a
thickness in [0, N]; a rung moves thickness between neighboring uprights.
Rungs are recorded bottom to top. An E-rung at position i moves thickness a
from upright i+1 to upright i, an F-rung moves it the other way. Any
construction that would push a segment label outside [0, N] collapses to the
Zero marker rather than raising, matching how out-of-range weights act on
the representation side.

Weights come in two flavors: gl weights (the tuple of thicknesses on a
horizontal slice) and sl weights (consecutive differences). phi translates
an sl weight plus a total thickness into a gl weight when one exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qpoly import LaurentPoly


class WeightMismatch(ValueError):
    """Raised when composing ladders whose boundary weights do not agree."""


class NonIntegral(ValueError):
    """Raised when a normalization exponent fails to be an integer."""


class _Marker:
    """A falsy named singleton. Star marks an sl weight with no gl lift, Zero
    the zero web (a construction left the admissible range); both are values,
    not errors."""

    __slots__ = ("_name",)

    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name

    def __bool__(self):
        return False

    def __reduce__(self):
        # copies and pickles resolve to the module's one instance
        return self._name


Star = _Marker("Star")
Zero = _Marker("Zero")


class GlWeight(tuple):
    """Tuple of segment thicknesses across one horizontal slice."""

    def __new__(cls, entries):
        return super().__new__(cls, (int(e) for e in entries))

    def valid(self, N):
        return all(0 <= e <= N for e in self)

    def sl(self):
        return SlWeight(self[i] - self[i + 1] for i in range(len(self) - 1))

    def total(self):
        return sum(self)

    def __repr__(self):
        return f"GlWeight{tuple(self)!r}"


class SlWeight(tuple):
    """Integer tuple of consecutive thickness differences."""

    def __new__(cls, entries):
        return super().__new__(cls, (int(e) for e in entries))

    def __repr__(self):
        return f"SlWeight{tuple(self)!r}"


def phi(lmbda, m, d, N):
    """Lift an sl weight to the gl weight with m parts summing to d.

    The lift satisfies k_i - k_{i+1} = lambda_i. Returns Star when no lift
    with integer entries in [0, N] exists.
    """
    lmbda = tuple(int(x) for x in lmbda)
    if len(lmbda) != m - 1:
        raise ValueError(f"sl weight for m={m} needs {m - 1} entries")
    tails = [0] * m
    for i in range(m - 2, -1, -1):
        tails[i] = tails[i + 1] + lmbda[i]
    rem = d - sum(tails)
    if rem % m:
        return Star
    km = rem // m
    k = GlWeight(km + t for t in tails)
    if not k.valid(N):
        return Star
    return k


@dataclass(frozen=True)
class Rung:
    """One horizontal rung: sign +1 is E (pull left), -1 is F (push right)."""

    pos: int
    sign: int
    thickness: int

    def __post_init__(self):
        if self.pos < 1:
            raise ValueError("rung position starts at 1")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.thickness < 1:
            raise ValueError("rung thickness must be >= 1")

    def flipped(self):
        return Rung(self.pos, -self.sign, self.thickness)

    def __str__(self):
        letter = "E" if self.sign == 1 else "F"
        return f"{letter}{self.pos}^{self.thickness}"

    @staticmethod
    def parse(text):
        text = text.strip()
        if not text or text[0] not in "EF":
            raise ValueError(f"bad rung {text!r}")
        sign = 1 if text[0] == "E" else -1
        body = text[1:]
        pos_s, sep, th_s = body.partition("^")
        if not sep:
            raise ValueError(f"bad rung {text!r}")
        return Rung(int(pos_s), sign, int(th_s))


def apply_rung(k, rung, N):
    """Image weight of a rung, or Zero when it leaves [0, N]."""
    i = rung.pos - 1
    if i + 1 >= len(k):
        raise ValueError(f"rung position {rung.pos} needs m >= {rung.pos + 1}")
    a = rung.thickness * rung.sign
    new = list(k)
    new[i] += a
    new[i + 1] -= a
    if not (0 <= new[i] <= N and 0 <= new[i + 1] <= N):
        return Zero
    return GlWeight(new)


def slices(N, base, rungs):
    """Slice weights of a rung list, base first, or Zero once one leaves [0, N].

    The one walk of a rung list; a Ladder keeps what it returns.
    """
    k = base if isinstance(base, GlWeight) else GlWeight(base)
    if not k.valid(N):
        return Zero
    out = [k]
    for r in rungs:
        k = apply_rung(k, r, N)
        if k is Zero:
            return Zero
        out.append(k)
    return tuple(out)


@dataclass(frozen=True)
class Ladder:
    """A ladder web: base weight plus rungs listed bottom to top."""

    N: int
    m: int
    base: GlWeight
    rungs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "base", GlWeight(self.base))
        object.__setattr__(self, "rungs", tuple(self.rungs))
        if self.N < 2:
            raise ValueError("need N >= 2")
        if len(self.base) != self.m:
            raise ValueError("base weight length != m")
        if not self.base.valid(self.N):
            raise ValueError(f"base weight {tuple(self.base)} leaves [0, {self.N}]")
        ks = slices(self.N, self.base, self.rungs)
        if ks is Zero:
            raise ValueError("intermediate weight leaves [0, N]")
        # kept outside the fields, so equality, hashing and repr ignore it
        object.__setattr__(self, "_slices", ks)

    def weights(self):
        """All horizontal slice weights, base first; length len(rungs)+1."""
        return list(self._slices)

    @property
    def top(self):
        return self._slices[-1]

    def with_rung(self, rung):
        """Ladder extended by one rung on top, or Zero."""
        return make_ladder(self.N, self.m, self.base, self.rungs + (rung,))

    def sort_key(self):
        return (len(self.rungs), tuple((r.pos, r.sign, r.thickness) for r in self.rungs), tuple(self.base))

    def __str__(self):
        base = ",".join(str(x) for x in self.base)
        rungs = ", ".join(str(r) for r in self.rungs)
        return f"N={self.N} m={self.m} base=[{base}] rungs=[{rungs}]"

    @staticmethod
    def parse(text):
        import re

        m = re.match(
            r"\s*N=(\d+)\s+m=(\d+)\s+base=\[([^\]]*)\]\s+rungs=\[([^\]]*)\]\s*$",
            text,
        )
        if not m:
            raise ValueError(f"bad ladder text {text!r}")
        n_s, m_s, base_s, rungs_s = m.groups()
        base = [int(x) for x in base_s.split(",") if x.strip()]
        rungs = [Rung.parse(p) for p in rungs_s.split(",")] if rungs_s.strip() else []
        return Ladder(int(n_s), int(m_s), GlWeight(base), tuple(rungs))


def make_ladder(N, m, base, rungs):
    """Ladder or Zero, without raising on weights outside [0, N]; N < 2 raises."""
    if N < 2:
        raise ValueError("need N >= 2")
    if slices(N, base, rungs) is Zero:
        return Zero
    return Ladder(N, m, base, tuple(rungs))


def ladder_from_sequence(seq, lmbda, m, d, N):
    """Ladder for a divided-power sequence acting on the weight lmbda.

    seq lists (sign, position, thickness) as the factors of an operator
    product, so the rightmost entry acts first and becomes the bottom rung.
    N < 2 raises; Zero when the weight has no gl lift or a rung leaves [0, N].
    """
    if N < 2:
        raise ValueError("need N >= 2")
    base = phi(lmbda, m, d, N)
    if base is Star:
        return Zero
    rungs = [Rung(pos, sign, a) for sign, pos, a in reversed(list(seq))]
    return make_ladder(N, m, base, rungs)


def compose(upper, lower):
    """Stack upper on top of lower. Boundary weights must match."""
    if upper is Zero or lower is Zero:
        return Zero
    if upper.N != lower.N or upper.m != lower.m:
        raise WeightMismatch("ladders live on different boards")
    if tuple(upper.base) != tuple(lower.top):
        raise WeightMismatch(f"top {tuple(lower.top)} != base {tuple(upper.base)}")
    return Ladder(lower.N, lower.m, lower.base, lower.rungs + upper.rungs)


def reflect(u):
    """Flip a ladder upside down: reverse the rung list and swap E with F."""
    if u is Zero:
        return Zero
    rungs = tuple(r.flipped() for r in reversed(u.rungs))
    return Ladder(u.N, u.m, u.top, rungs)


def enumerate_weights(m, d, N):
    """All gl weights with m parts in [0, N] summing to d, lex descending."""
    if N < 2:
        raise ValueError("need N >= 2")
    if m < 0 or d < 0:
        raise ValueError(f"need m >= 0 and d >= 0, got m={m} d={d}")
    # one part at a time, largest first, keeping only prefixes the remaining
    # parts can complete, so every level stays in lex descending order
    level = [((), d)]
    for slots in range(m - 1, -1, -1):
        level = [(prefix + (v,), rem - v) for prefix, rem in level
                 for v in range(min(N, rem), max(0, rem - N * slots) - 1, -1)]
    return [GlWeight(prefix) for prefix, rem in level if rem == 0]


def d_norm(k, N):
    """Normalization exponent of a boundary weight.

    Half of N(N-1)l minus the sum of k_i(k_i - 1), where l = sum(k)/N.
    Raises NonIntegral when the thickness total is not a multiple of N.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    k = GlWeight(k)
    total = k.total()
    if total % N:
        raise NonIntegral(f"sum {total} is not a multiple of N={N}")
    ell = total // N
    num = N * (N - 1) * ell - sum(x * (x - 1) for x in k)
    if num % 2:
        raise NonIntegral(f"d({tuple(k)}) is not an integer")
    return num // 2


def highest_weight_ladder(N, m, ell):
    """The identity ladder on the highest weight (N^ell, 0^(m-ell))."""
    if not 0 <= ell <= m:
        raise ValueError("need 0 <= ell <= m")
    return Ladder(N, m, GlWeight([N] * ell + [0] * (m - ell)))


class WebLinComb:
    """Z[q, q^-1]-linear combination of ladders with a common boundary."""

    __slots__ = ("N", "m", "base", "top", "_terms")

    def __init__(self, N, m, base, top, terms=None):
        self.N = N
        self.m = m
        self.base = GlWeight(base)
        self.top = GlWeight(top)
        t = {}
        if terms:
            for lad, c in terms.items():
                if isinstance(c, int):
                    c = LaurentPoly.const(c)
                if c.is_zero():
                    continue
                if lad.N != N or lad.m != m:
                    raise WeightMismatch("ladder on a different board")
                if tuple(lad.base) != tuple(self.base) or tuple(lad.top) != tuple(self.top):
                    raise WeightMismatch("ladder boundary differs from the combination's")
                t[lad] = c
        self._terms = t

    @staticmethod
    def of(ladder, coeff=1):
        if isinstance(coeff, int):
            coeff = LaurentPoly.const(coeff)
        return WebLinComb(ladder.N, ladder.m, ladder.base, ladder.top, {ladder: coeff})

    def items(self):
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def coeff(self, ladder):
        return self._terms.get(ladder, LaurentPoly.zero())

    def is_zero(self):
        return not self._terms

    def _like(self, terms):
        return WebLinComb(self.N, self.m, self.base, self.top, terms)

    def __add__(self, other):
        if not isinstance(other, WebLinComb):
            return NotImplemented
        if (self.N, self.m, tuple(self.base), tuple(self.top)) != (
            other.N, other.m, tuple(other.base), tuple(other.top)):
            raise WeightMismatch("cannot add combinations with different boundaries")
        t = dict(self._terms)
        for lad, c in other._terms.items():
            t[lad] = t[lad] + c if lad in t else c
        return self._like(t)

    def __neg__(self):
        return self._like({lad: -c for lad, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, WebLinComb):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        if isinstance(scalar, int):
            scalar = LaurentPoly.const(scalar)
        if not isinstance(scalar, LaurentPoly):
            return NotImplemented
        return self._like({lad: c * scalar for lad, c in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, WebLinComb):
            return NotImplemented
        return (self.N, self.m, tuple(self.base), tuple(self.top)) == (
            other.N, other.m, tuple(other.base), tuple(other.top)) and self._terms == other._terms

    def __repr__(self):
        if not self._terms:
            return "WebLinComb(0)"
        parts = [f"({c}) * [{lad}]" for lad, c in self.items()]
        return " + ".join(parts)
