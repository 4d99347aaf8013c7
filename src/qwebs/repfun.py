"""The representation functor: webs as maps between quantum exterior powers.

An upright of thickness k carries the k-th quantum exterior power of the
basic N-dimensional module; a slice weight carries their tensor product.
Merges multiply wedge words, splits are the (unique up to scale) reverse
intertwiners, and rungs compose one split with one merge through a strand
of the rung's thickness. Evaluating every rung of a ladder bottom to top
gives a matrix over Z[q, q^-1], and closed ladders evaluate to scalars.

The quantum wedge sorting convention lives in WEDGE_FLIP; see CONVENTIONS.md
for why that exponent and not its bar image.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from .qpoly import LaurentPoly
from .webs import (
    GlWeight,
    WebLinComb,
    Zero,
    apply_rung,
    compose,
    d_norm,
    reflect,
)

# coefficient picked up when one out-of-order pair of wedge factors is sorted:
# x_j ^ x_i = -q^-1 x_i ^ x_j for i < j
WEDGE_FLIP = LaurentPoly({-1: -1})


def wedge_normal_form(word):
    """Sort a wedge word. Returns (coefficient, sorted tuple) or Zero.

    A repeated index collapses the word to Zero; otherwise each inversion
    contributes one WEDGE_FLIP factor.
    """
    word = tuple(word)
    if len(set(word)) != len(word):
        return Zero
    inv = 0
    for a in range(len(word)):
        for b in range(a + 1, len(word)):
            if word[a] > word[b]:
                inv += 1
    return WEDGE_FLIP ** inv, tuple(sorted(word))


class FockBasis:
    """Ordered basis of Lambda^{k_1} (x) ... (x) Lambda^{k_m} inside (C^N_q)-land.

    Elements are tuples of ascending index tuples, one per factor, listed in
    lexicographic order.
    """

    __slots__ = ("N", "factors", "elements", "_index")

    def __init__(self, N, factors):
        factors = tuple(int(k) for k in factors)
        if N < 2:
            raise ValueError("need N >= 2")
        for k in factors:
            if not 0 <= k <= N:
                raise ValueError(f"factor thickness {k} outside [0, {N}]")
        self.N = N
        self.factors = factors
        per = [list(combinations(range(1, N + 1), k)) for k in factors]
        self.elements = list(product(*per))
        self._index = {e: i for i, e in enumerate(self.elements)}

    @property
    def dim(self):
        return len(self.elements)

    def index(self, elem):
        return self._index[tuple(elem)]

    def __eq__(self, other):
        return isinstance(other, FockBasis) and (self.N, self.factors) == (other.N, other.factors)

    def __hash__(self):
        return hash((self.N, self.factors))

    def __repr__(self):
        return f"FockBasis(N={self.N}, factors={self.factors})"


class QMatrix:
    """Sparse matrix over Z[q, q^-1]; zero entries are never stored."""

    __slots__ = ("nrows", "ncols", "_e")

    def __init__(self, nrows, ncols, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        e = {}
        if entries:
            for (r, c), v in entries.items():
                if isinstance(v, int):
                    v = LaurentPoly.const(v)
                if not (0 <= r < nrows and 0 <= c < ncols):
                    raise IndexError((r, c))
                if not v.is_zero():
                    e[(r, c)] = v
        self._e = e

    @staticmethod
    def identity(n):
        one = LaurentPoly.one()
        return QMatrix(n, n, {(i, i): one for i in range(n)})

    @staticmethod
    def zero(nrows, ncols):
        return QMatrix(nrows, ncols)

    def entry(self, r, c):
        return self._e.get((r, c), LaurentPoly.zero())

    def entries(self):
        return dict(self._e)

    def is_zero(self):
        return not self._e

    def __add__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        e = dict(self._e)
        for rc, v in other._e.items():
            e[rc] = e[rc] + v if rc in e else v
        return QMatrix(self.nrows, self.ncols, e)

    def __neg__(self):
        return QMatrix(self.nrows, self.ncols, {rc: -v for rc, v in self._e.items()})

    def __sub__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self + (-other)

    def scaled(self, scalar):
        if isinstance(scalar, int):
            scalar = LaurentPoly.const(scalar)
        return QMatrix(self.nrows, self.ncols, {rc: v * scalar for rc, v in self._e.items()})

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scaled(other)
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.compose(other)

    def __rmul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scaled(other)
        return NotImplemented

    __matmul__ = __mul__

    def compose(self, other):
        """self applied after other."""
        if self.ncols != other.nrows:
            raise ValueError(f"cannot compose {self.nrows}x{self.ncols} with {other.nrows}x{other.ncols}")
        bycol = {}
        for (r, c), v in other._e.items():
            bycol.setdefault(r, []).append((c, v))
        e = {}
        for (r, k), v in self._e.items():
            for c, w in bycol.get(k, ()):
                rc = (r, c)
                prod_ = v * w
                e[rc] = e[rc] + prod_ if rc in e else prod_
        return QMatrix(self.nrows, other.ncols, e)

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self._e == other._e

    def __repr__(self):
        return f"QMatrix({self.nrows}x{self.ncols}, {len(self._e)} entries)"


# ------------------------------------------------------- single factor moves


def _e_move(i, T):
    """E_i on a wedge basis subset: i+1 -> i, or None."""
    if i + 1 in T and i not in T:
        return tuple(sorted(set(T) - {i + 1} | {i}))
    return None


def _f_move(i, T):
    if i in T and i + 1 not in T:
        return tuple(sorted(set(T) - {i} | {i + 1}))
    return None


def _kexp(i, T):
    return (1 if i in T else 0) - (1 if i + 1 in T else 0)


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


# ------------------------------------------------------------ merge and split


@lru_cache(maxsize=None)
def merge_matrix(a, b, N):
    """Wedge multiplication Lambda^a (x) Lambda^b -> Lambda^(a+b).

    Only disjoint pairs (A, B) survive, so each column comes from a subset
    S of size a+b and a choice of A inside it. Column indices follow the
    FockBasis(N, (a, b)) order: A's position times the number of B's, plus
    B's position.
    """
    if a < 0 or b < 0 or a + b > N:
        raise ValueError(f"merge({a}, {b}) does not fit in N={N}")
    ia, ib, iw = ({T: i for i, T in enumerate(combinations(range(1, N + 1), k))}
                  for k in (a, b, a + b))
    entries = {}
    for S, row in iw.items():
        for A in combinations(S, a):
            B = tuple(x for x in S if x not in A)
            coeff, _ = wedge_normal_form(A + B)
            entries[(row, ia[A] * len(ib) + ib[B])] = coeff
    return QMatrix(len(iw), len(ia) * len(ib), entries)


@lru_cache(maxsize=None)
def split_matrix(a, b, N):
    """The reverse intertwiner Lambda^(a+b) -> Lambda^a (x) Lambda^b: q^(ab) merge^T.

    Lambda^(a+b) occurs once in Lambda^a (x) Lambda^b, so the intertwiner is
    unique up to scale. The sum over splittings of q^(-2 inv) is
    q^(-ab) [a+b; a], so q^(ab) is the scale at which merging back gives
    qbinom(a+b, a).
    """
    if a < 0 or b < 0 or a + b > N:
        raise ValueError(f"split({a}, {b}) does not fit in N={N}")
    m = merge_matrix(a, b, N)
    scale = LaurentPoly.q_power(a * b)
    return QMatrix(m.ncols, m.nrows, {(c, r): v * scale for (r, c), v in m.entries().items()})


# -------------------------------------------------------------------- rungs


def _monomial(p):
    """(e, sign) of a signed monomial sign * q^e; raises on anything else."""
    c = p.coeffs()
    if len(c) == 1:
        ((e, sign),) = c.items()
        if sign in (1, -1):
            return e, sign
    raise ValueError(f"{p} is not a signed monomial")


def _put(out, key, c1, c2):
    """Store split entry c1 = (e, sign) times wedge coefficient c2 at key."""
    if key in out:
        raise ValueError(f"rung entry at {key} is a sum, not a signed monomial")
    e2, s2 = _monomial(c2)
    out[key] = (c1[0] + e2, c1[1] * s2)


@lru_cache(maxsize=None)
def _local_rung_cols(ki, kj, sign, a, N):
    """Columns of the one-rung composite on two adjacent uprights.

    Keyed by local pairs (S, T); values are lists of (S', T', e, +-1), one
    per nonzero entry +-q^e. An E-rung splits a strand of thickness a off
    the right upright and merges it into the left one; an F-rung mirrors
    this. The strand is A = T \\ T' (E) or S \\ S' (F), so each entry is one
    split entry times one wedge sign: a signed monomial, which is checked.
    """
    if sign == 1:
        lo, hi = ki + a, kj - a
        if not (0 <= hi and lo <= N):
            raise ValueError("rung does not fit")
        sp = split_matrix(a, kj - a, N)
        spb = FockBasis(N, (a, kj - a))
        whole = FockBasis(N, (kj,))
    else:
        lo, hi = ki - a, kj + a
        if not (0 <= lo and hi <= N):
            raise ValueError("rung does not fit")
        sp = split_matrix(ki - a, a, N)
        spb = FockBasis(N, (ki - a, a))
        whole = FockBasis(N, (ki,))
    sp_cols = {}
    for (r, c), v in sp.entries().items():
        sp_cols.setdefault(c, []).append((spb.elements[r], _monomial(v)))

    cols = {}
    left = list(combinations(range(1, N + 1), ki))
    right = list(combinations(range(1, N + 1), kj))
    for S in left:
        for T in right:
            out = {}
            if sign == 1:
                for (A, B2), c1 in sp_cols.get(whole.index((T,)), ()):
                    nf = wedge_normal_form(S + A)
                    if nf is not Zero:
                        _put(out, (nf[1], B2), c1, nf[0])
            else:
                for (C, A), c1 in sp_cols.get(whole.index((S,)), ()):
                    nf = wedge_normal_form(A + T)
                    if nf is not Zero:
                        _put(out, (C, nf[1]), c1, nf[0])
            cols[(S, T)] = [(S2, T2, e, s) for (S2, T2), (e, s) in out.items()]
    return cols


def _push(N, base, rungs, vec):
    """Push sparse columns {(col, elem): {e: coeff}} through a rung list.

    Every local rung entry is +-q^e, so a rung only shifts exponents and adds
    integers; the slice weight moves once per rung for all columns at once.
    """
    k = base
    for r in rungs:
        i = r.pos - 1
        cols = _local_rung_cols(k[i], k[i + 1], r.sign, r.thickness, N)
        out = {}
        for (ci, elem), poly in vec.items():
            head, tail = elem[:i], elem[i + 2:]
            for S2, T2, e, s in cols[elem[i:i + 2]]:
                key = (ci, head + (S2, T2) + tail)
                acc = out.get(key)
                if acc is None:
                    acc = out[key] = {}
                for x, v in poly.items():
                    x += e
                    acc[x] = acc.get(x, 0) + s * v
        vec = {}
        for key, acc in out.items():
            acc = {x: v for x, v in acc.items() if v}
            if acc:
                vec[key] = acc
        k = apply_rung(k, r, N)
    return vec


def _terms_matrix(N, base, top, terms):
    """Matrix of sum(coeff * rungs) over [(coeff, rungs)], all from base to top.

    All basis vectors of the base slice are pushed through each rung list in
    one pass; each term's coefficient is multiplied in once, at the end.
    """
    src = FockBasis(N, base)
    dst = FockBasis(N, top)
    cols = {(ci, elem): {0: 1} for ci, elem in enumerate(src.elements)}
    row = dst._index
    acc = {}
    for coeff, rungs in terms:
        cc = coeff.coeffs()
        for (ci, elem), poly in _push(N, base, rungs, cols).items():
            key = (row[elem], ci)
            tgt = acc.get(key)
            if tgt is None:
                tgt = acc[key] = {}
            for x, v in poly.items():
                for ce, cv in cc.items():
                    tgt[x + ce] = tgt.get(x + ce, 0) + v * cv
    entries = {}
    for key, tgt in acc.items():
        tgt = {x: v for x, v in tgt.items() if v}
        if tgt:
            entries[key] = LaurentPoly._raw(tgt)
    return QMatrix(dst.dim, src.dim, entries)


def rung_matrix(rung, k, N):
    """Matrix of one rung on the full slice basis at weight k."""
    k = GlWeight(k)
    k2 = apply_rung(k, rung, N)
    if k2 is Zero:
        raise ValueError(f"rung {rung} does not act on {tuple(k)}")
    return _terms_matrix(N, k, k2, [(LaurentPoly.one(), (rung,))])


def ladder_matrix(u):
    """Evaluate a ladder to a matrix, bottom rung first."""
    if u is Zero:
        raise ValueError("Zero has no preferred matrix; handle it upstream")
    return _terms_matrix(u.N, u.base, u.top, [(LaurentPoly.one(), u.rungs)])


def lincomb_matrix(w):
    """Matrix of a WebLinComb."""
    return _terms_matrix(w.N, w.base, w.top, [(c, lad.rungs) for lad, c in w.items()])


def _is_highest(k, N):
    k = tuple(k)
    total = sum(k)
    if total % N:
        return False
    ell = total // N
    return k == (N,) * ell + (0,) * (len(k) - ell)


def ev_closed(u):
    """Scalar value of a closed ladder (base = top = the highest weight)."""
    if isinstance(u, WebLinComb):
        total = LaurentPoly.zero()
        for lad, c in u.items():
            total = total + c * ev_closed(lad)
        return total
    if not _is_highest(u.base, u.N):
        raise ValueError(f"base {tuple(u.base)} is not the highest weight pattern")
    if tuple(u.top) != tuple(u.base):
        raise ValueError("ladder is not closed")
    e0 = FockBasis(u.N, u.base).elements[0]
    vec = _push(u.N, u.base, u.rungs, {(0, e0): {0: 1}})
    return LaurentPoly._raw(vec.get((0, e0), {}))


def web_form(u, v):
    """The q-sesquilinear pairing of two webs with common boundary.

    Both arguments run from the highest weight pattern up to the same top
    weight k; the value is q^d(k) times the closed evaluation of (u flipped)
    stacked under v. Antilinear in u, linear in v.
    """
    if u is Zero or v is Zero:
        return LaurentPoly.zero()
    uc = u if isinstance(u, WebLinComb) else WebLinComb.of(u)
    vc = v if isinstance(v, WebLinComb) else WebLinComb.of(v)
    if (uc.N, uc.m) != (vc.N, vc.m) or tuple(uc.base) != tuple(vc.base) or tuple(uc.top) != tuple(vc.top):
        raise ValueError("web_form needs a common boundary")
    if not _is_highest(uc.base, uc.N):
        raise ValueError("webs must grow from the highest weight pattern")
    d = d_norm(uc.top, uc.N)
    shift = LaurentPoly.q_power(d)
    total = LaurentPoly.zero()
    for lu, cu in uc.items():
        ru = reflect(lu)
        for lv, cv in vc.items():
            val = ev_closed(compose(ru, lv))
            total = total + cu.bar() * cv * shift * val
    return total
