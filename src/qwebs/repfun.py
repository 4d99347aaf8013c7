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

from .qpoly import LaurentPoly, qbinom
from .webs import (
    GlWeight,
    Ladder,
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
    """Wedge multiplication Lambda^a (x) Lambda^b -> Lambda^(a+b)."""
    if a < 0 or b < 0 or a + b > N:
        raise ValueError(f"merge({a}, {b}) does not fit in N={N}")
    src = FockBasis(N, (a, b))
    dst = FockBasis(N, (a + b,))
    entries = {}
    for col, (A, B) in enumerate(src.elements):
        nf = wedge_normal_form(A + B)
        if nf is Zero:
            continue
        coeff, S = nf
        entries[(dst.index((S,)), col)] = coeff
    return QMatrix(dst.dim, src.dim, entries)


def _laurent_nullvector(eqs, nunknowns):
    """One-dimensional nullspace of a small system over Z[q, q^-1].

    eqs is a list of coefficient lists. Fraction-free elimination; asserts
    the nullity is exactly one and returns an unnormalized vector.
    """
    mat = [list(row) for row in eqs]
    pivots = []  # (row, col)
    used_rows = set()
    for col in range(nunknowns):
        sel = None
        for r in range(len(mat)):
            if r not in used_rows and not mat[r][col].is_zero():
                sel = r
                break
        if sel is None:
            continue
        used_rows.add(sel)
        pivots.append((sel, col))
        piv = mat[sel]
        pv = piv[col]
        for r in range(len(mat)):
            if r == sel or mat[r][col].is_zero():
                continue
            f = mat[r][col]
            mat[r] = [pv * mat[r][c] - f * piv[c] for c in range(nunknowns)]
    free = [c for c in range(nunknowns) if c not in {c for _, c in pivots}]
    if len(free) != 1:
        raise ArithmeticError(f"expected a unique intertwiner, nullity {len(free)}")
    fc = free[0]
    vec = [LaurentPoly.zero()] * nunknowns
    prod_all = LaurentPoly.one()
    for r, c in pivots:
        prod_all = prod_all * mat[r][c]
    vec[fc] = prod_all
    for r, c in pivots:
        others = LaurentPoly.one()
        for r2, c2 in pivots:
            if c2 != c:
                others = others * mat[r2][c2]
        vec[c] = -mat[r][fc] * others
    # sanity: every equation vanishes on the vector
    for row in eqs:
        total = LaurentPoly.zero()
        for c in range(nunknowns):
            total = total + row[c] * vec[c]
        if not total.is_zero():
            raise ArithmeticError("nullspace vector fails an equation")
    return vec


@lru_cache(maxsize=None)
def split_matrix(a, b, N):
    """The reverse intertwiner Lambda^(a+b) -> Lambda^a (x) Lambda^b.

    Normalized so that merging straight back multiplies by qbinom(a+b, a).
    The image of the top wedge is solved from the highest-weight equations;
    everything else follows by lowering, one index bump at a time.
    """
    if a < 0 or b < 0 or a + b > N:
        raise ValueError(f"split({a}, {b}) does not fit in N={N}")
    k = a + b
    whole = FockBasis(N, (k,))
    pairs = FockBasis(N, (a, b))
    S0 = tuple(range(1, k + 1))
    unknowns = [(A, tuple(sorted(set(S0) - set(A)))) for A in combinations(S0, a)]
    uidx = {p: i for i, p in enumerate(unknowns)}

    eqs_by_target = {}
    for u, (A, B) in enumerate(unknowns):
        for i in range(1, N):
            movedA = _e_move(i, A)
            if movedA is not None:
                key = (i, (movedA, B))
                row = eqs_by_target.setdefault(key, [LaurentPoly.zero()] * len(unknowns))
                row[u] = row[u] + LaurentPoly.q_power(_kexp(i, B))
            movedB = _e_move(i, B)
            if movedB is not None:
                key = (i, (A, movedB))
                row = eqs_by_target.setdefault(key, [LaurentPoly.zero()] * len(unknowns))
                row[u] = row[u] + LaurentPoly.one()
    nullvec = _laurent_nullvector(list(eqs_by_target.values()), len(unknowns))

    cols = {S0: {p: c for p, c in zip(unknowns, nullvec) if not c.is_zero()}}
    for (S,) in whole.elements:
        if S == S0 or S in cols:
            continue
        ii = None
        for i in range(1, N):
            if i + 1 in S and i not in S:
                ii = i
                break
        prev = tuple(sorted(set(S) - {ii + 1} | {ii}))
        pcol = cols[prev]
        col = {}

        def bump(pair, c):
            col[pair] = col[pair] + c if pair in col else c

        for (A, B), c in pcol.items():
            movedA = _f_move(ii, A)
            if movedA is not None:
                bump((movedA, B), c)
            movedB = _f_move(ii, B)
            if movedB is not None:
                bump((A, movedB), c * LaurentPoly.q_power(-_kexp(ii, A)))
        cols[S] = {p: c for p, c in col.items() if not c.is_zero()}

    # normalize: merging back the top wedge must give qbinom(k, a)
    sigma = LaurentPoly.zero()
    for (A, B), c in cols[S0].items():
        nf = wedge_normal_form(A + B)
        if nf is Zero:
            continue
        coeff, S = nf
        if S == S0:
            sigma = sigma + c * coeff
    if sigma.is_zero():
        raise ArithmeticError("split normalization degenerated")
    target = qbinom(k, a)
    entries = {}
    for S, col in cols.items():
        ci = whole.index((S,))
        for pair, c in col.items():
            entries[(pairs.index(pair), ci)] = (c * target).exact_divide(sigma)
    return QMatrix(pairs.dim, whole.dim, entries)


# -------------------------------------------------------------------- rungs


@lru_cache(maxsize=None)
def _local_rung_cols(ki, kj, sign, a, N):
    """Columns of the one-rung composite on two adjacent uprights.

    Keyed by local pairs (S, T); values are lists of ((S', T'), coeff).
    An E-rung splits a strand of thickness a off the right upright and
    merges it into the left one; an F-rung mirrors this.
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
        sp_cols.setdefault(c, []).append((spb.elements[r], v))

    cols = {}
    left = list(combinations(range(1, N + 1), ki))
    right = list(combinations(range(1, N + 1), kj))
    for S in left:
        for T in right:
            out = {}
            if sign == 1:
                for (A, B2), c1 in sp_cols.get(whole.index((T,)), ()):
                    nf = wedge_normal_form(S + A)
                    if nf is Zero:
                        continue
                    c2, S2 = nf
                    key = (S2, B2)
                    v = c1 * c2
                    out[key] = out[key] + v if key in out else v
            else:
                for (C, A), c1 in sp_cols.get(whole.index((S,)), ()):
                    nf = wedge_normal_form(A + T)
                    if nf is Zero:
                        continue
                    c2, T2 = nf
                    key = (C, T2)
                    v = c1 * c2
                    out[key] = out[key] + v if key in out else v
            cols[(S, T)] = [(p, v) for p, v in out.items() if not v.is_zero()]
    return cols


def _terms_matrix(N, base, top, terms):
    """Matrix of sum(coeff * rungs) over [(coeff, rungs)], all from base to top.

    Each basis vector of the base slice is pushed through every rung list;
    the images fill the columns.
    """
    src = FockBasis(N, base)
    dst = FockBasis(N, top)
    entries = {}
    for ci, elem in enumerate(src.elements):
        for coeff, rungs in terms:
            for new, v in _apply_rungs_to_vector(N, base, rungs, {elem: coeff}).items():
                key = (dst.index(new), ci)
                entries[key] = entries[key] + v if key in entries else v
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


def _apply_rungs_to_vector(N, base, rungs, vec):
    """Push a sparse vector {elem: coeff} through a rung list."""
    k = GlWeight(base)
    for r in rungs:
        i = r.pos - 1
        cols = _local_rung_cols(k[i], k[i + 1], r.sign, r.thickness, N)
        out = {}
        for elem, c in vec.items():
            for (S2, T2), v in cols[(elem[i], elem[i + 1])]:
                new = elem[:i] + (S2, T2) + elem[i + 2:]
                cv = c * v
                out[new] = out[new] + cv if new in out else cv
        vec = {e: c for e, c in out.items() if not c.is_zero()}
        k = apply_rung(k, r, N)
    return vec


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
    vec = _apply_rungs_to_vector(u.N, u.base, u.rungs, {e0: LaurentPoly.one()})
    return vec.get(e0, LaurentPoly.zero())


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
