"""The representation functor: webs as maps between quantum exterior powers.

An upright of thickness k carries the k-th quantum exterior power of the
basic N-dimensional module; a slice weight carries their tensor product.
Merges multiply wedge words, splits are the (unique up to scale) reverse
intertwiners, and rungs compose one split with one merge through a strand
of the rung's thickness. Evaluating every rung of a ladder bottom to top
gives a matrix over Z[q, q^-1], and closed ladders evaluate to scalars.
Each merge and split is checked once against the U_q(gl_N) action; when
every piece of two ladder sums passes, they are compared only on the basis
vectors that generate their source as a module.

The quantum wedge sorting convention lives in WEDGE_FLIP; see CONVENTIONS.md
for why that exponent and not its bar image.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations, product

from .qpoly import LaurentPoly
from .webs import WebLinComb, Zero, d_norm, slices

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
    return WEDGE_FLIP ** _inversions(word), tuple(sorted(word))


def _inversions(word):
    return sum(x > y for i, x in enumerate(word) for y in word[i + 1:])


def _basis(N, factors):
    """A slice's basis: one ascending index tuple per factor, in lexicographic order."""
    return list(product(*(combinations(range(1, N + 1), k) for k in factors)))


class FockBasis:
    """Ordered basis of Lambda^{k_1} (x) ... (x) Lambda^{k_m}: _basis, indexed."""

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
        self.elements = _basis(N, factors)
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

    @classmethod
    def _raw(cls, nrows, ncols, entries):
        """Trusted constructor: entries are nonzero LaurentPolys inside the shape."""
        m = object.__new__(cls)
        m.nrows, m.ncols, m._e = nrows, ncols, entries
        return m

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
        return tuple(i if x == i + 1 else x for x in T)
    return None


def _f_move(i, T):
    if i in T and i + 1 not in T:
        return tuple(i + 1 if x == i else x for x in T)
    return None


def _kexp(i, T):
    return (1 if i in T else 0) - (1 if i + 1 in T else 0)


def _gen_terms(i, gen, elem):
    """E_i or F_i on one basis element of a tensor product: [(elem', e)], each q^e elem'.

    Coproducts: E acts in one factor with K on every later factor; F acts in
    one factor with K^-1 on every earlier factor.
    """
    out = []
    for j, T in enumerate(elem):
        if gen == "E":
            moved = _e_move(i, T)
            if moved is not None:
                out.append((elem[:j] + (moved,) + elem[j + 1:],
                            sum(_kexp(i, U) for U in elem[j + 1:])))
        else:
            moved = _f_move(i, T)
            if moved is not None:
                out.append((elem[:j] + (moved,) + elem[j + 1:],
                            -sum(_kexp(i, U) for U in elem[:j])))
    return out


def _add_term(acc, key, e, s):
    poly = acc.setdefault(key, {})
    poly[e] = poly.get(e, 0) + s


def _commutes(N, cols):
    """Whether a map commutes with every E_i, F_i and K_i of U_q(gl_N).

    cols maps a source basis element to its image as a list of (target
    element, e, +-1), one per term +-q^e; elements missing from cols map to
    zero. Source and target must have the same total thickness, as every
    merge and split does. f(g x) - g(f x) is built term by term, so no
    matrix is formed. The E_i check visits only the x that hold i+1, the
    F_i check only those that hold i, and of those only the ones with a
    nonzero image or that g moves onto one. These checks alone force f to
    keep every index multiset, so it commutes with each K_i too, and with
    E_i and F_i on the x they skip; see CONVENTIONS.md.
    """
    for i in range(1, N):
        for gen, undo, held in (("E", _f_move, i + 1), ("F", _e_move, i)):
            todo = {x for x in cols if any(held in T for T in x)}
            for y in cols:
                for j, T in enumerate(y):
                    moved = undo(i, T)
                    if moved is not None:
                        todo.add(y[:j] + (moved,) + y[j + 1:])
            for x in todo:
                diff = {}
                for y, t in _gen_terms(i, gen, x):
                    for z, e, s in cols.get(y, ()):
                        _add_term(diff, z, e + t, s)
                for y, e, s in cols.get(x, ()):
                    for z, t in _gen_terms(i, gen, y):
                        _add_term(diff, z, e + t, -s)
                if any(c for poly in diff.values() for c in poly.values()):
                    return False
    return True


# ------------------------------------------------------------ merge and split


def _monomial(p):
    """(e, sign) of a signed monomial sign * q^e; raises on anything else."""
    c = p.coeffs()
    if len(c) == 1:
        ((e, sign),) = c.items()
        if sign in (1, -1):
            return e, sign
    raise ValueError(f"{p} is not a signed monomial")


class _Piece:
    """Merge and split of the wedge factors (a, b) in signed-monomial form.

    merge and split map basis elements to lists of (element, e, +-1): merge
    is keyed by pairs (A, B), split by (S,). certified, worked out on first
    use, says that both commute with every E_i, F_i and K_i; rungs are
    built from these very entries, so a ladder whose pieces are all
    certified is an intertwiner.
    """

    def __init__(self, N, merge, split):
        self.N, self.merge, self.split = N, merge, split

    @cached_property
    def certified(self):
        return _commutes(self.N, self.merge) and _commutes(self.N, self.split)


@lru_cache(maxsize=None)
def _piece(a, b, N):
    """Merge Lambda^a (x) Lambda^b -> Lambda^(a+b) and its reverse split.

    Only disjoint pairs (A, B) multiply to nonzero, so both come from one
    loop over the subsets S of size a+b and the choices of A inside S, with
    A ^ B = WEDGE_FLIP^inv S = +-q^e S: merge sends (A, B) to +-q^e S, split
    sends S to the sum of +-q^(e+ab) (A, B). Lambda^(a+b) occurs once in
    Lambda^a (x) Lambda^b, so the split is unique up to scale; the sum over
    splittings of q^(-2 inv) is q^(-ab) [a+b; a], so q^(ab) is the scale at
    which merging back gives qbinom(a+b, a).
    """
    flip, sign = _monomial(WEDGE_FLIP)
    merge, split = {}, {}
    for S in combinations(range(1, N + 1), a + b):
        col = split[(S,)] = []
        for A in combinations(S, a):
            B = tuple(x for x in S if x not in A)
            inv = _inversions(A + B)
            e, s = flip * inv, sign ** inv
            merge[(A, B)] = [((S,), e, s)]
            col.append(((A, B), e + a * b, s))
    return _Piece(N, merge, split)


def _piece_matrix(cols, src, dst):
    """QMatrix between FockBases src and dst of columns {src elem: [(dst elem, e, +-1)]}."""
    return QMatrix._raw(dst.dim, src.dim, {(dst.index(y), src.index(x)): LaurentPoly._raw({e: s})
                                           for x, col in cols.items() for y, e, s in col})


@lru_cache(maxsize=None)
def merge_matrix(a, b, N):
    """Wedge multiplication Lambda^a (x) Lambda^b -> Lambda^(a+b): _piece(a, b, N).merge."""
    if a < 0 or b < 0 or a + b > N:
        raise ValueError(f"merge({a}, {b}) does not fit in N={N}")
    return _piece_matrix(_piece(a, b, N).merge, FockBasis(N, (a, b)), FockBasis(N, (a + b,)))


@lru_cache(maxsize=None)
def split_matrix(a, b, N):
    """The reverse intertwiner Lambda^(a+b) -> Lambda^a (x) Lambda^b: _piece(a, b, N).split."""
    if a < 0 or b < 0 or a + b > N:
        raise ValueError(f"split({a}, {b}) does not fit in N={N}")
    return _piece_matrix(_piece(a, b, N).split, FockBasis(N, (a + b,)), FockBasis(N, (a, b)))


# -------------------------------------------------------------------- rungs


def _rung_pieces(ki, kj, sign, a, N):
    """(split, merge) factor pairs of one rung on uprights (ki, kj).

    An E-rung is (merge(ki, a) (x) id)(id (x) split(a, kj - a)): it splits a
    strand of thickness a off the right upright and merges it into the left
    one. An F-rung mirrors this with split(ki - a, a) and merge(a, kj).
    """
    if sign == 1:
        sp, mg = (a, kj - a), (ki, a)
    else:
        sp, mg = (ki - a, a), (a, kj)
    if min(sp + mg) < 0 or sum(mg) > N:
        raise ValueError("rung does not fit")
    return sp, mg


def _certified(N, ks, rungs):
    """Whether every merge and split piece of a rung list with slices ks is certified."""
    for k, r in zip(ks, rungs):
        i = r.pos - 1
        sp, mg = _rung_pieces(k[i], k[i + 1], r.sign, r.thickness, N)
        if not (_piece(*sp, N).certified and _piece(*mg, N).certified):
            return False
    return True


class _RungCols(dict):
    """Columns of a one-rung composite, each built on its first lookup.

    Keyed by local pairs (S, T); values are lists of (S', T', e, +-1), one
    per nonzero entry +-q^e, composed from the cached merge and split
    entries of _piece. The strand is A = T \\ T' (E) or S \\ S' (F), so
    each entry is one split entry times one merge entry: a signed monomial,
    which is checked. A lookup that finds its column is a plain dict lookup.
    """

    __slots__ = ("sign", "split", "merge")

    def __init__(self, sign, split, merge):
        self.sign, self.split, self.merge = sign, split, merge

    def __missing__(self, key):
        S, T = key
        out = {}
        if self.sign == 1:
            for (A, B2), e1, s1 in self.split.get((T,), ()):
                for (S2,), e2, s2 in self.merge.get((S, A), ()):
                    out.setdefault((S2, B2), []).append((e1 + e2, s1 * s2))
        else:
            for (C, A), e1, s1 in self.split.get((S,), ()):
                for (T2,), e2, s2 in self.merge.get((A, T), ()):
                    out.setdefault((C, T2), []).append((e1 + e2, s1 * s2))
        col = []
        for (S2, T2), terms in out.items():
            if len(terms) > 1:
                raise ValueError(f"rung entry at {(S2, T2)} is a sum, not a signed monomial")
            col.append((S2, T2, *terms[0]))
        self[key] = col
        return col


@lru_cache(maxsize=None)
def _local_rung_cols(ki, kj, sign, a, N):
    """The _RungCols of one rung on two adjacent uprights (ki, kj).

    Its columns are built as pushes reach them: a relations sweep at N = 6
    reaches 9,061 of the 19,032 pairs (S, T) of its rungs.
    """
    sp, mg = _rung_pieces(ki, kj, sign, a, N)
    return _RungCols(sign, _piece(*sp, N).split, _piece(*mg, N).merge)


def _push(N, ks, rungs, vec):
    """Push sparse columns {(col, elem): {e: coeff}} up rungs with slices ks.

    Every local rung entry is +-q^e, so a rung only shifts exponents and adds
    integers; one slice serves all columns at once.
    """
    for k, r in zip(ks, rungs):
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
    return vec


def _images(N, terms, elems):
    """{(row elem, col): {e: c}} of sum(coeff * rungs) over [(coeff, ks, rungs)],
    rungs with slices ks, on the basis elements elems (col is the position).

    All columns are pushed through each rung list in one pass; a term's
    coefficient is multiplied in once, at the end, and not at all when it
    is 1.
    """
    cols = {(ci, elem): {0: 1} for ci, elem in enumerate(elems)}
    acc = {}
    for coeff, ks, rungs in terms:
        cc = coeff.coeffs()
        unit = cc == {0: 1}
        for (ci, elem), poly in _push(N, ks, rungs, cols).items():
            tgt = acc.get((elem, ci))
            if tgt is None:
                tgt = acc[(elem, ci)] = {}
            if unit:
                for x, v in poly.items():
                    tgt[x] = tgt.get(x, 0) + v
                continue
            for x, v in poly.items():
                for ce, cv in cc.items():
                    tgt[x + ce] = tgt.get(x + ce, 0) + v * cv
    out = {}
    for key, tgt in acc.items():
        tgt = {x: v for x, v in tgt.items() if v}
        if tgt:
            out[key] = tgt
    return out


def _generating_elements(N, base):
    """Basis elements of the slice whose first factor of nonzero thickness k
    is x_1 ^ ... ^ x_k, the highest weight vector of that factor.

    With V that factor and W the ones after it, V (x) W is generated as a
    U_q(gl_N)-module by v_lambda (x) W: Delta(F) = F (x) 1 + K^-1 (x) F gives
    F v (x) w = F(v (x) w) - K^-1 v (x) F w, and V = U^- v_lambda. So two
    intertwiners that agree on these elements are equal.
    """
    j = next((j for j, k in enumerate(base) if k), len(base))
    head = ((),) * j
    if j == len(base):
        return [head]
    first = (tuple(range(1, base[j] + 1)),)
    return [head + first + tail for tail in _basis(N, base[j + 1:])]


def _maps_agree(N, base, lhs, rhs):
    """Whether two lists of (coeff, ks, rungs) from base give the same matrix.

    When every merge and split piece on both sides is certified, both are
    intertwiners and only the generating columns are pushed; otherwise all
    columns are, and the verdict is that of the full matrices.
    """
    if all(_certified(N, ks, rungs) for _, ks, rungs in lhs + rhs):
        elems = _generating_elements(N, base)
    else:
        elems = _basis(N, base)
    return _images(N, lhs, elems) == _images(N, rhs, elems)


def _terms_matrix(N, base, top, terms):
    """Matrix of sum(coeff * rungs) over [(coeff, ks, rungs)], all from base to top."""
    src = FockBasis(N, base)
    dst = FockBasis(N, top)
    row = dst._index
    entries = {(row[elem], ci): LaurentPoly._raw(poly)
               for (elem, ci), poly in _images(N, terms, src.elements).items()}
    return QMatrix._raw(dst.dim, src.dim, entries)


def rung_matrix(rung, k, N):
    """Matrix of one rung on the full slice basis at weight k."""
    ks = slices(N, k, (rung,))
    if ks is Zero:
        raise ValueError(f"rung {rung} does not act on {tuple(k)}")
    return _terms_matrix(N, *ks, [(LaurentPoly.one(), ks, (rung,))])


def _web_terms(w):
    """[(coeff, ks, rungs)] of a ladder or a WebLinComb, along each ladder's own slices."""
    if isinstance(w, WebLinComb):
        return [(c, lad.weights(), lad.rungs) for lad, c in w.items()]
    return [(LaurentPoly.one(), w.weights(), w.rungs)]


def ladder_matrix(u):
    """Evaluate a ladder to a matrix, bottom rung first."""
    if u is Zero:
        raise ValueError("Zero has no preferred matrix; handle it upstream")
    return _terms_matrix(u.N, u.base, u.top, _web_terms(u))


def lincomb_matrix(w):
    """Matrix of a WebLinComb."""
    return _terms_matrix(w.N, w.base, w.top, _web_terms(w))


def _is_highest(k, N):
    ell, rest = divmod(sum(k), N)
    return not rest and tuple(k) == (N,) * ell + (0,) * (len(k) - ell)


def _closed_value(N, terms):
    """Value of closed terms [(coeff, ks, rungs)] on the highest weight ks[0]:
    the coefficient of that slice's one basis vector in one _images call."""
    if not terms:
        return LaurentPoly.zero()
    (x,) = _generating_elements(N, terms[0][1][0])
    return LaurentPoly._raw(_images(N, terms, [x]).get((x, 0), {}))


def ev_closed(u):
    """Scalar value of a closed ladder or WebLinComb (base = top = the highest
    weight); Zero is 0. Its terms, along each ladder's own slices, make one
    _images call. The boundary is checked also when there are no terms."""
    if u is Zero:
        return LaurentPoly.zero()
    if not _is_highest(u.base, u.N):
        raise ValueError(f"base {tuple(u.base)} is not the highest weight pattern")
    if tuple(u.top) != tuple(u.base):
        raise ValueError("ladder is not closed")
    return _closed_value(u.N, _web_terms(u))


def web_form(u, v):
    """The q-sesquilinear pairing of two webs with common boundary.

    Both arguments run from the highest weight pattern up to the same top
    weight k; the value is q^d(k) times the closed evaluation of (u flipped)
    stacked under v. Antilinear in u, linear in v. Each pair of terms is
    one term of a single _images call: up v's rungs, then down u's,
    reversed with E and F swapped, along the two ladders' own slices, with
    coefficient bar(cu) * cv; q^d(k) is multiplied in once.
    """
    if u is Zero or v is Zero:
        return LaurentPoly.zero()
    if (u.N, u.m) != (v.N, v.m) or tuple(u.base) != tuple(v.base) or tuple(u.top) != tuple(v.top):
        raise ValueError("web_form needs a common boundary")
    if not _is_highest(u.base, u.N):
        raise ValueError("webs must grow from the highest weight pattern")
    downs = [(cu.bar(), ks[-2::-1], tuple(r.flipped() for r in reversed(rungs)))
             for cu, ks, rungs in _web_terms(u)]
    terms = [(cu * cv, kv + ku, rv + ru) for cv, kv, rv in _web_terms(v) for cu, ku, ru in downs]
    return LaurentPoly.q_power(d_norm(u.top, u.N)) * _closed_value(u.N, terms)
