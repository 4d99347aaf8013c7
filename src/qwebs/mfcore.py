"""Koszul matrix factorizations over alphabet-graded rings.

A web compiles to a tensor product of one-column factorizations whose rows
are difference quotients of a single power sum; the ring variables come in
named alphabets with deg X_j = 2j. Everything downstream works exactly:
potentials are compared as polynomials, variable exclusion substitutes
closed-form solutions, and EXT dimensions come out as honest Laurent
polynomials once a finite quotient is certified.

Degree bookkeeping follows one rule throughout: a row stores the degrees
(degp, degq) it was created with, summing to 2(N+1), and keeps them even if
an entry later collapses to zero. Every shift in the pipeline is the same
quantity s = (degq - degp)/2 read off the row it came from.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count

from ._linalg import fraction_rank
from .qpoly import LaurentPoly, MultiPoly, NonExactDivision, PolyRing, power_sum_in_e
from .webs import Ladder


class IrreducibleToFinite(Exception):
    """EXT did not reduce to a finite-dimensional graded quotient."""


# ------------------------------------------------------------------ rings


class GradedRing:
    """Polynomial ring whose generators come in named alphabets.

    An alphabet of size k contributes variables name.1 .. name.k with
    deg(name.j) = 2j. After exclusions an alphabet may hold a sparse set of
    indices, so internally each alphabet is a tuple of surviving indices.
    Empty alphabets are pruned at construction.
    """

    __slots__ = ("alphabets", "ring")

    def __init__(self, alphabets):
        out = []
        seen = set()
        for name, idx in alphabets:
            name = str(name)
            if name in seen:
                raise ValueError(f"duplicate alphabet {name}")
            seen.add(name)
            if isinstance(idx, int):
                idx = range(1, idx + 1)
            idx = tuple(sorted(int(j) for j in idx))
            if len(set(idx)) != len(idx) or (idx and idx[0] < 1):
                raise ValueError(f"bad index set for alphabet {name}")
            if idx:
                out.append((name, idx))
        self.alphabets = tuple(out)
        self.ring = PolyRing([(f"{n}.{j}", 2 * j) for n, idx in self.alphabets for j in idx])

    def names(self):
        return tuple(n for n, _ in self.alphabets)

    def indices(self, name):
        for n, idx in self.alphabets:
            if n == name:
                return idx
        return ()

    def size(self, name):
        return len(self.indices(name))

    def var(self, name, j):
        return self.ring.var(f"{name}.{j}")

    def without(self, varname):
        alph, j = varname.rsplit(".", 1)
        j = int(j)
        return GradedRing(
            (n, tuple(i for i in idx if not (n == alph and i == j)))
            for n, idx in self.alphabets
        )

    def renamed(self, mapping):
        return GradedRing((mapping.get(n, n), idx) for n, idx in self.alphabets)

    def __eq__(self, other):
        return isinstance(other, GradedRing) and self.alphabets == other.alphabets

    def __hash__(self):
        return hash(self.alphabets)

    def __repr__(self):
        body = ", ".join(f"{n}:{list(idx)}" for n, idx in self.alphabets)
        return f"GradedRing({body})"


# ------------------------------------------------------------------ the MF


class KoszulMF:
    """Tensor of two-term Koszul factorizations, with shifts and a boundary.

    rows hold (p, q, degp, degq); degrees are stored so that rows whose
    entries vanish under substitution still carry their grading. qshift is an
    integer, hshift lives in Z/2, basemodule lists the q-degrees of the free
    module generators the factorization acts on (the empty tuple is the zero
    object), and boundary maps alphabet names to the sign with which their
    power-sum potential is declared.
    """

    __slots__ = ("gr", "rows", "N", "qshift", "hshift", "basemodule", "boundary")

    def __init__(self, gr, rows, N, qshift=0, hshift=0, basemodule=(0,), boundary=None):
        self.gr = gr
        self.N = int(N)
        if self.N < 1:
            raise ValueError("N must be at least 1")
        D = 2 * (self.N + 1)
        packed = []
        for row in rows:
            if len(row) == 2:
                p, q = row
                dp = p.homogeneous_degree()
                dq = q.homogeneous_degree()
                if dp is None and dq is None:
                    raise ValueError("a zero row needs explicit stored degrees")
                if dp is None:
                    dp = D - dq
                if dq is None:
                    dq = D - dp
            else:
                p, q, dp, dq = row
            if p.ring != gr.ring or q.ring != gr.ring:
                raise ValueError("row entries live in the wrong ring")
            for entry, stored in ((p, dp), (q, dq)):
                actual = entry.homogeneous_degree()
                if actual is not None and actual != stored:
                    raise ValueError(f"entry degree {actual} differs from stored {stored}")
            if dp + dq != D:
                raise ValueError(f"row degrees {dp}+{dq} do not sum to {D}")
            packed.append((p, q, int(dp), int(dq)))
        self.rows = tuple(packed)
        self.qshift = int(qshift)
        self.hshift = int(hshift) % 2
        self.basemodule = tuple(sorted(int(d) for d in basemodule))
        b = {}
        for name, sign in (boundary or {}).items():
            sign = int(sign)
            if sign:
                if not gr.indices(name):
                    raise ValueError(f"boundary alphabet {name} not in ring")
                b[name] = sign
        self.boundary = dict(sorted(b.items()))

    def _with(self, **kw):
        args = dict(gr=self.gr, rows=self.rows, N=self.N, qshift=self.qshift,
                    hshift=self.hshift, basemodule=self.basemodule, boundary=self.boundary)
        args.update(kw)
        return KoszulMF(**args)

    def is_zero_object(self):
        return not self.basemodule

    def potential(self):
        W = self.gr.ring.zero()
        for p, q, _, _ in self.rows:
            W = W + p * q
        return W

    def __eq__(self, other):
        if not isinstance(other, KoszulMF):
            return NotImplemented
        return (self.gr, self.rows, self.N, self.qshift, self.hshift,
                self.basemodule, self.boundary) == (
                other.gr, other.rows, other.N, other.qshift, other.hshift,
                other.basemodule, other.boundary)

    def __repr__(self):
        return (f"KoszulMF({len(self.rows)} rows, N={self.N}, "
                f"qshift={self.qshift}, hshift={self.hshift})")


def koszul(gr, p, q, N, **kw):
    """Single-row factorization (p, q) with potential p*q."""
    return KoszulMF(gr, [(p, q)], N, **kw)


def shift_q(mf, s):
    return mf._with(qshift=mf.qshift + int(s))


def shift_h(mf, t=1):
    return mf._with(hshift=(mf.hshift + int(t)) % 2)


def dual(mf):
    """Reverse the arrows: rows (p, q) become (-q, p), shifts negate."""
    rows = tuple((-q, p, dq, dp) for p, q, dp, dq in mf.rows)
    return KoszulMF(
        mf.gr, rows, mf.N,
        qshift=-mf.qshift,
        hshift=mf.hshift,
        basemodule=tuple(-d for d in mf.basemodule),
        boundary={n: -s for n, s in mf.boundary.items()},
    )


def rename_alphabets(mf, mapping):
    """Rename alphabets; variable indices, degrees and row order are kept.

    Relabelling is exact: GradedRing.renamed keeps the order of the
    alphabets and of their indices, so generator i of the renamed ring has
    the degree of generator i of the old one and every row's exponent dict
    means the same monomials there, with no substitution.
    """
    new_names = [mapping.get(n, n) for n in mf.gr.names()]
    if len(set(new_names)) != len(new_names):
        raise ValueError("alphabet rename collides")
    gr = mf.gr.renamed(mapping)
    rows = tuple((MultiPoly._raw(gr.ring, p._t), MultiPoly._raw(gr.ring, q._t), dp, dq)
                 for p, q, dp, dq in mf.rows)
    boundary = {mapping.get(n, n): s for n, s in mf.boundary.items()}
    return KoszulMF(gr, rows, mf.N, qshift=mf.qshift, hshift=mf.hshift,
                    basemodule=mf.basemodule, boundary=boundary)


def tensor(a, b):
    """Tensor product of two factorizations; see tensor_all."""
    return tensor_all((a, b), a.N)


def tensor_all(factors, N):
    """Tensor product of factorizations over the amalgamated ring, in one pass.

    Alphabets with the same name glue, in first-seen order; a name carried
    with different index sets is a collision and raises, as does a factor
    whose N differs. The amalgamated ring is built once and each factor's
    rows are converted into it once. Boundary signs add, so a face shared
    with opposite orientations disappears from the declared boundary.
    """
    alphs = {}
    for f in factors:
        if f.N != N:
            raise ValueError("cannot tensor factorizations with different N")
        for name, idx in f.gr.alphabets:
            if alphs.setdefault(name, idx) != idx:
                raise ValueError(f"alphabet size collision on {name}")
    gr = GradedRing(alphs.items())
    rows = []
    boundary = {}
    qshift = hshift = 0
    base = (0,)
    for f in factors:
        rows.extend((p.convert(gr.ring), q.convert(gr.ring), dp, dq) for p, q, dp, dq in f.rows)
        for name, sign in f.boundary.items():
            boundary[name] = boundary.get(name, 0) + sign
        qshift += f.qshift
        hshift += f.hshift
        base = tuple(d + e for d in base for e in f.basemodule)
    return KoszulMF(gr, rows, N, qshift=qshift, hshift=hshift, basemodule=base,
                    boundary=boundary)


# ------------------------------------------------- the one-column pieces


@lru_cache(maxsize=None)
def _power_sum(p, k):
    return power_sum_in_e(p, k)


def _p_at_slots(gr, N, slots):
    """power_sum_in_e(N+1, k) with the i-th elementary slot set to slots[i-1]."""
    k = len(slots)
    P = _power_sum(N + 1, k)
    mapping = {f"e{i}": slots[i - 1] for i in range(1, k + 1)}
    return P.substitute(mapping, ring=gr.ring)


def _quotient_rows(gr, N, top_slots, bot_slots):
    """Rows of a one-column factorization between two slot systems.

    Row a has q-entry top_a - bot_a and p-entry the difference quotient of
    the power sum between mixed slot evaluations; the potential telescopes to
    P(top) - P(bot).
    """
    k = len(top_slots)
    D = 2 * (N + 1)
    rows = []
    for a in range(1, k + 1):
        hi = _p_at_slots(gr, N, bot_slots[: a - 1] + top_slots[a - 1:])
        lo = _p_at_slots(gr, N, bot_slots[:a] + top_slots[a:])
        qent = top_slots[a - 1] - bot_slots[a - 1]
        pent = (hi - lo).exact_divide(qent)
        rows.append((pent, qent, D - 2 * a, 2 * a))
    return rows


def _convolved(gr, name1, k1, name2, k2, a):
    """Degree-2a component of the product alphabet e(name1) * e(name2)."""
    out = gr.ring.zero()
    for i in range(0, min(a, k1) + 1):
        j = a - i
        if j < 0 or j > k2:
            continue
        t1 = gr.var(name1, i) if i else gr.ring.one()
        t2 = gr.var(name2, j) if j else gr.ring.one()
        out = out + t1 * t2
    return out


@lru_cache(maxsize=None)
def _piece(kind, k1, k2, N):
    """The merge or split piece of thicknesses k1, k2 over the default names.

    A piece depends only on (kind, k1, k2, N) up to the names of its
    alphabets, so each is built once; callers get renamed copies. Top
    alphabets are declared with sign +1, bottom ones with -1.
    """
    k = k1 + k2
    if kind == "merge":
        gr = GradedRing([("top", k), ("bot1", k1), ("bot2", k2)])
        tops = [gr.var("top", j) for j in range(1, k + 1)]
        bots = [_convolved(gr, "bot1", k1, "bot2", k2, a) for a in range(1, k + 1)]
    else:
        gr = GradedRing([("top1", k1), ("top2", k2), ("bot", k)])
        tops = [_convolved(gr, "top1", k1, "top2", k2, a) for a in range(1, k + 1)]
        bots = [gr.var("bot", j) for j in range(1, k + 1)]
    boundary = {n: 1 if n.startswith("top") else -1 for n in gr.names()}
    return KoszulMF(gr, _quotient_rows(gr, N, tops, bots), N,
                    qshift=-k1 * k2 if kind == "merge" else 0, boundary=boundary)


def _named(kind, k1, k2, N, names):
    """The cached piece with its default alphabet names mapped by names.

    Every given name is checked, also one whose strand has thickness zero
    and so is pruned from the ring: a piece built under those names would
    have refused a duplicate.
    """
    seen = set()
    for name in names.values():
        if name in seen:
            raise ValueError(f"duplicate alphabet {name}")
        seen.add(name)
    return rename_alphabets(_piece(kind, k1, k2, N), names)


def mf_edge(k, N, top="top", bot="bot"):
    """Identity strand of thickness k between alphabets bot and top.

    This is the merge of k with 0, the empty alphabet having been pruned.
    """
    return _named("merge", k, 0, N, {"top": top, "bot1": bot})


def mf_merge(k1, k2, N, top="top", bot1="bot1", bot2="bot2"):
    """Join strands of thickness k1 and k2 into one of thickness k1 + k2.

    Carries the q-shift -k1*k2. With either input thickness zero this is
    row-identical to mf_edge, the empty alphabet having been pruned.
    """
    return _named("merge", k1, k2, N, {"top": top, "bot1": bot1, "bot2": bot2})


def mf_split(k1, k2, N, top1="top1", top2="top2", bot="bot"):
    """Break a strand of thickness k1 + k2 into strands k1 and k2. No shift."""
    return _named("split", k1, k2, N, {"top1": top1, "top2": top2, "bot": bot})


# ------------------------------------------------------------- compiling


def compile_web(u):
    """Compile a ladder into one Koszul factorization.

    Boundary alphabets are bot.i and top.i, numbered from 1 on the left and
    pruned when the strand there has thickness zero. Internal alphabets get
    fresh names s1, s2, ... in the order the rung layers create them, so the
    output is deterministic for a given ladder.
    """
    if not isinstance(u, Ladder):
        raise TypeError("compile_web expects a single ladder")
    N, m = u.N, u.m
    k = list(u.base)
    seg = [f"bot.{i + 1}" for i in range(m)]
    fresh = count(1)
    factors = []
    for rung in u.rungs:
        i = rung.pos - 1
        a = rung.thickness
        k1, k2 = k[i], k[i + 1]
        if rung.sign == 1:
            jname = f"s{next(fresh)}"
            rname = f"s{next(fresh)}"
            lname = f"s{next(fresh)}"
            factors.append(mf_split(a, k2 - a, N, top1=jname, top2=rname, bot=seg[i + 1]))
            factors.append(mf_merge(a, k1, N, top=lname, bot1=jname, bot2=seg[i]))
            seg[i], seg[i + 1] = lname, rname
            k[i], k[i + 1] = k1 + a, k2 - a
        else:
            jname = f"s{next(fresh)}"
            lname = f"s{next(fresh)}"
            rname = f"s{next(fresh)}"
            factors.append(mf_split(k1 - a, a, N, top1=lname, top2=jname, bot=seg[i]))
            factors.append(mf_merge(k2, a, N, top=rname, bot1=seg[i + 1], bot2=jname))
            seg[i], seg[i + 1] = lname, rname
            k[i], k[i + 1] = k1 - a, k2 + a
    for i in range(m):
        if k[i]:
            factors.append(mf_edge(k[i], N, top=f"top.{i + 1}", bot=seg[i]))
    return tensor_all(factors, N)


def check_potential(mf):
    """Does the sum of p*q match the declared boundary potential?"""
    declared = mf.gr.ring.zero()
    for name, sign in mf.boundary.items():
        idx = mf.gr.indices(name)
        k = len(idx)
        if idx != tuple(range(1, k + 1)):
            raise ValueError(f"boundary alphabet {name} is not contiguous")
        slots = [mf.gr.var(name, j) for j in range(1, k + 1)]
        declared = declared + sign * _p_at_slots(mf.gr, mf.N, slots)
    return mf.potential() == declared


# ------------------------------------------------------------- exclusion


def _linear_solution(entry, varname):
    """If entry = c*x - g with x absent from g, return the substitution g/c."""
    ring = entry.ring
    i = ring.index(varname)
    n = len(ring.gens)
    unit = tuple(1 if t == i else 0 for t in range(n))
    c = entry.terms().get(unit)
    if not c:
        return None
    rest = {}
    for exps, v in entry.terms().items():
        if exps == unit:
            continue
        if exps[i]:
            return None
        rest[exps] = v
    g = -MultiPoly(ring, rest)
    return g * (Fraction(1) / Fraction(c))


def _zero_object(N):
    return KoszulMF(GradedRing([]), [], N, basemodule=())


def _internal_vars(mf):
    protected = set(mf.boundary)
    return [n for n, _ in mf.gr.ring.gens
            if n.rsplit(".", 1)[0] not in protected]


def _find_linear(cur, internals):
    for r, (p, q, dp, dq) in enumerate(cur.rows):
        for side, entry in (("q", q), ("p", p)):
            for name in internals:
                sol = _linear_solution(entry, name)
                if sol is not None:
                    return (r, side, name, sol, dp, dq)
    return None


def _apply_exclusion(cur, hit):
    r, side, name, sol, dp, dq = hit
    gr = cur.gr.without(name)
    sol = sol.convert(gr.ring)
    rows = []
    for idx, (p, q, rdp, rdq) in enumerate(cur.rows):
        if idx == r:
            continue
        rows.append((p.substitute({name: sol}, ring=gr.ring),
                     q.substitute({name: sol}, ring=gr.ring), rdp, rdq))
    qsh, hsh = cur.qshift, cur.hshift
    if side == "p":
        hsh ^= 1
        qsh += (dq - dp) // 2
    return KoszulMF(gr, rows, cur.N, qshift=qsh, hshift=hsh,
                    basemodule=cur.basemodule, boundary=cur.boundary)


def _absorb_once(cur, internals):
    """Fold a one-sided monic row into the base module.

    A row (0, f) where f = c*x^k + lower x-terms, x internal, c a scalar
    and x absent from every other row presents a summand free of rank k
    over the ring without x, with generators in degrees 0, |x|, ...,
    (k-1)|x|. A row (g, 0) of that shape does the same after a flip.
    Monicity is equivalent to k*|x| being the whole entry degree.
    """
    ring = cur.gr.ring
    for r, (p, q, dp, dq) in enumerate(cur.rows):
        if p.is_zero() == q.is_zero():
            continue
        flip = q.is_zero()
        entry, dd = (p, dp) if flip else (q, dq)
        for name in internals:
            i = ring.index(name)
            k = max((exps[i] for exps in entry.terms()), default=0)
            step = ring.degree_of(name)
            if k == 0 or k * step != dd:
                continue
            if any(f.uses(name)
                   for j, (po, qo, _, _) in enumerate(cur.rows) if j != r
                   for f in (po, qo)):
                continue
            gr = cur.gr.without(name)
            rows = [(po.convert(gr.ring), qo.convert(gr.ring), rdp, rdq)
                    for j, (po, qo, rdp, rdq) in enumerate(cur.rows) if j != r]
            qsh, hsh = cur.qshift, cur.hshift
            if flip:
                hsh ^= 1
                qsh += (dq - dp) // 2
            bm = tuple(sorted(m + j * step
                              for m in cur.basemodule for j in range(k)))
            return KoszulMF(gr, rows, cur.N, qshift=qsh, hshift=hsh,
                            basemodule=bm, boundary=cur.boundary)
    return None


def _rref_once(cur, internals):
    """One Gauss-Jordan sweep over same-degree row groups, paired on both sides.

    Adding lam * (entry of row j) to the same-side entry of row i is an
    isomorphism provided lam * (other entry of row i) is subtracted from
    row j, so the sweep eliminates monomials heavy in internal variables
    while keeping the potential fixed. Returns None when nothing moved.
    """
    ring = cur.gr.ring
    iset = {ring.index(n) for n in internals}
    degs = tuple(deg for _, deg in ring.gens)

    def weight(exps):
        return sum(exps[t] * degs[t] for t in iset)

    rows = [list(row) for row in cur.rows]
    for side in (1, 0):
        groups = {}
        for idx, row in enumerate(rows):
            groups.setdefault((row[2], row[3]), []).append(idx)
        for key in sorted(groups):
            idxs = groups[key]
            if len(idxs) < 2:
                continue
            cols = set()
            for idx in idxs:
                cols.update(rows[idx][side].terms())
            pivoted = set()
            for col in sorted(cols, key=lambda e: (-weight(e), e)):
                piv = next((idx for idx in idxs if idx not in pivoted
                            and rows[idx][side].terms().get(col)), None)
                if piv is None:
                    continue
                pivoted.add(piv)
                c = Fraction(rows[piv][side].terms()[col])
                if c != 1:
                    rows[piv][side] = rows[piv][side] * (Fraction(1) / c)
                    rows[piv][1 - side] = rows[piv][1 - side] * c
                for idx in idxs:
                    if idx == piv:
                        continue
                    lam = Fraction(rows[idx][side].terms().get(col, 0))
                    if not lam:
                        continue
                    rows[idx][side] = rows[idx][side] - rows[piv][side] * lam
                    rows[piv][1 - side] = rows[piv][1 - side] + rows[idx][1 - side] * lam
    rows = tuple(tuple(row) for row in rows)
    if rows == cur.rows:
        return None
    out = KoszulMF(cur.gr, rows, cur.N,
                   qshift=cur.qshift, hshift=cur.hshift,
                   basemodule=cur.basemodule, boundary=cur.boundary)
    if out.potential() != cur.potential():
        raise AssertionError("row operations moved the potential")
    return out


def exclude_variables(mf):
    """Contract internal variables until nothing more moves.

    A q-entry of the form c*x - g with x not in g removes its row and
    substitutes x = g/c everywhere. A p-entry of that form does the same
    after flipping the row, which costs an h-shift and the row's q-shift
    (degq - degp)/2. A nonzero scalar entry anywhere makes the whole
    factorization contractible, returned as the zero object. When no entry
    is linear, a one-sided row monic in an otherwise unused internal
    variable is folded into the base module, and failing that a paired
    row-operation sweep tries to expose new linear entries. Variables of
    declared boundary alphabets are never touched.
    """
    cur = mf
    while True:
        for p, q, _, _ in cur.rows:
            if (p.is_constant() and not p.is_zero()) or (q.is_constant() and not q.is_zero()):
                return _zero_object(cur.N)
        internals = _internal_vars(cur)
        hit = _find_linear(cur, internals)
        if hit is not None:
            cur = _apply_exclusion(cur, hit)
            continue
        nxt = _absorb_once(cur, internals)
        if nxt is None:
            nxt = _rref_once(cur, internals)
        if nxt is None:
            return cur
        cur = nxt


# ----------------------------------------------------------- EXT q-dims


def _monomials_of_degree(degs, d):
    """Exponent tuples e with sum e_i * degs_i = d."""
    if d < 0:
        return
    if not degs:
        if d == 0:
            yield ()
        return
    step = degs[0]
    for e in range(d // step + 1):
        for rest in _monomials_of_degree(degs[1:], d - e * step):
            yield (e,) + rest


def _graded_quotient_dim(ring, fs, d):
    """dim_Q of degree-d part of Q[vars]/(fs), by rank of the relation space."""
    degs = tuple(deg for _, deg in ring.gens)
    basis = list(_monomials_of_degree(degs, d))
    if not basis:
        return 0
    index = {e: i for i, e in enumerate(basis)}
    rel_rows = []
    for f in fs:
        df = f.homogeneous_degree()
        for mono in _monomials_of_degree(degs, d - df):
            vec = [Fraction(0)] * len(basis)
            for exps, v in f.terms().items():
                e = tuple(a + b for a, b in zip(exps, mono))
                vec[index[e]] += Fraction(v)
            rel_rows.append(vec)
    return len(basis) - fraction_rank(rel_rows)


def _certified_hilbert(ring, fs):
    """Hilbert series of Q[vars]/(fs), certified to be a complete intersection.

    The candidate series prod(1 - q^deg f) / prod(1 - q^deg y) must divide
    exactly, match the honestly computed graded dimensions up to its top
    degree T, and the quotient must stay zero on the window just above T.
    Anything else raises IrreducibleToFinite.
    """
    degs = [deg for _, deg in ring.gens]
    if len(fs) != len(degs):
        raise IrreducibleToFinite(
            f"{len(fs)} equations against {len(degs)} variables")
    if not degs:
        return LaurentPoly.one()
    dfs = [f.homogeneous_degree() for f in fs]
    num = LaurentPoly.one()
    for df in dfs:
        num = num * (LaurentPoly.one() - LaurentPoly.q_power(df))
    den = LaurentPoly.one()
    for dy in degs:
        den = den * (LaurentPoly.one() - LaurentPoly.q_power(dy))
    try:
        expected = num.exact_divide(den)
    except NonExactDivision:
        raise IrreducibleToFinite("candidate Hilbert series is not polynomial")
    T = sum(dfs) - sum(degs)
    if T < 0 or not expected.has_nonneg_coeffs():
        raise IrreducibleToFinite("candidate Hilbert series is not effective")
    for d in range(0, T + max(degs) + 1, 2):
        dim = _graded_quotient_dim(ring, fs, d)
        want = expected.coeff(d) if d <= T else 0
        if dim != want:
            raise IrreducibleToFinite(
                f"graded dimension {dim} at degree {d}, expected {want}")
    return expected


def ext_qdim(a, b):
    """Graded dimensions of the EXT space between two compiled webs.

    Returns a pair of Laurent polynomials, one per Z/2 homological degree.
    Both inputs must carry the same declared boundary. The first argument
    is contracted down to its boundary alphabets before taking the dual;
    dualizing first and contracting later is not the same operation, it
    picks up one h-shift and one q-shift per contracted row. The dual is
    then glued onto the second argument and the glued factorization is
    excluded down to a finite quotient. IrreducibleToFinite signals that
    no finite answer exists along this route.
    """
    if a.N != b.N:
        raise ValueError("different N")
    if a.boundary != b.boundary:
        raise ValueError("boundaries do not match")
    a = exclude_variables(a)
    b = exclude_variables(b)
    if a.is_zero_object() or b.is_zero_object():
        return (LaurentPoly.zero(), LaurentPoly.zero())
    leftover = sorted(n for n in a.gr.names() if n not in a.boundary)
    if leftover:
        raise IrreducibleToFinite(
            "internal alphabets survive contraction: " + ", ".join(leftover))
    rb = rename_alphabets(b, {n: f"R.{n}" for n in b.gr.names() if n not in b.boundary})
    glued = tensor(dual(a), rb)
    if glued.boundary:
        raise ValueError("gluing left an open boundary")
    red = exclude_variables(glued)
    if red.is_zero_object():
        return (LaurentPoly.zero(), LaurentPoly.zero())

    qsh, hsh = red.qshift, red.hshift
    fs = []
    doublers = []
    for p, q, dp, dq in red.rows:
        pz, qz = p.is_zero(), q.is_zero()
        if pz and qz:
            doublers.append((dq - dp) // 2)
        elif pz:
            fs.append(q)
        elif qz:
            hsh ^= 1
            qsh += (dq - dp) // 2
            fs.append(p)
        else:
            raise IrreducibleToFinite("a row kept both entries nonzero")

    hilbert = _certified_hilbert(red.gr.ring, fs)
    h0, h1 = hilbert, LaurentPoly.zero()
    for s in doublers:
        qs = LaurentPoly.q_power(s)
        h0, h1 = h0 + qs * h1, h1 + qs * h0
    scale = LaurentPoly.q_power(qsh) * sum(
        (LaurentPoly.q_power(d) for d in red.basemodule), LaurentPoly.zero())
    h0, h1 = scale * h0, scale * h1
    if hsh:
        h0, h1 = h1, h0
    return (h0, h1)


# ------------------------------------------------------------------ dump


def dump_mf(mf):
    """Deterministic text form: ring, rows as 'p ; q', then the shifts."""
    lines = [f"N: {mf.N}", "ring:"]
    for name, idx in mf.gr.alphabets:
        for j in idx:
            lines.append(f"  {name}.{j}: {2 * j} [{name}]")
    lines.append("rows:")
    for p, q, dp, dq in mf.rows:
        lines.append(f"  {p} ; {q}")
    lines.append(f"qshift: {mf.qshift}")
    lines.append(f"hshift: {mf.hshift}")
    lines.append("basemodule: [" + ", ".join(str(d) for d in mf.basemodule) + "]")
    bnd = " ".join(f"{n}:{s:+d}" for n, s in mf.boundary.items())
    lines.append(f"boundary: {bnd}" if bnd else "boundary:")
    return "\n".join(lines) + "\n"
