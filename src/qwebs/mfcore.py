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

import weakref
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, lcm
from operator import add

from ._linalg import fraction_rank
from .qpoly import (LaurentPoly, MultiPoly, NonExactDivision, PolyRing, _mul_into, _normal,
                    power_sum_in_e)
from .webs import Ladder


class IrreducibleToFinite(Exception):
    """EXT did not reduce to a finite-dimensional graded quotient.

    When the readout stops at a row that kept both entries nonzero, rows are
    the residual rows and variables the names of the generators they use;
    otherwise both are empty.
    """

    def __init__(self, message, rows=(), variables=()):
        super().__init__(message)
        self.rows = tuple(rows)
        self.variables = tuple(variables)


# ------------------------------------------------------------------ rings


class GradedRing:
    """Polynomial ring whose generators come in named alphabets.

    An alphabet of size k contributes variables name.1 .. name.k with
    deg(name.j) = 2j; no other code makes these names. After exclusions an
    alphabet may hold a sparse set of indices, so internally each alphabet is
    a tuple of surviving indices. Empty alphabets are pruned at construction.
    The ring's slots run through the alphabets in order; owners[i] is slot i's.
    """

    __slots__ = ("alphabets", "ring", "owners")

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
        self.owners = tuple(n for n, idx in self.alphabets for _ in idx)

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

    __slots__ = ("gr", "rows", "N", "qshift", "hshift", "basemodule", "boundary", "_hash",
                 "__weakref__")

    def __init__(self, gr, rows, N, qshift=0, hshift=0, basemodule=(0,), boundary=None):
        self._hash = None
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

    @classmethod
    def _raw(cls, gr, rows, N, qshift, hshift, basemodule, boundary):
        """Internal fast path: the fields are already in the form __init__
        leaves them in, and every row would pass its checks."""
        self = object.__new__(cls)
        self.gr, self.rows, self.N = gr, tuple(rows), N
        self.qshift, self.hshift = qshift, hshift
        self.basemodule, self.boundary = basemodule, boundary
        self._hash = None
        return self

    def is_zero_object(self):
        return not self.basemodule

    def potential(self):
        """The sum of p*q over the rows, accumulated in one exponent dict."""
        W = {}
        for p, q, _, _ in self.rows:
            _mul_into(W, p._t, q._t)
        return MultiPoly._raw(self.gr.ring, _normal(W))

    def __eq__(self, other):
        if not isinstance(other, KoszulMF):
            return NotImplemented
        return (self.gr, self.rows, self.N, self.qshift, self.hshift,
                self.basemodule, self.boundary) == (
                other.gr, other.rows, other.N, other.qshift, other.hshift,
                other.basemodule, other.boundary)

    def __hash__(self):
        # computed once, as the fields are not changed after construction;
        # boundary equality ignores insertion order, so it hashes as a set
        if self._hash is None:
            self._hash = hash((self.gr, self.rows, self.N, self.qshift, self.hshift,
                               self.basemodule, frozenset(self.boundary.items())))
        return self._hash

    def __repr__(self):
        return (f"KoszulMF({len(self.rows)} rows, N={self.N}, "
                f"qshift={self.qshift}, hshift={self.hshift})")


def dual(mf):
    """Dual over the ring of the declared boundary alphabets.

    Rows (p, q) become (-q, p) and shifts negate; each internal variable x
    adds one h-shift and deg x - N - 1 to the q-shift (CONVENTIONS.md).
    """
    rows = tuple((-q, p, dq, dp) for p, q, dp, dq in mf.rows)
    internals = _internal_slots(mf)
    return KoszulMF._raw(
        mf.gr, rows, mf.N,
        -mf.qshift + sum(mf.gr.ring.gens[i][1] - mf.N - 1 for i in internals),
        (mf.hshift + len(internals)) % 2,
        tuple(sorted(-d for d in mf.basemodule)),
        {n: -s for n, s in mf.boundary.items()},
    )


def rename_alphabets(mf, mapping):
    """Rename alphabets; variable indices, degrees and row order are kept.

    This is _glue on one factor: each row is relabelled, not substituted.
    Names in mapping that mf does not carry are ignored.
    """
    names = mf.gr.names()
    return _glue([(mf, {n: m for n, m in mapping.items() if n in names})], mf.N)


def tensor(a, b):
    """Tensor product of two factorizations; see tensor_all."""
    return tensor_all((a, b), a.N)


def tensor_all(factors, N):
    """Tensor product of factorizations over the amalgamated ring, in one pass.

    Alphabets with the same name glue, in first-seen order; a name carried
    with different index sets is a collision and raises, as does a factor
    whose N differs. Each row is relabelled once, straight into the
    amalgamated ring, and checked once. Boundary signs add, so a face shared
    with opposite orientations disappears from the declared boundary.
    """
    return _glue([(f, {}) for f in factors], N)


def _index_map(alphabets, renames, gr):
    """The slot map of MultiPoly._moved from the generators of alphabets,
    named through renames, into gr, which carries each with the same indices:
    for each slot of gr, its place among them, or their count where none."""
    pos = [gr.owners.index(renames.get(n, n)) + k for n, idx in alphabets for k in range(len(idx))]
    pick = [len(pos)] * len(gr.owners)
    for i, j in enumerate(pos):
        pick[j] = i
    return pick


def _glue(placed, N):
    """Tensor product of (factorization, alphabet renames) pairs.

    Renaming is relabelling: generator j of alphabet n becomes generator j
    of renames.get(n, n), with the same degree. The amalgamated ring is built
    once, each factor's rows are moved into it through one slot map,
    and the result is checked once, by KoszulMF. Raises ValueError on a
    factor whose N differs, on one whose renames send two names to one, and
    on an alphabet carried with different index sets.
    """
    alphs = {}
    for f, renames in placed:
        if f.N != N:
            raise ValueError("cannot tensor factorizations with different N")
        # every given name counts, also one whose alphabet was pruned as empty
        seen = set()
        for name in {**{n: n for n in f.gr.names()}, **renames}.values():
            if name in seen:
                raise ValueError(f"duplicate alphabet {name}")
            seen.add(name)
        for name, idx in f.gr.alphabets:
            name = renames.get(name, name)
            if alphs.setdefault(name, idx) != idx:
                raise ValueError(f"alphabet size collision on {name}")
    gr = GradedRing(alphs.items())
    ring = gr.ring
    rows = []
    boundary = {}
    qshift = hshift = 0
    base = (0,)
    for f, renames in placed:
        pick = _index_map(f.gr.alphabets, renames, gr)
        rows.extend((p._moved(ring, pick), q._moved(ring, pick), dp, dq)
                    for p, q, dp, dq in f.rows)
        for name, sign in f.boundary.items():
            name = renames.get(name, name)
            boundary[name] = boundary.get(name, 0) + sign
        qshift += f.qshift
        hshift += f.hshift
        base = tuple(d + e for d in base for e in f.basemodule)
    return KoszulMF(gr, rows, N, qshift=qshift, hshift=hshift, basemodule=base,
                    boundary=boundary)


# ------------------------------------------------- the one-column pieces


def _p_at_slots(gr, N, slots):
    """power_sum_in_e(N+1, k) moved by slot into gr, with e_i set to slots[i-1]."""
    k = len(slots)
    return power_sum_in_e(N + 1, k)._moved(gr.ring, [k] * len(gr.owners), dict(enumerate(slots)))


def _quotient_rows(gr, N, top_slots, bot_slots):
    """Rows of a one-column factorization between two slot systems.

    Row a has q-entry top_a - bot_a and p-entry the difference quotient of
    the power sum between the mixed slot evaluations P(bot[:a-1] + top[a-1:])
    and P(bot[:a] + top[a:]); the potential telescopes to P(top) - P(bot).
    Neighbouring rows share an evaluation, so k slots take k + 1 of them.
    """
    k = len(top_slots)
    if not k:
        return []
    D = 2 * (N + 1)
    mixed = [_p_at_slots(gr, N, bot_slots[:a] + top_slots[a:]) for a in range(k + 1)]
    rows = []
    for a in range(1, k + 1):
        qent = top_slots[a - 1] - bot_slots[a - 1]
        pent = (mixed[a - 1] - mixed[a]).exact_divide(qent)
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


def mf_edge(k, N, top="top", bot="bot"):
    """Identity strand of thickness k between alphabets bot and top.

    This is the merge of k with 0, the empty alphabet having been pruned.
    """
    return _glue([(_piece("merge", k, 0, N), {"top": top, "bot1": bot})], N)


def mf_merge(k1, k2, N, top="top", bot1="bot1", bot2="bot2"):
    """Join strands of thickness k1 and k2 into one of thickness k1 + k2.

    Carries the q-shift -k1*k2. With either input thickness zero this is
    row-identical to mf_edge, the empty alphabet having been pruned.
    """
    return _glue([(_piece("merge", k1, k2, N), {"top": top, "bot1": bot1, "bot2": bot2})], N)


def mf_split(k1, k2, N, top1="top1", top2="top2", bot="bot"):
    """Break a strand of thickness k1 + k2 into strands k1 and k2. No shift."""
    return _glue([(_piece("split", k1, k2, N), {"top1": top1, "top2": top2, "bot": bot})], N)


# ------------------------------------------------------------- compiling


# every compiled web that is still alive, by its ladder; see compile_web
_compiled_webs = weakref.WeakValueDictionary()


def compile_web(u):
    """Compile a ladder into one Koszul factorization.

    Boundary alphabets are bot.i and top.i, numbered from 1 on the left and
    pruned when the strand there has thickness zero. Internal alphabets get
    fresh names s1, s2, ... in the order the rung layers create them, so the
    output is deterministic for a given ladder. Each cached merge or split
    piece is relabelled once, straight into the web's ring, and every row is
    checked once, on the way out.

    Compiled webs are shared: while one is alive, compiling an equal ladder
    returns that same object, so a result must be treated as read-only. The
    table behind this holds its webs weakly and keeps none of them alive.
    """
    if not isinstance(u, Ladder):
        raise TypeError("compile_web expects a single ladder")
    mf = _compiled_webs.get(u)
    if mf is None:
        mf = _compiled_webs[u] = _build_web(u)
    return mf


def _build_web(u):
    """The factorization of ladder u, built anew; see compile_web."""
    N, m = u.N, u.m
    seg = [f"bot.{i + 1}" for i in range(m)]
    fresh = count(1)
    placed = []

    def place(kind, k1, k2, **names):
        placed.append((_piece(kind, k1, k2, N), names))
    for rung, k in zip(u.rungs, u.weights()):
        i = rung.pos - 1
        a = rung.thickness
        k1, k2 = k[i], k[i + 1]
        if rung.sign == 1:
            jname = f"s{next(fresh)}"
            rname = f"s{next(fresh)}"
            lname = f"s{next(fresh)}"
            place("split", a, k2 - a, top1=jname, top2=rname, bot=seg[i + 1])
            place("merge", k1, a, top=lname, bot1=seg[i], bot2=jname)
        else:
            jname = f"s{next(fresh)}"
            lname = f"s{next(fresh)}"
            rname = f"s{next(fresh)}"
            place("split", k1 - a, a, top1=lname, top2=jname, bot=seg[i])
            place("merge", a, k2, top=rname, bot1=jname, bot2=seg[i + 1])
        seg[i], seg[i + 1] = lname, rname
    for i, ki in enumerate(u.top):
        if ki:
            place("merge", ki, 0, top=f"top.{i + 1}", bot1=seg[i])
    return _glue(placed, N)


def check_potential(mf):
    """Does the sum of p*q match the declared boundary potential? Each
    alphabet's power sum is the cached one over e1..ek, relabelled."""
    ring = mf.gr.ring
    declared = ring.zero()
    for name, sign in mf.boundary.items():
        idx = mf.gr.indices(name)
        if idx != tuple(range(1, len(idx) + 1)):
            raise ValueError(f"boundary alphabet {name} is not contiguous")
        pick = _index_map([(name, idx)], {}, mf.gr)
        declared = declared + sign * power_sum_in_e(mf.N + 1, len(idx))._moved(ring, pick)
    return mf.potential() == declared


# ------------------------------------------------------------- exclusion


def _linear_solution(entry, i, c):
    """For entry = c*x - g, x generator i and absent from g, the value g/c."""
    scale = Fraction(-1, c)
    return MultiPoly._raw(entry.ring,
                          _normal({e: v * scale for e, v in entry._t.items() if not e[i]}))


def _zero_object(N):
    return KoszulMF(GradedRing([]), [], N, basemodule=())


def _internal_slots(mf):
    """The slots, in ring order, of the generators outside the boundary alphabets."""
    return [i for i, n in enumerate(mf.gr.owners) if n not in mf.boundary]


def _flipped(qshift, hshift, dp, dq):
    """Shifts after flipping a row (p, q) of degrees (dp, dq) to (q, p)."""
    return qshift + (dq - dp) // 2, hshift ^ 1


def _eliminate(cur, r, i, flip, sol=None, basemodule=None):
    """Drop row r, which presents the internal generator in slot i.

    The ring stays cur's: each entry that uses slot i has sol substituted,
    and every other entry is kept as it is. flip says the row's p-entry, not
    its q-entry, presents the generator, which costs the row's flip shifts.
    basemodule, when given, replaces cur's and must be sorted. A sol that is
    zero or homogeneous of the generator's degree keeps every row's stored
    degrees, so that is the one check; ValueError otherwise.
    """
    ring = cur.gr.ring
    rows = [row for j, row in enumerate(cur.rows) if j != r]
    if sol is not None:
        name, deg = ring.gens[i]
        if sol.homogeneous_degree() not in (None, deg):
            raise ValueError(f"substitution for {name} changes its degree")
        # slot i reads the 0 that _moved appends, and sol is multiplied in
        pick = [*range(len(ring))]
        pick[i] = len(ring)
        subst = {i: sol}

        def put(f):
            return f._moved(ring, pick, subst) if any(e[i] for e in f._t) else f
        rows = [(put(p), put(q), dp, dq) for p, q, dp, dq in rows]
    qsh, hsh = cur.qshift, cur.hshift
    if flip:
        _, _, dp, dq = cur.rows[r]
        qsh, hsh = _flipped(qsh, hsh, dp, dq)
    return KoszulMF._raw(cur.gr, rows, cur.N, qsh, hsh,
                         cur.basemodule if basemodule is None else basemodule, cur.boundary)


def _dropped(cur, gone):
    """cur over the ring without the generators in slots gone, which no entry
    uses: that ring is built once, and each entry moves into it once."""
    if not gone:
        return cur
    slot = count()  # the ring's slots run through the alphabets in order
    gr = GradedRing([(n, [j for j in idx if next(slot) not in gone])
                     for n, idx in cur.gr.alphabets])
    pick = [i for i in range(len(cur.gr.ring)) if i not in gone]
    rows = [(p._moved(gr.ring, pick), q._moved(gr.ring, pick), dp, dq)
            for p, q, dp, dq in cur.rows]
    return KoszulMF._raw(gr, rows, cur.N, cur.qshift, cur.hshift,
                         cur.basemodule, cur.boundary)


def _linear_once(cur, slots):
    """Eliminate the first entry c*x - g: rows in order, q before p, then x.

    Each entry is read once: the candidates are the live internal slots that
    carry a bare c*x term and that no other term of the entry uses. Returns
    the result and the slot of x, or None.
    """
    for r, (p, q, _, _) in enumerate(cur.rows):
        for flip, entry in ((False, q), (True, p)):
            units, used = {}, set()
            for exps, v in entry._t.items():
                if sum(exps) == 1:
                    units[exps.index(1)] = v
                else:
                    used.update(t for t, e in enumerate(exps) if e)
            for i in slots:
                if i in units and i not in used:
                    sol = _linear_solution(entry, i, units[i])
                    return _eliminate(cur, r, i, flip, sol=sol), i
    return None


def _absorb_once(cur, slots):
    """Fold a one-sided monic row into the base module.

    A row (0, f) where f = c*x^k + lower x-terms, x internal, c a scalar
    and x absent from every other row presents a summand free of rank k
    over the ring without x, with generators in degrees 0, |x|, ...,
    (k-1)|x|. A row (g, 0) of that shape does the same after a flip.
    Monicity is equivalent to k*|x| being the whole entry degree. Returns
    the result and the slot of x, or None.
    """
    gens = cur.gr.ring.gens
    for r, (p, q, dp, dq) in enumerate(cur.rows):
        if p.is_zero() == q.is_zero():
            continue
        flip = q.is_zero()
        entry, dd = (p, dp) if flip else (q, dq)
        for i in slots:
            k = max((exps[i] for exps in entry._t), default=0)
            step = gens[i][1]
            if k == 0 or k * step != dd:
                continue
            if any(e[i] for j, (po, qo, _, _) in enumerate(cur.rows) if j != r
                   for f in (po, qo) for e in f._t):
                continue
            bm = tuple(sorted(m + j * step for m in cur.basemodule for j in range(k)))
            return _eliminate(cur, r, i, flip, basemodule=bm), i
    return None


def _rref_once(cur, slots):
    """One Gauss-Jordan sweep over same-degree row groups, paired on both sides.

    Adding lam * (entry of row j) to the same-side entry of row i is an
    isomorphism provided lam * (other entry of row i) is subtracted from
    row j, so the sweep eliminates monomials heavy in internal variables
    while keeping the potential fixed. Returns None when nothing moved.
    """
    degs = tuple(deg for _, deg in cur.gr.ring.gens)

    def weight(exps):
        return sum(exps[t] * degs[t] for t in slots)

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
                cols.update(rows[idx][side]._t)
            pivoted = set()
            for col in sorted(cols, key=lambda e: (-weight(e), e)):
                piv = next((idx for idx in idxs if idx not in pivoted
                            and rows[idx][side]._t.get(col)), None)
                if piv is None:
                    continue
                pivoted.add(piv)
                c = Fraction(rows[piv][side]._t[col])
                if c != 1:
                    rows[piv][side] = rows[piv][side] * (Fraction(1) / c)
                    rows[piv][1 - side] = rows[piv][1 - side] * c
                for idx in idxs:
                    if idx == piv:
                        continue
                    lam = Fraction(rows[idx][side]._t.get(col, 0))
                    if not lam:
                        continue
                    rows[idx][side] = rows[idx][side] - rows[piv][side] * lam
                    rows[piv][1 - side] = rows[piv][1 - side] + rows[idx][1 - side] * lam
    rows = tuple(tuple(row) for row in rows)
    if rows == cur.rows:
        return None
    # same-degree row operations keep every row's ring and stored degrees
    out = KoszulMF._raw(cur.gr, rows, cur.N, cur.qshift, cur.hshift,
                        cur.basemodule, cur.boundary)
    if out.potential() != cur.potential():
        raise AssertionError("row operations moved the potential")
    return out


# Row-operation sweeps that may run back to back without removing a variable;
# on the 158 pairs of the ext workload at most 2 ever do.
MAX_IDLE_SWEEPS = 8


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
    declared boundary alphabets are never touched. After MAX_IDLE_SWEEPS
    sweeps in a row that removed no variable, IrreducibleToFinite is raised
    instead of sweeping again. The contraction works in mf's ring, where a
    removed variable's slot stays unused; the result's ring drops the removed
    variables once, on the way out, and keeps every other generator.
    """
    cur = mf
    slots = _internal_slots(mf)
    idle = 0
    while True:
        # a nonzero entry is a scalar exactly when its stored degree is 0
        for p, q, dp, dq in cur.rows:
            if (dp == 0 and not p.is_zero()) or (dq == 0 and not q.is_zero()):
                return _zero_object(cur.N)
        step = _linear_once(cur, slots) or _absorb_once(cur, slots)
        if step is not None:
            (cur, i), idle = step, 0
            slots.remove(i)
            continue
        if idle == MAX_IDLE_SWEEPS:
            raise IrreducibleToFinite(
                f"{idle} row-operation sweeps in a row removed no variable")
        nxt = _rref_once(cur, slots)
        if nxt is None:
            return _dropped(cur, set(_internal_slots(mf)).difference(slots))
        cur, idle = nxt, idle + 1


@lru_cache(maxsize=256)
def _kept_contraction(mf):
    """(exclude_variables(mf), the webs equal to mf that _contracted was handed)."""
    return exclude_variables(mf), []


def _contracted(mf):
    """exclude_variables(mf), kept for the sweeps of ext_qdim, where one web
    meets many others. The kept entry also holds every web equal to mf that
    asks for it, so compile_web's table keeps each alive: a ladder whose web
    equals another ladder's is built once per sweep, not at each meeting.
    Only returns are kept: a web that raises raises again on the next call."""
    red, held = _kept_contraction(mf)
    if all(web is not mf for web in held):
        held.append(mf)
    return red


_contracted.cache_info = _kept_contraction.cache_info


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


# the odd prime of the certificate's second rank: below 2**15, so that each
# product of two residues is one machine word
_PRIME = 32003


def _primitive(f):
    """f's terms times the one positive rational that makes them coprime
    integers; (f) is the same ideal."""
    den = lcm(*(v.denominator for v in f._t.values()))
    ints = {e: int(v * den) for e, v in f._t.items()}
    g = gcd(*ints.values())
    return {e: c // g for e, c in ints.items()}


def _rank_mod2(rows, n):
    """Rank over F_2 of rows of n columns, as {column: int}: each row is a
    Python int of bits, reduced by XOR against the pivot of its top bit."""
    pivots = {}
    for row in rows:
        r = sum(1 << c for c, v in row.items() if v & 1)
        while r:
            top = r.bit_length() - 1
            if top not in pivots:
                pivots[top] = r
                break
            r ^= pivots[top]
        if len(pivots) == n:
            break
    return len(pivots)


def _rank_mod_p(rows, n, p):
    """Rank over F_p of rows of n columns, as {column: int}, kept sparse:
    each pivot row is scaled to lead with 1 at its lowest column. The
    sparsest rows go first, as pivots made from them fill in least."""
    pivots = {}
    for row in sorted(rows, key=len):
        r = {c: v % p for c, v in row.items() if v % p}
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(r[lead], -1, p)
                pivots[lead] = {c: v * inv % p for c, v in r.items()}
                break
            f = r[lead]
            for c, v in piv.items():
                w = (r.get(c, 0) - f * v) % p
                if w:
                    r[c] = w
                else:
                    del r[c]
        if len(pivots) == n:
            break
    return len(pivots)


def _graded_quotient_dim(ring, fs, d):
    """dim_Q of degree-d part of Q[vars]/(fs), by rank of the relation space.

    The rows are m * f for each monomial m of degree d - deg f, with f scaled
    once to a primitive integer polynomial. An integer matrix has no larger
    rank over F_p than over Q, so full column rank mod 2, or failing that mod
    _PRIME, proves the degree vanishes; only when both fall short is the
    exact rank taken.
    """
    degs = tuple(deg for _, deg in ring.gens)
    basis = list(_monomials_of_degree(degs, d))
    if not basis:
        return 0
    n = len(basis)
    index = {e: i for i, e in enumerate(basis)}
    rel_rows = []
    for f in fs:
        df = f.homogeneous_degree()
        terms = _primitive(f)
        for mono in _monomials_of_degree(degs, d - df):
            rel_rows.append({index[tuple(map(add, exps, mono))]: v for exps, v in terms.items()})
    if len(rel_rows) >= n and (_rank_mod2(rel_rows, n) == n
                               or _rank_mod_p(rel_rows, n, _PRIME) == n):
        return 0
    return n - fraction_rank([[row.get(c, 0) for c in range(n)] for row in rel_rows])


def _certified_hilbert(ring, fs):
    """Hilbert series of Q[vars]/(fs), certified by its vanishing window.

    The candidate prod(1 - q^deg f) / prod(1 - q^deg y) must divide exactly
    into a series with positive coefficients; T = sum deg f - sum deg y is
    its top degree. The quotient must then be zero in every even degree of
    the window (T, T + max deg y]: that makes it zero above T, so the n
    equations in n variables are a regular sequence and the candidate is
    their Hilbert series (CONVENTIONS.md, "Certifying the Hilbert series").
    No degree up to T is ranked. Anything else raises IrreducibleToFinite.
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
    if not expected.has_nonneg_coeffs():
        raise IrreducibleToFinite("candidate Hilbert series is not effective")
    T = sum(dfs) - sum(degs)
    for d in range(T + 2, T + max(degs) + 1, 2):
        dim = _graded_quotient_dim(ring, fs, d)
        if dim:
            raise IrreducibleToFinite(f"graded dimension {dim} at degree {d}, expected 0")
    return expected


def ext_qdim(a, b):
    """Graded dimensions of the EXT space between two compiled webs.

    Returns one Laurent polynomial per Z/2 homological degree. Both inputs
    must carry the same boundary. Both are contracted, the first one's dual
    over the boundary ring is glued onto the second, and the result is
    excluded to a finite quotient; IrreducibleToFinite means none was found.
    Each web's contraction is kept in a 256-entry LRU cache, and so is the
    read-off of each pair of contractions, which depends on their values
    alone (CONVENTIONS.md, "Reading EXT off contracted webs"). A sweep over
    pairs thus contracts each distinct web once, and glues, excludes and
    certifies each distinct pair of contractions once. exclude_variables
    itself is not cached, and only returns are kept: a pair that raises
    raises again on the next call. The contraction cache holds the webs it
    was given alive, equal ones included, so compile_web hands the same
    objects out again and the cache finds each by its kept hash and by
    identity.
    """
    if a.N != b.N:
        raise ValueError("different N")
    if a.boundary != b.boundary:
        raise ValueError("boundaries do not match")
    return _read_off(_contracted(a), _contracted(b))


@lru_cache(maxsize=256)
def _read_off(a, b):
    """ext_qdim of two contracted webs with the same N and boundary."""
    if a.is_zero_object() or b.is_zero_object():
        return (LaurentPoly.zero(), LaurentPoly.zero())
    # renaming internal alphabets only commutes with dual
    glued = _glue([(dual(a), {n: f"L.{n}" for n in a.gr.names() if n not in a.boundary}),
                   (b, {n: f"R.{n}" for n in b.gr.names() if n not in b.boundary})], a.N)
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
            qsh, hsh = _flipped(qsh, hsh, dp, dq)
            fs.append(p)
        else:
            used = [x for i, x in enumerate(red.gr.ring.names())
                    if any(e[i] for r in red.rows for f in r[:2] for e in f._t)]
            raise IrreducibleToFinite(f"a row kept both entries nonzero: {len(red.rows)} residual"
                                      f" rows over {', '.join(used)}", red.rows, used)

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


def _forget_contractions():
    """Empty the kept contractions and the kept read-offs made from them."""
    _kept_contraction.cache_clear()
    _read_off.cache_clear()


_contracted.cache_clear = _forget_contractions


# ------------------------------------------------------------------ dump


def dump_mf(mf):
    """Deterministic text form: ring, rows as 'p ; q', then the shifts."""
    lines = [f"N: {mf.N}", "ring:"]
    for (x, deg), name in zip(mf.gr.ring.gens, mf.gr.owners):
        lines.append(f"  {x}: {deg} [{name}]")
    lines.append("rows:")
    for p, q, dp, dq in mf.rows:
        lines.append(f"  {p} ; {q}")
    lines.append(f"qshift: {mf.qshift}")
    lines.append(f"hshift: {mf.hshift}")
    lines.append("basemodule: [" + ", ".join(str(d) for d in mf.basemodule) + "]")
    bnd = " ".join(f"{n}:{s:+d}" for n, s in mf.boundary.items())
    lines.append(f"boundary: {bnd}" if bnd else "boundary:")
    return "\n".join(lines) + "\n"
