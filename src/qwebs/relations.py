"""Diagrammatic relations: verification against the functor, and a simplifier.

Every relation here is an equality of linear combinations of ladders that
the evaluation functor must respect. Each instance is data, a few (base,
lhs, rhs) comparisons of (coefficient, rung list) sides; verify_relation
pushes the rung lists through the functor, so a passing sweep certifies the
diagram calculus and the representation side against each other. Once every
merge and split piece on both sides is certified as an intertwiner, the
images are compared only on the columns that generate the source as a module.

The five rules:

  digon            closed bigon with inner labels (a, b), value qbinom(a+b, a)
  opposite-digon   same bigon presented through the complementary outer label,
                   value qbinom(N - a, b)
  associativity    two ways of merging three adjacent strands agree
  parallel-square  stacked same-direction rungs combine: F(s) then F(t)
                   equals qbinom(s+t, t) times F(s+t)
  opposite-square  the divided-power commutation: F(s) then E(t) expands into
                   E(t-r) then F(s-r) with weight-binomial coefficients

Ladder realizations and the label dictionaries are spelled out in
CONVENTIONS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .qpoly import LaurentPoly, qbinom, qbinom_ext
from .webs import GlWeight, Ladder, Rung, WebLinComb, Zero, slices
from .repfun import _is_highest, _maps_agree, ev_closed

# each rule's label letters, in the order RelationInstance.labels holds them
_LABELS = {
    "digon": "ab",
    "opposite-digon": "ab",
    "associativity": "abc",
    "parallel-square": "abst",
    "opposite-square": "abst",
}
RULES = tuple(_LABELS)


class NegativeCoefficient(ValueError):
    """A reduction that must be coefficient-positive produced a negative."""


@dataclass(frozen=True)
class RelationInstance:
    rule: str
    labels: tuple
    position: int = 1

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown rule {self.rule!r}")
        object.__setattr__(self, "labels", tuple(int(x) for x in self.labels))
        if self.position < 1:
            raise ValueError("position starts at 1")

    def label_str(self):
        return " ".join(f"{n}={v}" for n, v in zip(_LABELS[self.rule], self.labels))


def _board(position, pair_labels):
    """Base weight for a local relation: zeros away from the active uprights."""
    base = [0] * (position + len(pair_labels))
    for off, v in enumerate(pair_labels):
        base[position - 1 + off] = v
    return GlWeight(base)


def _sides_equal(N, base, lhs, rhs):
    """Compare two (coeff, rungs) lists through the functor.

    A rung list whose slices leave [0, N], base included, is the zero web and
    drops out; the rest must all end on one weight and go on with their slices.
    """
    tops = set()
    sides = ([], [])
    for side, terms in zip(sides, (lhs, rhs)):
        for coeff, rungs in terms:
            ks = slices(N, base, rungs)
            if ks is not Zero:
                tops.add(ks[-1])
                side.append((coeff, ks, rungs))
    return not tops or (len(tops) == 1 and _maps_agree(N, base, *sides))


def _fits(rule, labels, N):
    """Which of the rule's two presentations fit inside [0, N], as a pair in
    the order _relation_sides yields them.

    A digon or associativity instance and its mirror fit together. A square
    has an F-first and an E-first presentation; each fits when its slice
    weights after the base stay in [0, N]. A base off [0, N] is left to
    _sides_equal, which drops it as the zero web.
    """
    if rule in ("digon", "opposite-digon"):
        a, b = labels
        outer = a + b if rule == "digon" else N - a
        ok = a >= 0 and 1 <= b <= outer <= N
        return ok, ok
    if rule == "associativity":
        ok = min(labels) >= 1 and sum(labels) <= N
        return ok, ok
    a, b, s, t = labels
    if s < 1 or t < 1:
        return False, False
    if rule == "parallel-square":
        return (a - s - t >= 0 and b + s + t <= N,
                a + s + t <= N and b - s - t >= 0)
    return (a - s >= 0 and b + s <= N and a - s + t <= N and b + s - t >= 0,
            a + s <= N and b - s >= 0 and a + s - t >= 0 and b - s + t <= N)


def _relation_sides(inst, N):
    """The (base, lhs, rhs) comparisons of the instance's presentations that
    _fits marks; none when its labels are out of range, since the instance is
    then vacuous."""
    pos = inst.position
    one = LaurentPoly.one()
    first, second = _fits(inst.rule, inst.labels, N)
    if not (first or second):
        return

    if inst.rule in ("digon", "opposite-digon"):
        a, b = inst.labels
        outer = a + b if inst.rule == "digon" else N - a
        coeff = qbinom(outer, b) if inst.rule == "opposite-digon" else qbinom(a + b, a)
        # loop on the right of the main upright
        yield (_board(pos, (outer, 0)),
               [(one, [Rung(pos, -1, b), Rung(pos, 1, b)])],
               [(coeff, [])])
        # mirror: loop on the left
        yield (_board(pos, (0, outer)),
               [(one, [Rung(pos, 1, b), Rung(pos, -1, b)])],
               [(coeff, [])])

    elif inst.rule == "associativity":
        a, b, c = inst.labels
        yield (_board(pos, (a, b, c)),
               [(one, [Rung(pos, 1, b), Rung(pos + 1, 1, c), Rung(pos, 1, c)])],
               [(one, [Rung(pos + 1, 1, c), Rung(pos, 1, b + c)])])
        # co-associativity: the two ways of splitting back down
        yield (_board(pos, (a + b + c, 0, 0)),
               [(one, [Rung(pos, -1, c), Rung(pos + 1, -1, c), Rung(pos, -1, b)])],
               [(one, [Rung(pos, -1, b + c), Rung(pos + 1, -1, c)])])

    elif inst.rule == "parallel-square":
        a, b, s, t = inst.labels
        coeff = qbinom(s + t, t)
        for fit, sign in ((first, -1), (second, 1)):
            if fit:
                yield (_board(pos, (a, b)),
                       [(one, [Rung(pos, sign, s), Rung(pos, sign, t)])],
                       [(coeff, [Rung(pos, sign, s + t)])])

    else:
        a, b, s, t = inst.labels

        def rungs_or_none(*specs):
            return [Rung(p, sg, th) for p, sg, th in specs if th > 0]

        # F(s) then E(t) against sum of E(t-r) then F(s-r), and the mirror
        # E(s) then F(t) against sum of F(t-r) then E(s-r)
        for fit, sign, shift in ((first, -1, a - b + t - s), (second, 1, t - s - (a - b))):
            if not fit:
                continue
            lhs = [(one, rungs_or_none((pos, sign, s), (pos, -sign, t)))]
            rhs = []
            for r in range(0, min(s, t) + 1):
                c = qbinom_ext(shift, r)
                if not c.is_zero():
                    rhs.append((c, rungs_or_none((pos, -sign, t - r), (pos, sign, s - r))))
            yield _board(pos, (a, b)), lhs, rhs


def verify_relation(inst, N):
    """Check one relation instance against the functor. Out-of-range labels
    make the instance vacuous and return True."""
    return all(_sides_equal(N, *sides) for sides in _relation_sides(inst, N))


def relation_instances(N, rules=None):
    """All admissible instances with labels bounded by N, deterministic order:
    rules as given, then labels in lexicographic order."""
    rules = tuple(rules) if rules else RULES
    unknown = [rule for rule in rules if rule not in RULES]
    if unknown:
        raise ValueError(f"unknown rule(s) {', '.join(unknown)} (available: {', '.join(RULES)})")
    repeated = sorted({rule for rule in rules if rules.count(rule) > 1})
    if repeated:
        raise ValueError(f"repeated rule(s) {', '.join(repeated)}")
    if N < 2:
        raise ValueError("need N >= 2")
    return [RelationInstance(rule, labels)
            for rule in rules
            for labels in product(range(N + 1), repeat=len(_LABELS[rule]))
            if any(_fits(rule, labels, N))]


def verify_report(N, rules=None):
    """One line per instance: 'rule labels N=<N> PASS|FAIL'."""
    lines = []
    for inst in relation_instances(N, rules):
        verdict = "PASS" if verify_relation(inst, N) else "FAIL"
        lines.append(f"{inst.rule} {inst.label_str()} N={N} {verdict}")
    return lines


# ------------------------------------------------------------------ simplify


def _reorder_once(rungs):
    """Bubble independent rungs into position order; exact diagram isotopy."""
    rungs = list(rungs)
    for j in range(len(rungs) - 1):
        r1, r2 = rungs[j], rungs[j + 1]
        if abs(r1.pos - r2.pos) >= 2 and r2.pos < r1.pos:
            rungs[j], rungs[j + 1] = r2, r1
            return tuple(rungs), True
    return tuple(rungs), False


def _collapse_once(lad):
    """One local rewrite; returns (coefficient, smaller ladder) or None."""
    ws = lad.weights()
    rungs = lad.rungs
    for j in range(len(rungs) - 1):
        r1, r2 = rungs[j], rungs[j + 1]
        if r1.pos != r2.pos:
            continue
        i = r1.pos - 1
        if r1.sign == r2.sign:
            merged = Rung(r1.pos, r1.sign, r1.thickness + r2.thickness)
            rest = rungs[:j] + (merged,) + rungs[j + 2:]
            return qbinom(r1.thickness + r2.thickness, r2.thickness), Ladder(
                lad.N, lad.m, lad.base, rest)
        if r1.thickness == r2.thickness:
            before = ws[j]
            if r1.sign == -1 and before[i + 1] == 0:
                coeff = qbinom(before[i], r1.thickness)
                return coeff, Ladder(lad.N, lad.m, lad.base, rungs[:j] + rungs[j + 2:])
            if r1.sign == 1 and before[i] == 0:
                coeff = qbinom(before[i + 1], r1.thickness)
                return coeff, Ladder(lad.N, lad.m, lad.base, rungs[:j] + rungs[j + 2:])
    return None


def simplify(w):
    """Rewrite towards fewer rungs, exactly preserving the functor image.

    Collapses closed bigons and combines stacked same-direction rungs, with
    the binomial coefficients that keep everything inside Z[q, q^-1], after
    bubbling independent rungs into position order. Idempotent on its image;
    Zero stays Zero.
    """
    if w is Zero:
        return Zero
    if isinstance(w, Ladder):
        w = WebLinComb.of(w)
    terms = {}
    for lad, coeff in w.items():
        cur, c = lad, coeff
        changed = True
        while changed:
            changed = False
            rungs, moved = _reorder_once(cur.rungs)
            if moved:
                cur = Ladder(cur.N, cur.m, cur.base, rungs)
                changed = True
                continue
            hit = _collapse_once(cur)
            if hit is not None:
                factor, cur = hit
                c = c * factor
                changed = True
        terms[cur] = terms.get(cur, LaurentPoly.zero()) + c
    return WebLinComb(w.N, w.m, w.base, w.top, terms)


def reduce_to_highest(u):
    """Pair a closed web against the highest-weight identity ladder.

    The result must have nonnegative coefficients; a negative one raises
    NegativeCoefficient because it would contradict positivity of the basis
    expansion. The zero web pairs to 0.
    """
    if u is Zero:
        return LaurentPoly.zero()
    if not _is_highest(u.base, u.N) or tuple(u.top) != tuple(u.base):
        raise ValueError("reduce_to_highest wants a closed web on the highest weight")
    val = ev_closed(u)
    if not val.is_zero() and not val.has_nonneg_coeffs():
        raise NegativeCoefficient(str(val))
    return val
