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

from .qpoly import LaurentPoly, qbinom, qbinom_ext
from .webs import GlWeight, Ladder, Rung, WebLinComb, Zero, highest_weight_ladder, slices
from .repfun import _maps_agree, web_form

RULES = ("digon", "opposite-digon", "associativity", "parallel-square", "opposite-square")


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
        names = {
            "digon": "ab",
            "opposite-digon": "ab",
            "associativity": "abc",
            "parallel-square": "abst",
            "opposite-square": "abst",
        }[self.rule]
        return " ".join(f"{n}={v}" for n, v in zip(names, self.labels))


def _board(position, pair_labels):
    """Base weight for a local relation: zeros away from the active uprights."""
    base = [0] * (position + len(pair_labels))
    for off, v in enumerate(pair_labels):
        base[position - 1 + off] = v
    return GlWeight(base)


def _sides_equal(N, base, lhs, rhs):
    """Compare two (coeff, rungs) lists through the functor.

    A rung list whose slices leave [0, N], base included, is the zero web and
    drops out; the surviving lists must all end on one weight.
    """
    tops = set()
    sides = ([], [])
    for side, terms in zip(sides, (lhs, rhs)):
        for coeff, rungs in terms:
            ks = slices(N, base, rungs)
            if ks is not Zero:
                tops.add(ks[-1])
                side.append((coeff, rungs))
    return not tops or (len(tops) == 1 and _maps_agree(N, base, *sides))


def _relation_sides(inst, N):
    """The (base, lhs, rhs) comparisons of one instance; none when its labels
    are out of range, since the instance is then vacuous."""
    pos = inst.position
    one = LaurentPoly.one()

    if inst.rule in ("digon", "opposite-digon"):
        a, b = inst.labels
        if b < 1 or a < 0:
            return
        outer = a + b if inst.rule == "digon" else N - a
        if outer > N or b > outer:
            return
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
        if min(a, b, c) < 1 or a + b + c > N:
            return
        yield (_board(pos, (a, b, c)),
               [(one, [Rung(pos, 1, b), Rung(pos + 1, 1, c), Rung(pos, 1, c)])],
               [(one, [Rung(pos + 1, 1, c), Rung(pos, 1, b + c)])])
        # co-associativity: the two ways of splitting back down
        yield (_board(pos, (a + b + c, 0, 0)),
               [(one, [Rung(pos, -1, c), Rung(pos + 1, -1, c), Rung(pos, -1, b)])],
               [(one, [Rung(pos, -1, b + c), Rung(pos + 1, -1, c)])])

    elif inst.rule == "parallel-square":
        a, b, s, t = inst.labels
        if s < 1 or t < 1:
            return
        coeff = qbinom(s + t, t)
        if a - s - t >= 0 and b + s + t <= N and a <= N and b >= 0:
            yield (_board(pos, (a, b)),
                   [(one, [Rung(pos, -1, s), Rung(pos, -1, t)])],
                   [(coeff, [Rung(pos, -1, s + t)])])
        if a + s + t <= N and b - s - t >= 0:
            yield (_board(pos, (a, b)),
                   [(one, [Rung(pos, 1, s), Rung(pos, 1, t)])],
                   [(coeff, [Rung(pos, 1, s + t)])])

    elif inst.rule == "opposite-square":
        a, b, s, t = inst.labels
        if s < 1 or t < 1:
            return

        def rungs_or_none(*specs):
            return [Rung(p, sg, th) for p, sg, th in specs if th > 0]

        # F(s) then E(t) against sum of E(t-r) then F(s-r)
        if 0 <= a - s and b + s <= N and a - s + t <= N and 0 <= b + s - t:
            lhs = [(one, rungs_or_none((pos, -1, s), (pos, 1, t)))]
            rhs = []
            for r in range(0, min(s, t) + 1):
                c = qbinom_ext(a - b + t - s, r)
                if c.is_zero():
                    continue
                rhs.append((c, rungs_or_none((pos, 1, t - r), (pos, -1, s - r))))
            yield _board(pos, (a, b)), lhs, rhs
        # mirror: E(s) then F(t) against sum of F(t-r) then E(s-r)
        if a + s <= N and 0 <= b - s and 0 <= a + s - t and b - s + t <= N:
            lhs = [(one, rungs_or_none((pos, 1, s), (pos, -1, t)))]
            rhs = []
            for r in range(0, min(s, t) + 1):
                c = qbinom_ext(t - s - (a - b), r)
                if c.is_zero():
                    continue
                rhs.append((c, rungs_or_none((pos, -1, t - r), (pos, 1, s - r))))
            yield _board(pos, (a, b)), lhs, rhs

    else:
        raise ValueError(f"unknown rule {inst.rule!r}")


def verify_relation(inst, N):
    """Check one relation instance against the functor. Out-of-range labels
    make the instance vacuous and return True."""
    return all(_sides_equal(N, *sides) for sides in _relation_sides(inst, N))


def relation_instances(N, rules=None):
    """All admissible instances with labels bounded by N, deterministic order."""
    if N < 2:
        raise ValueError("need N >= 2")
    rules = tuple(rules) if rules else RULES
    unknown = [rule for rule in rules if rule not in RULES]
    if unknown:
        raise ValueError(f"unknown rule(s) {', '.join(unknown)} (available: {', '.join(RULES)})")
    out = []
    for rule in rules:
        if rule in ("digon", "opposite-digon"):
            for a in range(0, N + 1):
                for b in range(1, N + 1):
                    if rule == "digon" and a + b > N:
                        continue
                    if rule == "opposite-digon" and (N - a < b):
                        continue
                    out.append(RelationInstance(rule, (a, b)))
        elif rule == "associativity":
            for a in range(1, N + 1):
                for b in range(1, N + 1):
                    for c in range(1, N + 1):
                        if a + b + c <= N:
                            out.append(RelationInstance(rule, (a, b, c)))
        elif rule == "parallel-square":
            for a in range(0, N + 1):
                for b in range(0, N + 1):
                    for s in range(1, N + 1):
                        for t in range(1, N + 1):
                            down = a - s - t >= 0 and b + s + t <= N
                            up = a + s + t <= N and b - s - t >= 0
                            if down or up:
                                out.append(RelationInstance(rule, (a, b, s, t)))
        elif rule == "opposite-square":
            for a in range(0, N + 1):
                for b in range(0, N + 1):
                    for s in range(1, N + 1):
                        for t in range(1, N + 1):
                            fe = a - s >= 0 and b + s <= N and a - s + t <= N and b + s - t >= 0
                            ef = a + s <= N and b - s >= 0 and a + s - t >= 0 and b - s + t <= N
                            if fe or ef:
                                out.append(RelationInstance(rule, (a, b, s, t)))
    return out


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
    if isinstance(u, Ladder):
        u = WebLinComb.of(u)
    ell = sum(u.base) // u.N
    hw = highest_weight_ladder(u.N, u.m, ell)
    if tuple(hw.base) != tuple(u.base) or tuple(u.top) != tuple(u.base):
        raise ValueError("reduce_to_highest wants a closed web on the highest weight")
    val = web_form(WebLinComb.of(hw), u)
    if not val.is_zero() and not val.has_nonneg_coeffs():
        raise NegativeCoefficient(str(val))
    return val
