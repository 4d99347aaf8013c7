import hashlib
import random
from functools import lru_cache
from math import comb, prod

import pytest

from qwebs.qpoly import LaurentPoly, qbinom, qint
from qwebs.webs import Ladder, Rung, WebLinComb, Zero, make_ladder, slices
from qwebs.relations import (
    NegativeCoefficient,
    RelationInstance,
    relation_instances,
    reduce_to_highest,
    simplify,
    verify_relation,
    verify_report,
)
from qwebs import relations, repfun
from qwebs.repfun import FockBasis, QMatrix, ev_closed, lincomb_matrix, web_form


def random_ladder(rng, N, m, max_rungs=4):
    base = [rng.randint(0, N) for _ in range(m)]
    lad = Ladder(N, m, base, [])
    for _ in range(rng.randint(0, max_rungs)):
        options = []
        k = lad.top
        for pos in range(1, m):
            for sign in (1, -1):
                src = k[pos] if sign == 1 else k[pos - 1]
                for a in range(1, src + 1):
                    cand = lad.with_rung(Rung(pos, sign, a))
                    if cand is not Zero:
                        options.append(cand)
        if not options:
            break
        lad = rng.choice(options)
    return lad


def test_instance_validation():
    with pytest.raises(ValueError):
        RelationInstance("pentagon", (1, 2))
    with pytest.raises(ValueError):
        RelationInstance("digon", (1, 1), position=0)
    inst = RelationInstance("parallel-square", (2, 0, 1, 1))
    assert inst.label_str() == "a=2 b=0 s=1 t=1"


def test_out_of_range_is_vacuous():
    assert verify_relation(RelationInstance("digon", (3, 3)), 2)
    assert verify_relation(RelationInstance("opposite-digon", (2, 2)), 3)
    assert verify_relation(RelationInstance("associativity", (1, 1, 1)), 2)
    assert verify_relation(RelationInstance("parallel-square", (0, 0, 5, 5)), 2)
    # a base weight off [0, N]: every rung list starts as the zero web
    assert verify_relation(RelationInstance("parallel-square", (-1, 2, 1, 1)), 2)


def test_unknown_rules_raise():
    with pytest.raises(ValueError, match="bogus"):
        verify_report(3, ["bogus"])
    with pytest.raises(ValueError, match=r"unknown rule\(s\) bogus, pentagon"):
        relation_instances(3, ["digon", "bogus", "pentagon"])


def test_repeated_rules_raise():
    # a rule named twice would check and report each of its instances twice
    with pytest.raises(ValueError, match=r"repeated rule\(s\) digon$"):
        relation_instances(2, ["digon", "associativity", "digon", "digon"])
    with pytest.raises(ValueError, match=r"repeated rule\(s\) associativity, digon$"):
        verify_report(3, ["digon", "associativity", "digon", "associativity"])
    # unknown names are reported first
    with pytest.raises(ValueError, match="unknown rule"):
        relation_instances(2, ["bogus", "bogus"])


def test_zero_web_is_a_value():
    lad = make_ladder(2, 2, (2, 0), [Rung(1, 1, 1)])
    assert lad is Zero
    assert repfun.ev_closed(lad) == LaurentPoly.zero()
    assert reduce_to_highest(lad) == LaurentPoly.zero()
    assert simplify(lad) is Zero
    with pytest.raises(ValueError):
        repfun.ladder_matrix(lad)


def test_instance_enumeration_small():
    digons = [i for i in relation_instances(2, ["digon"])]
    assert [i.labels for i in digons] == [(0, 1), (0, 2), (1, 1)]
    opp = [i.labels for i in relation_instances(2, ["opposite-digon"])]
    assert opp == [(0, 1), (0, 2), (1, 1)]
    assert relation_instances(2, ["associativity"]) == []
    assert [i.labels for i in relation_instances(3, ["associativity"])] == [(1, 1, 1)]


def _oracle_instances(N, rules):
    """The label sets written out loop by loop, one rule at a time."""
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


@pytest.mark.parametrize("N", range(2, 9))
def test_instances_match_loop_oracle(N):
    assert relation_instances(N) == _oracle_instances(N, relations.RULES)
    rules = ["opposite-square", "digon"]
    assert relation_instances(N, rules) == _oracle_instances(N, rules)


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_full_sweep_passes(N):
    lines = verify_report(N)
    assert lines, "sweep produced no instances"
    bad = [ln for ln in lines if ln.endswith("FAIL")]
    assert bad == []


def test_sweep_fails_under_wrong_wedge_sign(monkeypatch):
    # x_j ^ x_i = -q x_i ^ x_j is the wrong convention; a push that still
    # passed every relation would not be checking anything.
    caches = (repfun.merge_matrix, repfun.split_matrix, repfun._piece, repfun._local_rung_cols)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(repfun, "WEDGE_FLIP", LaurentPoly({1: -1}))
    try:
        lines = verify_report(3)
    finally:
        monkeypatch.undo()
        for cache in caches:
            cache.cache_clear()
    bad = [ln for ln in lines if ln.endswith("FAIL")]
    assert len(bad) == 39, bad
    assert not [ln for ln in verify_report(3) if ln.endswith("FAIL")]


# --------------------------------------- the full-column check as the oracle

PIECE_CACHES = (repfun.merge_matrix, repfun.split_matrix, repfun._piece, repfun._local_rung_cols)


def _comb(N, base, terms):
    """The WebLinComb of (coeff, rungs) pairs, Zeros dropped; None if all die."""
    out = {}
    top = None
    for coeff, rungs in terms:
        lad = make_ladder(N, len(base), base, rungs)
        if lad is Zero:
            continue
        if top is None:
            top = lad.top
        out[lad] = out.get(lad, LaurentPoly.zero()) + coeff
    if top is None:
        return None
    return WebLinComb(N, len(base), base, top, out)


def _full_sides_equal(N, base, lhs, rhs):
    """Both sides compared as full matrices, every basis column pushed."""
    a = _comb(N, base, lhs)
    b = _comb(N, base, rhs)
    if a is None and b is None:
        return True
    if a is None or b is None:
        return lincomb_matrix(a if a is not None else b).is_zero()
    if tuple(a.top) != tuple(b.top):
        return False
    return lincomb_matrix(a) == lincomb_matrix(b)


def _recorded_sides(monkeypatch, N):
    """verify_report(N) and every (N, base, lhs, rhs) it compared."""
    seen = []
    real = relations._sides_equal

    def spy(*args):
        seen.append(args)
        return real(*args)

    with monkeypatch.context() as mp:
        mp.setattr(relations, "_sides_equal", spy)
        lines = verify_report(N)
    return lines, seen


def _full_report(monkeypatch, N):
    with monkeypatch.context() as mp:
        mp.setattr(relations, "_sides_equal", _full_sides_equal)
        return verify_report(N)


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_generating_columns_match_full_check(monkeypatch, N):
    lines, seen = _recorded_sides(monkeypatch, N)
    assert lines == _full_report(monkeypatch, N)
    assert seen
    for args in seen:
        _, base, lhs, rhs = args
        assert relations._sides_equal(*args) == _full_sides_equal(*args), args
        elems = repfun._generating_elements(N, base)
        ks = [k for k in base if k]
        assert len(set(elems)) == (prod(comb(N, k) for k in ks[1:]) if ks else 1)
        src = FockBasis(N, base)
        pos = {elem: ci for ci, elem in enumerate(elems)}
        assert set(elems) <= set(src.elements)
        for side in (lhs, rhs):
            w = _comb(N, base, side)
            if w is None:
                continue
            terms = [(c, lad.weights(), lad.rungs) for lad, c in w.items()]
            # every piece of every relation side is certified on working code
            assert all(repfun._certified(N, ks, rungs) for _, ks, rungs in terms)
            dst = FockBasis(N, w.top)
            want = {(dst.elements[r], pos[src.elements[c]]): v.coeffs()
                    for (r, c), v in lincomb_matrix(w).entries().items()
                    if src.elements[c] in pos}
            assert repfun._images(N, terms, elems) == want, (base, side)


F3 = (Rung(1, -1, 3),)
F1 = (Rung(1, -1, 1),)


@pytest.mark.parametrize("lhs, rhs, want", [
    ([(LaurentPoly.one(), F3)], [], True),
    ([(LaurentPoly.one(), F3)], [(LaurentPoly.one(), ())], False),
    ([(LaurentPoly.one(), F1)], [(LaurentPoly.one(), ())], False),
    ([(qint(2), F1), (-qint(2), F1)], [], True),
    ([(LaurentPoly.zero(), F1)], [(qint(2), ()), (-qint(2), ())], False),
], ids=["both-die", "one-dies", "different-tops", "cancel", "zero-vs-cancel"])
def test_sides_equal_edge_cases(lhs, rhs, want):
    # dead rung lists, cancelling terms, and sides that end on different
    # weights, against the ladder-building oracle
    assert relations._sides_equal(2, (2, 0), lhs, rhs) == want
    assert _full_sides_equal(2, (2, 0), lhs, rhs) == want


def _scaled_split(real):
    # a scalar multiple of an intertwiner is one, so this split still
    # certifies; the digon and square coefficients then come out wrong
    @lru_cache(maxsize=None)
    def piece(a, b, N):
        p = real(a, b, N)
        if a * b < 2:
            return p
        return repfun._Piece(N, p.merge, {x: [(y, e + 1, s) for y, e, s in col]
                                          for x, col in p.split.items()})
    return piece


@pytest.mark.parametrize("mutation, N, fails", [
    ("wedge", 3, 39), ("wedge", 4, 119), ("wedge", 5, 285),
    ("split", 3, 23), ("split", 4, 95), ("split", 5, 249),
])
def test_mutated_pieces_fail_as_under_full_check(monkeypatch, mutation, N, fails):
    for cache in PIECE_CACHES:
        cache.cache_clear()
    try:
        with monkeypatch.context() as mp:
            if mutation == "wedge":
                mp.setattr(repfun, "WEDGE_FLIP", LaurentPoly({1: -1}))
            else:
                mp.setattr(repfun, "_piece", _scaled_split(repfun._piece))
            certified = [repfun._piece(a, b, N).certified
                         for a in range(N + 1) for b in range(N + 1 - a)]
            lines = verify_report(N)
            full = _full_report(monkeypatch, N)
    finally:
        for cache in PIECE_CACHES:
            cache.cache_clear()
    # the wrong wedge sign breaks the certificate and falls back to all
    # columns; the scaled split keeps it, so the generating columns alone
    # must catch the wrong coefficients
    assert all(certified) == (mutation == "split")
    assert lines == full
    assert sum(ln.endswith("FAIL") for ln in lines) == fails


def _split_wrong_off_highest(real):
    # split(0, 1) with the sign of x_2 flipped: wrong only away from the
    # highest weight vector x_1, so the generating columns cannot see it
    @lru_cache(maxsize=None)
    def piece(a, b, N):
        p = real(a, b, N)
        if (a, b) != (0, 1):
            return p
        x = ((2,),)
        return repfun._Piece(N, p.merge, {**p.split, x: [(y, e, -s) for y, e, s in p.split[x]]})
    return piece


@pytest.mark.parametrize("N", [2, 3])
def test_uncertified_piece_falls_back_to_all_columns(monkeypatch, N):
    base = (1, 0)
    rungs = (Rung(1, -1, 1), Rung(1, 1, 1))
    loop = [(LaurentPoly.one(), slices(N, base, rungs), rungs)]
    ident = [(LaurentPoly.one(), slices(N, base, ()), ())]
    for cache in PIECE_CACHES:
        cache.cache_clear()
    try:
        with monkeypatch.context() as mp:
            mp.setattr(repfun, "_piece", _split_wrong_off_highest(repfun._piece))
            certified = repfun._piece(0, 1, N).certified
            elems = repfun._generating_elements(N, base)
            blind = repfun._images(N, loop, elems) == repfun._images(N, ident, elems)
            agree = repfun._maps_agree(N, base, loop, ident)
            verdict = verify_relation(RelationInstance("digon", (0, 1)), N)
    finally:
        for cache in PIECE_CACHES:
            cache.cache_clear()
    assert not certified
    assert blind
    assert not agree and not verdict


def test_report_line_format():
    lines = verify_report(2, ["digon"])
    assert lines[0] == "digon a=0 b=1 N=2 PASS"


# SHA-256 of every verify_report(N) line, each ended by a newline, for N = 2..6
REPORT_DIGEST = "58cfda6f4b51e08d69ca158108a76f5d3ac86cc8ea18caa99cfdd7a92d8d6c2d"


def test_report_output_is_pinned():
    digest = hashlib.sha256()
    for N in range(2, 7):
        for line in verify_report(N):
            digest.update(f"{line}\n".encode())
    assert digest.hexdigest() == REPORT_DIGEST


def test_a_report_builds_only_the_columns_it_reaches(monkeypatch):
    # the reached set does not depend on the order of the pushes
    real = repfun._local_rung_cols
    tables = {}

    def spied(*args):
        tables[args] = real(*args)
        return tables[args]

    for cache in PIECE_CACHES:
        cache.cache_clear()
    monkeypatch.setattr(repfun, "_local_rung_cols", spied)
    verify_report(6)
    built = sum(len(table) for table in tables.values())
    pairs = sum(comb(6, ki) * comb(6, kj) for ki, kj, _, _, _ in tables)
    assert (len(tables), built, pairs) == (182, 9061, 19032)


def test_the_push_path_makes_no_matrices(monkeypatch):
    # merges and splits are built as signed monomials from the wedge sort;
    # verdicts, closed values and the form read them, and the matrix API
    # only reads them in turn
    made = []

    def spy(name, real):
        def spied(*args, **kwargs):
            made.append(name)
            return real(*args, **kwargs)
        return spied

    for cache in PIECE_CACHES:
        cache.cache_clear()
    monkeypatch.setattr(QMatrix, "__init__", spy("QMatrix", QMatrix.__init__))
    monkeypatch.setattr(QMatrix, "_raw", classmethod(spy("QMatrix._raw", QMatrix._raw.__func__)))
    for name in ("merge_matrix", "split_matrix"):
        monkeypatch.setattr(repfun, name, spy(name, getattr(repfun, name)))
    assert not [ln for ln in verify_report(4) if ln.endswith("FAIL")]
    assert ev_closed(Ladder(3, 2, (3, 0), [Rung(1, -1, 1), Rung(1, 1, 1)])) == qint(3)
    u = Ladder(3, 2, (3, 0), [Rung(1, -1, 2)])
    v = Ladder(3, 2, (3, 0), [Rung(1, -1, 1), Rung(1, -1, 1)])
    assert web_form(u, v) == qint(2) * web_form(u, u)
    assert made == []


def test_relation_at_higher_position():
    inst = RelationInstance("digon", (1, 1), position=2)
    assert verify_relation(inst, 3)
    inst = RelationInstance("opposite-square", (1, 1, 1, 1), position=2)
    assert verify_relation(inst, 2)


def test_simplify_circle():
    # a full loop pinched off an empty board: worth the quantum number [N]
    for N in (2, 3):
        lad = Ladder(N, 2, (N, 0), [Rung(1, -1, 1), Rung(1, 1, 1)])
        out = simplify(lad)
        ident = Ladder(N, 2, (N, 0), [])
        assert out.items() == [(ident, qbinom(N, 1))]


def test_simplify_theta():
    lad = Ladder(3, 2, (3, 0), [Rung(1, -1, 2), Rung(1, 1, 2)])
    out = simplify(lad)
    ident = Ladder(3, 2, (3, 0), [])
    assert out.items() == [(ident, qbinom(3, 2))]


def test_simplify_merges_stacked_rungs():
    lad = Ladder(2, 2, (2, 0), [Rung(1, -1, 1), Rung(1, -1, 1)])
    out = simplify(lad)
    expect = Ladder(2, 2, (2, 0), [Rung(1, -1, 2)])
    assert out.items() == [(expect, qbinom(2, 1))]


def test_simplify_reorders_to_expose_bigon():
    # an unrelated far rung sits between the two halves of a bigon
    lad = Ladder(2, 4, (2, 0, 1, 0), [Rung(1, -1, 1), Rung(3, -1, 1), Rung(1, 1, 1)])
    out = simplify(lad)
    expect = Ladder(2, 4, (2, 0, 1, 0), [Rung(3, -1, 1)])
    assert out.items() == [(expect, qbinom(2, 1))]


def test_simplify_preserves_matrix_and_is_idempotent():
    rng = random.Random(20)
    for _ in range(40):
        N = rng.choice([2, 3])
        m = rng.choice([2, 3])
        lad = random_ladder(rng, N, m)
        w = WebLinComb.of(lad)
        s = simplify(w)
        assert lincomb_matrix(s) == lincomb_matrix(w)
        again = simplify(s)
        assert again.items() == s.items()


def test_simplify_linear_combination():
    lad1 = Ladder(2, 2, (2, 0), [Rung(1, -1, 1), Rung(1, 1, 1)])
    lad2 = Ladder(2, 2, (2, 0), [])
    w = WebLinComb.of(lad1) + WebLinComb.of(lad2, LaurentPoly.const(3))
    out = simplify(w)
    assert out.items() == [(lad2, qint(2) + LaurentPoly.const(3))]


def test_reduce_to_highest_values():
    circ = Ladder(2, 2, (2, 0), [Rung(1, -1, 1), Rung(1, 1, 1)])
    assert reduce_to_highest(circ) == qint(2)
    theta = Ladder(3, 2, (3, 0), [Rung(1, -1, 2), Rung(1, 1, 2)])
    assert reduce_to_highest(theta) == qbinom(3, 2)
    ident = Ladder(2, 2, (2, 0), [])
    assert reduce_to_highest(ident) == LaurentPoly.one()


def test_reduce_to_highest_rejects_negative():
    circ = Ladder(2, 2, (2, 0), [Rung(1, -1, 1), Rung(1, 1, 1)])
    with pytest.raises(NegativeCoefficient):
        reduce_to_highest(WebLinComb.of(circ, -1))


def test_reduce_to_highest_wants_closed_highest():
    open_web = Ladder(2, 2, (2, 0), [Rung(1, -1, 1)])
    with pytest.raises(ValueError):
        reduce_to_highest(open_web)
    low_base = Ladder(2, 2, (1, 1), [])
    with pytest.raises(ValueError):
        reduce_to_highest(low_base)
