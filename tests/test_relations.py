import random

import pytest

from qwebs.qpoly import LaurentPoly, qbinom, qint
from qwebs.webs import Ladder, Rung, WebLinComb, Zero
from qwebs.relations import (
    NegativeCoefficient,
    RelationInstance,
    relation_instances,
    reduce_to_highest,
    simplify,
    verify_relation,
    verify_report,
)
from qwebs import repfun
from qwebs.repfun import lincomb_matrix


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


def test_instance_enumeration_small():
    digons = [i for i in relation_instances(2, ["digon"])]
    assert [i.labels for i in digons] == [(0, 1), (0, 2), (1, 1)]
    opp = [i.labels for i in relation_instances(2, ["opposite-digon"])]
    assert opp == [(0, 1), (0, 2), (1, 1)]
    assert relation_instances(2, ["associativity"]) == []
    assert [i.labels for i in relation_instances(3, ["associativity"])] == [(1, 1, 1)]


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_full_sweep_passes(N):
    lines = verify_report(N)
    assert lines, "sweep produced no instances"
    bad = [ln for ln in lines if ln.endswith("FAIL")]
    assert bad == []


def test_sweep_fails_under_wrong_wedge_sign(monkeypatch):
    # x_j ^ x_i = -q x_i ^ x_j is the wrong convention; a push that still
    # passed every relation would not be checking anything.
    caches = (repfun.merge_matrix, repfun.split_matrix, repfun._local_rung_cols)
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


def test_report_line_format():
    lines = verify_report(2, ["digon"])
    assert lines[0] == "digon a=0 b=1 N=2 PASS"


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
