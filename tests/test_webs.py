import copy
import pickle
import random

import pytest

from qwebs.qpoly import LaurentPoly
from qwebs.webs import (
    GlWeight,
    Ladder,
    NonIntegral,
    Rung,
    Star,
    WebLinComb,
    WeightMismatch,
    Zero,
    apply_rung,
    compose,
    d_norm,
    enumerate_weights,
    highest_weight_ladder,
    ladder_from_sequence,
    make_ladder,
    phi,
    reflect,
    slices,
)
from qwebs import webs


def random_ladder(rng, N=None, m=None, max_rungs=4):
    N = N or rng.randint(2, 4)
    m = m or rng.randint(2, 4)
    while True:
        base = GlWeight(rng.randint(0, N) for _ in range(m))
        lad = Ladder(N, m, base)
        for _ in range(rng.randint(0, max_rungs)):
            options = []
            for pos in range(1, m):
                for sign in (1, -1):
                    for a in range(1, N + 1):
                        r = Rung(pos, sign, a)
                        if apply_rung(lad.top, r, N) is not Zero:
                            options.append(r)
            if not options:
                break
            lad = lad.with_rung(rng.choice(options))
        return lad


# ------------------------------------------------------------------- weights


def test_phi_star_example():
    assert phi((3,), 2, 2, 2) is Star


def test_phi_basic():
    assert phi((0,), 2, 4, 4) == (2, 2)
    assert phi((2, -1), 3, 4, 3) == (2, 0, 1) or phi((2, -1), 3, 4, 3) is Star


def test_phi_inverts_sl():
    rng = random.Random(5)
    for _ in range(100):
        N = rng.randint(2, 4)
        m = rng.randint(2, 5)
        k = GlWeight(rng.randint(0, N) for _ in range(m))
        assert phi(k.sl(), m, k.total(), N) == k


def test_phi_out_of_range_is_star():
    # lift exists integrally but leaves [0, N]
    assert phi((4,), 2, 4, 3) is Star


def test_markers_are_falsy_singletons():
    assert (repr(Star), repr(Zero)) == ("Star", "Zero")
    assert not Star and not Zero and Star is not Zero
    assert copy.deepcopy(Zero) is Zero
    assert pickle.loads(pickle.dumps(Star)) is Star


def test_enumerate_weights():
    ws = enumerate_weights(2, 2, 2)
    assert ws == [(2, 0), (1, 1), (0, 2)]
    ws = enumerate_weights(3, 2, 2)
    assert len(ws) == 6
    assert ws == sorted(ws, reverse=True)
    assert all(w.total() == 2 and w.valid(2) for w in ws)


def test_enumerate_weights_of_many_parts_needs_no_recursion():
    assert enumerate_weights(1000, 0, 2) == [GlWeight((0,) * 1000)]
    assert enumerate_weights(1000, 2000, 2) == [GlWeight((2,) * 1000)]


def test_d_norm_examples():
    assert d_norm((1, 1), 2) == 1
    assert d_norm((2, 1, 1, 2), 3) == 4
    assert d_norm((2, 0), 2) == 0
    assert d_norm((1, 1), 2) == 1
    with pytest.raises(NonIntegral):
        d_norm((1, 0), 2)


@pytest.mark.parametrize("m, d", [(-1, 2), (2, -1), (-1, -1)])
def test_enumerate_weights_refuses_negative_counts(m, d):
    with pytest.raises(ValueError, match="need m >= 0 and d >= 0"):
        enumerate_weights(m, d, 2)


def test_enumerate_weights_with_no_parts():
    # the one empty weight sums to 0; no weight of no parts sums to more
    assert enumerate_weights(0, 0, 2) == [()]
    assert enumerate_weights(0, 2, 2) == []


@pytest.mark.parametrize("N", [1, 0, -2])
def test_small_n_is_refused_by_d_norm_and_enumerate_weights(N):
    # refused before any division by N or any weight is listed, as Ladder does
    with pytest.raises(ValueError, match="need N >= 2"):
        d_norm((1, 1), N)
    with pytest.raises(ValueError, match="need N >= 2"):
        enumerate_weights(2, 2, N)


# --------------------------------------------------------------------- rungs


def test_apply_rung():
    r = Rung(1, 1, 1)
    assert apply_rung((1, 1), r, 2) == (2, 0)
    assert apply_rung((2, 1), r, 2) is Zero
    assert apply_rung((1, 0), r, 2) is Zero
    f = Rung(1, -1, 2)
    assert apply_rung((2, 0), f, 2) == (0, 2)


def test_rung_text():
    assert str(Rung(1, 1, 2)) == "E1^2"
    assert str(Rung(3, -1, 1)) == "F3^1"
    assert Rung.parse("E1^2") == Rung(1, 1, 2)
    assert Rung.parse("F3^1") == Rung(3, -1, 1)


def test_rung_validation():
    with pytest.raises(ValueError):
        Rung(0, 1, 1)
    with pytest.raises(ValueError):
        Rung(1, 2, 1)
    with pytest.raises(ValueError):
        Rung(1, 1, 0)


# ------------------------------------------------------------------- ladders


def test_ladder_from_sequence_example():
    lad = ladder_from_sequence([(1, 1, 2)], (0,), 2, 4, 4)
    assert lad.base == (2, 2)
    assert lad.rungs == (Rung(1, 1, 2),)
    assert lad.top == (4, 0)


def test_ladder_from_sequence_right_factor_first():
    # operator product E1 F1 acts F first, so F becomes the bottom rung
    lad = ladder_from_sequence([(1, 1, 1), (-1, 1, 1)], (2,), 2, 2, 2)
    assert lad.base == (2, 0)
    assert lad.rungs == (Rung(1, -1, 1), Rung(1, 1, 1))


def test_ladder_from_sequence_zero():
    assert ladder_from_sequence([(1, 1, 1)], (2,), 2, 2, 2) is Zero
    assert ladder_from_sequence([(1, 1, 1)], (1,), 2, 2, 2) is Zero  # no gl lift


def test_ladder_validation():
    with pytest.raises(ValueError):
        Ladder(2, 2, GlWeight((3, 0)))
    with pytest.raises(ValueError):
        Ladder(2, 2, GlWeight((2, 0)), (Rung(1, 1, 1),))
    assert make_ladder(2, 2, (2, 0), [Rung(1, 1, 1)]) is Zero


def test_ladder_weights():
    lad = Ladder(2, 2, GlWeight((2, 0)), (Rung(1, -1, 1), Rung(1, 1, 1)))
    assert lad.weights() == [(2, 0), (1, 1), (2, 0)]
    assert lad.top == (2, 0)


def _hand_walk(N, base, rungs):
    """Slice weights by one apply_rung per rung, or Zero; the oracle of slices."""
    ks = [GlWeight(base)]
    if not ks[0].valid(N):
        return Zero
    for r in rungs:
        ks.append(apply_rung(ks[-1], r, N))
        if ks[-1] is Zero:
            return Zero
    return tuple(ks)


def test_slices_match_hand_walk():
    rng = random.Random(31)
    seen = {"live": 0, "dies": 0, "bad base": 0}
    for _ in range(400):
        N, m = rng.randint(2, 4), rng.randint(2, 4)
        base = [rng.randint(-1, N + 1) if rng.random() < 0.1 else rng.randint(0, N)
                for _ in range(m)]
        rungs = [Rung(rng.randint(1, m - 1), rng.choice((1, -1)), rng.randint(1, N))
                 for _ in range(rng.randint(0, 5))]
        want = _hand_walk(N, base, rungs)
        assert slices(N, base, rungs) == want
        lad = make_ladder(N, m, base, rungs)
        assert (lad is Zero) == (want is Zero)
        if want is Zero:
            seen["bad base" if not GlWeight(base).valid(N) else "dies"] += 1
            continue
        seen["live"] += 1
        assert lad.top == want[-1]
        assert lad.weights() == list(want)
    assert min(seen.values()) >= 20, seen


def test_slices_edge_cases():
    e1, f1 = Rung(1, 1, 1), Rung(1, -1, 1)
    assert slices(3, (1, 2), ()) == ((1, 2),)
    assert slices(2, (1, 1), [e1, f1]) == ((1, 1), (2, 0), (1, 1))
    # dies mid-way: the second E1 would take the left upright to 3
    assert slices(2, (1, 1), [e1, e1, f1]) is Zero
    assert slices(2, (3, 0), ()) is Zero
    assert slices(2, (-1, 2), [e1]) is Zero
    with pytest.raises(ValueError):
        slices(2, (1, 1), [Rung(2, 1, 1)])
    with pytest.raises(ValueError):
        Ladder(2, 2, GlWeight((1, 1)), (Rung(2, 1, 1),))


def test_ladder_reads_stored_slices(monkeypatch):
    rungs = (Rung(1, -1, 2), Rung(2, -1, 1), Rung(1, 1, 1))
    lad = Ladder(3, 3, GlWeight((3, 0, 0)), rungs)
    twin = Ladder(3, 3, GlWeight((3, 0, 0)), rungs)

    def no_walk(*args):
        raise AssertionError("slice weights walked again")

    with monkeypatch.context() as mp:
        mp.setattr(webs, "apply_rung", no_walk)
        assert lad.top == (2, 0, 1)
        assert lad.weights() == [(3, 0, 0), (1, 2, 0), (1, 1, 1), (2, 0, 1)]
    # the stored slices are not a field
    assert lad == twin and hash(lad) == hash(twin)
    assert "_slices" not in repr(lad)


def test_compose_and_mismatch():
    lower = Ladder(2, 2, GlWeight((2, 0)), (Rung(1, -1, 1),))
    upper = Ladder(2, 2, GlWeight((1, 1)), (Rung(1, 1, 1),))
    both = compose(upper, lower)
    assert both.rungs == (Rung(1, -1, 1), Rung(1, 1, 1))
    assert both.base == (2, 0)
    with pytest.raises(WeightMismatch):
        compose(lower, lower)


def test_reflect_involution_and_antihom():
    rng = random.Random(17)
    for _ in range(60):
        lad = random_ladder(rng)
        r = reflect(lad)
        assert r.base == lad.top and r.top == lad.base
        assert reflect(r) == lad
    for _ in range(40):
        lower = random_ladder(rng)
        # grow an upper ladder from the lower top
        upper = Ladder(lower.N, lower.m, lower.top)
        for _ in range(2):
            opts = [Rung(p, s, a)
                    for p in range(1, lower.m)
                    for s in (1, -1)
                    for a in range(1, lower.N + 1)
                    if apply_rung(upper.top, Rung(p, s, a), lower.N) is not Zero]
            if opts:
                upper = upper.with_rung(rng.choice(opts))
        assert reflect(compose(upper, lower)) == compose(reflect(lower), reflect(upper))


def test_ladder_text_roundtrip():
    lad = Ladder(2, 2, GlWeight((2, 0)), (Rung(1, -1, 1), Rung(1, 1, 1)))
    assert str(lad) == "N=2 m=2 base=[2,0] rungs=[F1^1, E1^1]"
    assert Ladder.parse(str(lad)) == lad
    rng = random.Random(23)
    for _ in range(60):
        lad = random_ladder(rng)
        assert Ladder.parse(str(lad)) == lad
    empty = Ladder(3, 2, GlWeight((1, 2)))
    assert Ladder.parse(str(empty)) == empty


def test_highest_weight_ladder():
    hw = highest_weight_ladder(2, 3, 1)
    assert hw.base == (2, 0, 0) and hw.top == (2, 0, 0) and not hw.rungs


# ---------------------------------------------------------------- lin combs


def test_weblincomb_basics():
    lad = Ladder(2, 2, GlWeight((1, 1)))
    one = WebLinComb.of(lad)
    two = one + one
    assert two.coeff(lad) == LaurentPoly.const(2)
    assert (two - two).is_zero()
    q = LaurentPoly.q_power(1)
    assert (q * one).coeff(lad) == q


def test_weblincomb_rejects_mixed_boundary():
    a = WebLinComb.of(Ladder(2, 2, GlWeight((1, 1))))
    b = WebLinComb.of(Ladder(2, 2, GlWeight((2, 0))))
    with pytest.raises(WeightMismatch):
        a + b
    with pytest.raises(WeightMismatch):
        WebLinComb(2, 2, (1, 1), (1, 1), {Ladder(2, 2, GlWeight((2, 0))): 1})
