"""Today's values of the cocycle on loops whose values the paper's
identities tie together, pinned as literals.

The pairing table scales with the exponent of the closing tangle; the
push value does not depend on the tangle's word in B_3 or on
semi-regular changes of the knot; reversing a loop negates its value;
the push value factors through v2 of the knot pushed; the first
values that depend on a are pinned with their polynomials; and the scan
value has a closed form in v2, n and w1, which the rotation loop shares
and the full-twist loop negates.
"""

import random

import pytest

from cocycle_lab.cabling import (LONG_FIG8, LONG_MIRROR_TREFOIL, LONG_TORUS25,
                                 LONG_TREFOIL, LONG_UNKNOT, braid_events,
                                 closed_cable, long_events, normalize_w1)
from cocycle_lab.cocycle import (evaluate_all, interpolation_polynomial,
                                 polynomial_text)
from cocycle_lab.gauss import v2
from cocycle_lab.loops import (push_full_twist_loop, push_loop, rotation_loop,
                               scan_path)
from cocycle_lab.oracle import conway
from cocycle_lab.verify import semi_regular_variant

KNOTS = (LONG_UNKNOT, LONG_TREFOIL, LONG_FIG8, LONG_TORUS25,
         LONG_MIRROR_TREFOIL)
TREFOIL1 = normalize_w1(LONG_TREFOIL, 1)
FIG8_M1 = normalize_w1(LONG_FIG8, -1)
# v2 of the closures of KNOTS
KNOT_V2 = (0, 1, -1, 3, 1)


@pytest.mark.parametrize('tangle, values', [
    ([1], [0, 1, -1, 3, 1]),
    ([1, 1, 1], [0, 3, -3, 9, 3]),
    ([-1], [0, -1, 1, -3, -1]),
    ([1] * 5, [0, 5, -5, 15, 5]),
], ids=['s1', 's1^3', 's1^-1', 's1^5'])
def test_pairing_table_at_n2(tangle, values):
    # unknot, trefoil, fig8, torus25, mirror trefoil, all at w1 = 1
    got = [evaluate_all(push_loop(tangle, normalize_w1(k, 1), 2)) for k in KNOTS]
    assert got == [{1: v} for v in values]


@pytest.mark.parametrize('tangle, value', [
    ([1, 2], 2), ([2, 1], 2), ([1, 1, 2, -1], 2), ([-2, 1, 2, 2], 2),
    ([1, 2, 1, -1], 2),
    ([1, -2], 0), ([-2, 1], 0), ([2, 1, -2, -2], 0),
])
def test_push_trefoil_n3_depends_only_on_the_tangle_class(tangle, value):
    assert evaluate_all(push_loop(tangle, TREFOIL1, 3)) == {1: value, 2: value}


def test_push_trefoil_is_invariant_under_semi_regular_variants():
    for s in range(20):
        tangle, text = semi_regular_variant([1], TREFOIL1, 31 * s + 7)
        assert evaluate_all(push_loop(tangle, text, 2)) == {1: 1}, s


@pytest.mark.parametrize('build', [
    lambda: push_loop([1], TREFOIL1, 2),
    lambda: push_loop([1, 2], TREFOIL1, 3),
    lambda: push_loop([1], normalize_w1(LONG_TORUS25, 1), 2),
    lambda: rotation_loop([1], TREFOIL1, 2),
    lambda: push_full_twist_loop([1], FIG8_M1, 2),
    lambda: scan_path([1], FIG8_M1, 2),
], ids=['push-trefoil-2', 'push-trefoil-3', 'push-torus25-2',
        'rotation-trefoil', 'full-twist-fig8', 'scan-fig8'])
def test_reversal_negates_the_value(build):
    movie = build()
    value = evaluate_all(movie)
    assert any(value.values())
    assert evaluate_all(movie.reversed()) == {a: -v for a, v in value.items()}


def _closes_to_a_knot(word, n):
    """Is the closure permutation of the braid word an n-cycle?"""
    perm = list(range(n))
    for g in word:
        i = abs(g) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    length, p = 1, perm[0]
    while p:
        length, p = length + 1, perm[p]
    return length == n


def _connected_tangles(seed, per_n=3):
    """Seeded braid words of n - 1 to n + 1 letters of either sign, per_n
    of them at each n = 2..4, whose closures are knots."""
    rng = random.Random(seed)
    out = []
    for n in (2, 3, 4):
        words = []
        while len(words) < per_n:
            word = [rng.choice((1, -1)) * rng.randrange(1, n)
                    for _ in range(rng.randrange(n - 1, n + 2))]
            if _closes_to_a_knot(word, n):
                words.append(word)
        out += [(word, n) for word in words]
    return out


def _knot_v2(text):
    return v2(closed_cable([], long_events(text), 1).gauss())


def _conway_z2(text):
    return conway(closed_cable([], long_events(text), 1)).get(2, 0)


CONNECTED = _connected_tangles(0)


@pytest.mark.parametrize('tangle, n', CONNECTED,
                         ids=[f"n{n}:{','.join(map(str, w))}" for w, n in CONNECTED])
@pytest.mark.parametrize('w1', [1, 2])
def test_push_value_factors_through_v2(tangle, n, w1):
    # push(T, K, w1, n)(a) = v2(K) * push(T, trefoil, w1, n)(a); the
    # mirror trefoil's v2 is read from the Conway polynomial instead
    unit = evaluate_all(push_loop(tangle, normalize_w1(LONG_TREFOIL, w1), n))
    for text, v in ((LONG_UNKNOT, _knot_v2(LONG_UNKNOT)),
                    (LONG_FIG8, _knot_v2(LONG_FIG8)),
                    (LONG_TORUS25, _knot_v2(LONG_TORUS25)),
                    (LONG_MIRROR_TREFOIL, _conway_z2(LONG_MIRROR_TREFOIL))):
        got = evaluate_all(push_loop(tangle, normalize_w1(text, w1), n))
        assert got == {a: v * u for a, u in unit.items()}, text


def test_knot_v2_values():
    assert [_knot_v2(k) for k in KNOTS] == list(KNOT_V2)
    assert [_conway_z2(k) for k in KNOTS] == list(KNOT_V2)


@pytest.mark.parametrize('n, w1, unit', [
    (2, 1, 1), (3, 1, 2), (4, 1, 3), (2, 2, 3), (3, 2, 5), (4, 2, 7),
])
def test_push_closed_form_for_the_standard_tangle(n, w1, unit):
    # push(s1 ... s(n-1), K, w1, n) = v2(K) * (n * w1 - 1) at every a
    assert unit == n * w1 - 1
    for text, v in zip(KNOTS, KNOT_V2):
        got = evaluate_all(push_loop(list(range(1, n)), normalize_w1(text, w1), n))
        assert got == {a: v * unit for a in range(1, n)}, text


@pytest.mark.parametrize('knot, tangle, n, values, text', [
    (LONG_TREFOIL, [-3, 1, 2], 4, {1: 0, 2: 3, 3: 0}, '-9 + 12*a + -3*a^2'),
    (LONG_TREFOIL, [1, -2, -3, 2, 3], 4, {1: 3, 2: -3, 3: 3},
     '21 + -24*a + 6*a^2'),
    (LONG_TREFOIL, [3, 1, -2, 3, 4, -2, -1, 2], 5, {1: 4, 2: 0, 3: 0, 4: 4},
     '12 + -10*a + 2*a^2'),
    (LONG_FIG8, [-3, 1, 2], 4, {1: 0, 2: -3, 3: 0}, '9 + -12*a + 3*a^2'),
], ids=['trefoil-s3\'s1s2', 'trefoil-n4-five', 'trefoil-n5-eight',
        'fig8-s3\'s1s2'])
def test_push_values_that_depend_on_a(knot, tangle, n, values, text):
    got = evaluate_all(push_loop(tangle, normalize_w1(knot, 1), n))
    assert got == values
    assert polynomial_text(interpolation_polynomial(got)) == text


PER_CROSSING = _connected_tangles(0, per_n=4)


@pytest.mark.parametrize('tangle, n', PER_CROSSING,
                         ids=[f"n{n}:{','.join(map(str, w))}" for w, n in PER_CROSSING])
def test_push_rows_sum_crossing_by_crossing(tangle, n):
    # the start of a push loop numbers the tangle's crossings 1..len(T),
    # and each contributing row is booked to one of them, its ml; the rows
    # of crossing c sum to sign(c) * [marking(c) = a] * v2(K) * (n*w1 - 1),
    # with sign and marking read off the tangle's own closure
    closure = closed_cable(braid_events(tangle), [], n).gauss()
    marks = closure.markings()
    assert sorted(closure.signs) == list(range(1, len(tangle) + 1))
    booked = 0
    for text, v in zip(KNOTS[1:3], KNOT_V2[1:3]):     # trefoil, fig8
        for w1 in (-1, 0, 1, 2):
            movie = push_loop(tangle, normalize_w1(text, w1), n)
            for a, report in evaluate_all(movie, report=True).items():
                got = {}
                for row in report.contributing():
                    got[row.triple.ml] = got.get(row.triple.ml, 0) + row.contrib
                want = {c: sign * v * (n * w1 - 1)
                        for c, sign in closure.signs.items() if marks[c] == a}
                assert ({c: s for c, s in got.items() if s}
                        == {c: s for c, s in want.items() if s}), (text, w1, a)
                booked += any(want.values())
    assert booked > 0


SCANNED = _connected_tangles(0, per_n=2)


@pytest.mark.parametrize('tangle, n', SCANNED,
                         ids=[f"n{n}:{','.join(map(str, w))}" for w, n in SCANNED])
def test_scan_closed_form(tangle, n):
    # scan(T, K, w1, n)(a) = -v2(K) * n * (n * w1 - 1) at every a, for
    # every tangle: the trefoil, fig8, torus25 and mirror trefoil
    for text, v in zip(KNOTS[1:], KNOT_V2[1:]):
        for w1 in (-1, 0, 1, 2):
            got = evaluate_all(scan_path(tangle, normalize_w1(text, w1), n))
            assert got == {a: -v * n * (n * w1 - 1) for a in range(1, n)}, (text, w1)


@pytest.mark.parametrize('knot, w1, v, values', [
    (LONG_TREFOIL, 1, 1, (-2, -6, -12)),
    (LONG_FIG8, -1, -1, (-6, -12, -20)),
    (LONG_TORUS25, 2, 3, (-18, -45, -84)),
], ids=['trefoil', 'fig8', 'torus25'])
@pytest.mark.parametrize('n, k', [(2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (4, 3)])
def test_rotation_of_a_tangle_that_commutes_with_the_twist(knot, w1, v, values, n, k):
    # the tangle (s1 ... s(n-1))^k is a word that commutes with the full
    # twist (s1 ... s(n-1))^n, so the twist resplits with it, and the
    # closure is a knot for k prime to n: both twist loops close, and
    # rotation = scan = -v2(K) * n * (n * w1 - 1) = -(full twist) at every a
    value = values[n - 2]
    assert value == -v * n * (n * w1 - 1)
    tangle, text = list(range(1, n)) * k, normalize_w1(knot, w1)
    rotation = rotation_loop(tangle, text, n)
    twist = push_full_twist_loop(tangle, text, n)
    assert rotation.is_closed() and twist.is_closed()
    want = {a: value for a in range(1, n)}
    assert evaluate_all(rotation) == want
    assert evaluate_all(scan_path(tangle, text, n)) == want
    assert evaluate_all(twist) == {a: -value for a in range(1, n)}
