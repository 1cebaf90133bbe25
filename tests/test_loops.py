import pytest

from cocycle_lab.cabling import (LONG_FIG8_W1, LONG_TREFOIL, LONG_TORUS25,
                                 normalize_w1)
from cocycle_lab.cocycle import evaluate, evaluate_all
from cocycle_lab.loops import (PlannerError, pairing, push_full_twist_loop,
                               push_loop, rotation_loop, scan_path)
from cocycle_lab.moves import verify_movie

TREFOIL1 = normalize_w1(LONG_TREFOIL, 1)


def test_push_loop_is_closed():
    movie = push_loop([1], TREFOIL1, 2)
    assert movie.is_closed()


def test_push_loop_verifies_semi_regular():
    verify_movie(push_loop([1], TREFOIL1, 2))


def test_rotation_loop_is_closed():
    assert rotation_loop([1], TREFOIL1, 2).is_closed()


def test_scan_path_matches_rotation_value():
    n = 2
    rot = evaluate(rotation_loop([1], TREFOIL1, n), 1)
    scan = evaluate(scan_path([1], TREFOIL1, n), 1)
    assert rot == scan


def test_full_twist_loop_is_closed():
    assert push_full_twist_loop([1], TREFOIL1, 2).is_closed()


def test_unknot_loops_vanish():
    assert evaluate_all(push_loop([1], "", 2)) == {1: 0}
    assert evaluate_all(rotation_loop([1], "", 2)) == {1: 0}


def test_push_values_do_not_depend_on_parameterisation_details():
    # the same loop built twice gives the same movie
    a = push_loop([1], TREFOIL1, 2)
    b = push_loop([1], TREFOIL1, 2)
    assert [type(m).__name__ for m in a.moves] == [type(m).__name__ for m in b.moves]


def test_pairing_examples():
    assert evaluate_all(pairing("", TREFOIL1, 2)) == {1: 1}
    assert evaluate_all(pairing("", "", 2)) == {1: 0}


def test_pairing_rejects_uncabled_mover():
    with pytest.raises(PlannerError):
        pairing(LONG_TREFOIL, "", 2)


def test_three_cable_push_runs():
    movie = push_loop([1, 2], normalize_w1(LONG_TREFOIL, 1), 3)
    assert movie.is_closed()
    values = evaluate_all(movie)
    assert set(values) == {1, 2}


def test_fig8_fixture_framing():
    movie = rotation_loop([1], LONG_FIG8_W1, 2)
    assert movie.is_closed()


ITINERARIES = {
    'trefoil': (
        [('hop', 0), ('block', 1, 'lower'), ('block', 2, 'upper'),
         ('block', 3, 'lower'), ('turn', 4, 'lower'), ('hop', 3), ('hop', 2),
         ('hop', 1), ('turn', 0, 'upper'), ('block', 1, 'upper'),
         ('block', 2, 'lower'), ('block', 3, 'upper'), ('hop', 4)],
        [('hop', 4), ('block', 3, 'lower'), ('block', 2, 'upper'),
         ('block', 1, 'lower'), ('turn', 0, 'lower'), ('hop', 1), ('hop', 2),
         ('hop', 3), ('turn', 4, 'upper'), ('block', 3, 'upper'),
         ('block', 2, 'lower'), ('block', 1, 'upper'), ('hop', 0)]),
    'fig8': (
        [('hop', 0), ('block', 1, 'lower'), ('block', 2, 'lower'), ('hop', 3),
         ('block', 4, 'upper'), ('turn', 5, 'upper'), ('hop', 4),
         ('block', 3, 'lower'), ('block', 2, 'lower'), ('hop', 1),
         ('turn', 0, 'upper'), ('block', 1, 'upper'), ('hop', 2),
         ('block', 3, 'lower'), ('block', 4, 'lower'), ('hop', 5)],
        [('hop', 5), ('block', 4, 'upper'), ('block', 3, 'upper'), ('hop', 2),
         ('block', 1, 'lower'), ('turn', 0, 'lower'), ('hop', 1),
         ('block', 2, 'upper'), ('block', 3, 'upper'), ('hop', 4),
         ('turn', 5, 'lower'), ('block', 4, 'lower'), ('hop', 3),
         ('block', 2, 'upper'), ('block', 1, 'upper'), ('hop', 0)]),
    'torus25': (
        [('hop', 0), ('block', 1, 'lower'), ('block', 2, 'upper'),
         ('block', 3, 'lower'), ('block', 4, 'upper'), ('block', 5, 'lower'),
         ('turn', 6, 'lower'), ('hop', 5), ('hop', 4), ('hop', 3), ('hop', 2),
         ('hop', 1), ('turn', 0, 'upper'), ('block', 1, 'upper'),
         ('block', 2, 'lower'), ('block', 3, 'upper'), ('block', 4, 'lower'),
         ('block', 5, 'upper'), ('hop', 6)],
        [('hop', 6), ('block', 5, 'lower'), ('block', 4, 'upper'),
         ('block', 3, 'lower'), ('block', 2, 'upper'), ('block', 1, 'lower'),
         ('turn', 0, 'lower'), ('hop', 1), ('hop', 2), ('hop', 3), ('hop', 4),
         ('hop', 5), ('turn', 6, 'upper'), ('block', 5, 'upper'),
         ('block', 4, 'lower'), ('block', 3, 'upper'), ('block', 2, 'lower'),
         ('block', 1, 'upper'), ('hop', 0)]),
}


@pytest.mark.parametrize('name', sorted(ITINERARIES))
def test_companion_itinerary_records(name):
    from cocycle_lab.cabling import LONG_FIG8, long_events
    from cocycle_lab.loops import companion_itinerary
    text = {'trefoil': LONG_TREFOIL, 'fig8': LONG_FIG8,
            'torus25': LONG_TORUS25}[name]
    levs = long_events(text)
    forward, backward = ITINERARIES[name]
    assert list(companion_itinerary(levs)) == forward
    assert list(companion_itinerary(levs, start=(len(levs), 1, -1))) == backward


def test_planner_movies_are_pinned():
    # the move lists of the benchmark's 12 transport-grid loops, scan at
    # n = 3, the n = 2 pairing and the 60 scan-invariance variants: a
    # change to the planner must not change the moves it emits
    import hashlib

    from cocycle_lab.cabling import LONG_FIG8, LONG_TORUS27
    from cocycle_lab.verify import CABLE_FIXTURES, semi_regular_variant
    knots = {'trefoil': LONG_TREFOIL, 'torus25': LONG_TORUS25,
             'torus27': LONG_TORUS27, 'fig8': LONG_FIG8}
    grid = [(push_loop, 'trefoil', 1, 2), (push_loop, 'trefoil', 1, 3),
            (push_loop, 'trefoil', 1, 4), (push_loop, 'torus27', 2, 2),
            (push_loop, 'torus27', 2, 3), (push_loop, 'torus25', 2, 2)]
    for knot, w1 in (('trefoil', 1), ('fig8', -1)):
        grid += [(rotation_loop, knot, w1, 2), (scan_path, knot, w1, 2),
                 (push_full_twist_loop, knot, w1, 2)]
    movies = [plan(list(range(1, n)), normalize_w1(knots[knot], w1), n)
              for plan, knot, w1, n in grid]
    movies += [scan_path([1, 2], TREFOIL1, 3), pairing("", TREFOIL1, 2)]
    for _, tangle, text, n in CABLE_FIXTURES[:3]:
        for s in range(20):
            movies.append(scan_path(*semi_regular_variant(tangle, text, s * 31 + 7), n))
    digest = hashlib.sha256()
    for movie in movies:
        digest.update((repr(movie.moves) + "\n").encode())
    assert len(movies) == 74
    assert digest.hexdigest() == (
        'f536971cd120053ccbd215c58f7b5921183df54a072e24dfaa2f488729954886')
