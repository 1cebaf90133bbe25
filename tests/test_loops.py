import pytest

from cocycle_lab.annular import DiagramError
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


# malformed long words, each refused with its code by the parser or the
# full build of the word alone (see test_cli's refusals)
MALFORMED = [('U 2 ; X+ 3 ; A 2', 'E_POS'), ('U 1', 'E_WIDTH'),
             ('U 2 ; A 2 ; U 2 ; A 2', 'E_COMPONENTS'), ('U 2 ; X 1 ; A 2', 'E_PARSE'),
             ('U 2 ; | ; A 2', 'E_RAY'), ('U 2 ; X+ 0 ; A 2', 'E_POS')]


@pytest.mark.parametrize('text, code', MALFORMED)
@pytest.mark.parametrize('n', [2, 3])
@pytest.mark.parametrize('planner', [push_loop, rotation_loop, scan_path,
                                     push_full_twist_loop])
def test_planners_refuse_a_malformed_word_with_its_code(planner, n, text, code):
    # the word is checked once, as part of the planner's start diagram
    with pytest.raises(DiagramError) as exc:
        planner(list(range(1, n)), text, n)
    assert exc.value.code == code


def test_a_planner_quotes_its_start_diagram():
    with pytest.raises(DiagramError, match='^E_POS: crossing at 6 exceeds width 6$'):
        push_loop([1], 'U 2 ; X+ 3 ; A 2', 2)
    # no diagram is built from pairing's left word: it is quoted as itself
    with pytest.raises(DiagramError, match='^E_POS: crossing at 3 exceeds width 3$'):
        pairing('U 2 ; X+ 3 ; A 2', TREFOIL1, 2)


@pytest.mark.parametrize('text, code', MALFORMED)
def test_pairing_refuses_a_malformed_left_word_as_itself(text, code):
    with pytest.raises(DiagramError) as exc:
        pairing(text, TREFOIL1, 2)
    assert exc.value.code == code


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


def _companion_walk(events, start=(0, 1, 1)):
    """Reference for the planner's steps: the companion circuit of a long
    knot word, walked strand by strand through the uncabled word.

    The state is (slot, strand position, direction); slot i sits between
    events i-1 and i.  Returns records referring to event indices:

        ('hop', i)            strand-disjoint passage
        ('block', i, role)    crossing passage, role 'lower'/'upper'
        ('turn', i, role)     reversal at a cap (forward) or cup (backward)

    The walk starts just after the ray on the incoming strand and stops
    on reaching the ray again, in either direction.
    """
    from cocycle_lab.annular import strand_step
    m = len(events)
    t, p, d = start
    out = []
    while t != (m if d == 1 else 0):
        assert len(out) <= 2 * (m + 1) ** 2, "companion circuit does not close"
        i = t if d == 1 else t - 1
        role = 'lower' if p == events[i].pos else 'upper'
        leaving, p, line = strand_step(events[i], d == 1, p)
        if line:
            out.append(('block', i, role))
        elif leaving != (d == 1):
            out.append(('turn', i, role))
        else:
            out.append(('hop', i))
        t, d = (i + 1, 1) if leaving else (i, -1)
    return out


@pytest.fixture
def planner_steps(monkeypatch):
    """The steps the transport planner takes, recorded as walk records:
    the facing unit is named by its index among the cable units."""
    from cocycle_lab.loops import _Transport
    steps = []

    def recording(name, step):
        def wrapped(tr):
            # a wrong step rule can walk forever: stop past the walk's bound
            assert len(steps) <= 2 * (len(tr.units) + 1) ** 2, "the slide does not end"
            v = tr.units[tr.mi + tr.d]
            cable = [u for u in tr.units if u.kind not in ('mover', 'tangle')]
            # by identity: units of equal blocks compare equal
            i = [id(u) for u in cable].index(id(v))
            role = 'lower' if tr.b == v.q else 'upper'
            steps.append(('hop', i) if name == 'hop' else (name, i, role))
            step(tr)
        return wrapped

    for name, attr in (('hop', 'hop'), ('turn', 'turn'), ('block', 'block_pass')):
        monkeypatch.setattr(_Transport, attr, recording(name, getattr(_Transport, attr)))
    return steps


def _walked(steps, plan, text, n):
    steps.clear()
    plan(list(range(1, n)), text, n)
    return list(steps)


@pytest.mark.parametrize('name', sorted(ITINERARIES))
def test_companion_itinerary_records(planner_steps, name):
    # the push follows the circuit forward, the scan backward
    from cocycle_lab.cabling import LONG_FIG8, long_events
    text = {'trefoil': LONG_TREFOIL, 'fig8': LONG_FIG8,
            'torus25': LONG_TORUS25}[name]
    levs = long_events(text)
    forward, backward = ITINERARIES[name]
    assert _companion_walk(levs) == forward
    assert _companion_walk(levs, start=(len(levs), 1, -1)) == backward
    assert _walked(planner_steps, push_loop, text, 2) == forward
    assert _walked(planner_steps, scan_path, text, 2) == backward


def _random_long_word(rng, size):
    """A seeded long knot word of at least size events and at most width
    5: its single strand enters and leaves at position 1."""
    from cocycle_lab.annular import AnnularDiagram, MorseEvent, format_morse
    from cocycle_lab.gauss import DiagramError
    while True:
        events, w = [], 1
        while len(events) < size or w > 1:
            kind = rng.choice((['U'] if w < 5 else []) + (['A', 'X', 'X'] if w > 1 else []))
            if kind == 'U':
                events.append(MorseEvent('U', rng.randint(1, w + 1)))
                w += 2
            elif kind == 'A':
                events.append(MorseEvent('A', rng.randint(1, w - 1)))
                w -= 2
            else:
                events.append(MorseEvent('X', rng.randint(1, w - 1), rng.choice('+-'),
                                         len(events) + 1))
        try:
            return format_morse(AnnularDiagram(1, events, w0=1))
        except DiagramError:
            pass        # a closed component split off


def test_planner_steps_follow_the_companion_walk_on_random_words(planner_steps):
    import random

    from cocycle_lab.cabling import long_events
    rng = random.Random(23)
    for _ in range(40):
        text = _random_long_word(rng, rng.randint(1, 14))
        levs = long_events(text)
        forward = _companion_walk(levs)
        backward = _companion_walk(levs, start=(len(levs), 1, -1))
        for n in (2, 3):
            assert _walked(planner_steps, push_loop, text, n) == forward, text
            assert _walked(planner_steps, scan_path, text, n) == backward, text


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


def _refactored_reference(evs, q, n, style):
    """The block reordered through crossing labels: each crossing is
    named by the frozenset of its two strands' labels, and the block is
    written afresh, row by row or run by run, at the positions of
    cabling.bundle_swap_rows."""
    from cocycle_lab.annular import MorseEvent
    from cocycle_lab.cabling import bundle_swap_rows
    labels = {q + k: ('A', k + 1) for k in range(n)}
    labels.update({q + n + k: ('B', k + 1) for k in range(n)})
    pair_cid = {}
    over = evs[0].over
    for e in evs:
        a, b = labels[e.pos], labels[e.pos + 1]
        pair_cid[frozenset((a, b))] = e.cid
        labels[e.pos], labels[e.pos + 1] = b, a
        over = e.over
    out = []
    if style == 'rows':
        for r, row in zip(range(n, 0, -1), bundle_swap_rows(q, n)):
            for k, pos in enumerate(row):
                cid = pair_cid[frozenset((('A', r), ('B', k + 1)))]
                out.append(MorseEvent('X', pos, over, cid))
    else:
        for j in range(1, n + 1):
            for step, pos in enumerate(range(q + n + j - 2, q + j - 2, -1)):
                cid = pair_cid[frozenset((('B', j), ('A', n - step)))]
                out.append(MorseEvent('X', pos, over, cid))
    return out


def _random_block(rng, q, n, cids, over):
    """A random order of the block carrying bundle A (n strands from q)
    across bundle B: cross any adjacent A-below-B pair until A is above."""
    from cocycle_lab.annular import MorseEvent
    at = ['A'] * n + ['B'] * n
    out = []
    for cid in cids:
        i = rng.choice([i for i in range(2 * n - 1) if at[i:i + 2] == ['A', 'B']])
        at[i], at[i + 1] = 'B', 'A'
        out.append(MorseEvent('X', q + i, over, cid))
    return out


@pytest.mark.parametrize('n', [2, 3, 4, 5])
def test_refactored_blocks_match_the_label_reference(n):
    # random orders of the first crossing block of the trefoil's n-cable,
    # reordered 'rows' and 'runs' by the planner and by the reference
    import random

    from cocycle_lab.annular import AnnularDiagram
    from cocycle_lab.cabling import braid_events, closed_cable, long_events
    from cocycle_lab.loops import _Transport, _Unit, _cable_units
    levs = long_events(TREFOIL1)
    start = closed_cable(braid_events(range(1, n)), levs, n)
    units = [_Unit('mover', n - 1, 1)] + _cable_units(levs, n)
    ui = next(i for i, u in enumerate(units) if u.kind == 'block')
    s, q = sum(u.length for u in units[:ui]), units[ui].q
    block = start.events[s:s + n * n]
    rng = random.Random(n)
    reordered = set()
    for _ in range(20):
        evs = _random_block(rng, q, n, [e.cid for e in block], block[0].over)
        d = AnnularDiagram(n, start.events[:s] + evs + start.events[s + n * n:])
        for style in ('rows', 'runs'):
            tr = _Transport(d, units, 1)
            tr._refactor_block(s, units[ui], style)
            want = _refactored_reference(evs, q, n, style)
            assert tr.movie.final().events[s:s + n * n] == want
            if want != evs:
                reordered.add(style)
    assert reordered == {'rows', 'runs'}
