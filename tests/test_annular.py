import random

import pytest

from cocycle_lab import annular, moves
from cocycle_lab.annular import (AnnularDiagram, DiagramError, MorseEvent,
                                 format_morse, parse_events, parse_morse,
                                 strand_step, window_strands)
from cocycle_lab.cabling import (LONG_FIG8, LONG_TORUS25, LONG_TORUS27,
                                 LONG_TREFOIL, normalize_w1)
from cocycle_lab.loops import (push_full_twist_loop, push_loop, rotation_loop,
                               scan_path)


def test_event_validation():
    bad = [(('Z', 1), 'E_KIND', "unknown event kind 'Z'"),
           (('X', 0, '+'), 'E_POS', "position 0 out of range"),
           (('X', 1), 'E_OVER', "crossing needs over flag, got ''")]
    for args, code, message in bad:
        with pytest.raises(DiagramError) as exc:
            MorseEvent(*args)
        assert exc.value.code == code
        assert str(exc.value) == f"{code}: {message}"

    # an event is an immutable value: equal fields, equal events and keys
    ev = MorseEvent('X', 2, '-', 7)
    for field in ('kind', 'pos', 'over', 'cid'):
        with pytest.raises(AttributeError):
            setattr(ev, field, getattr(ev, field))
    assert ev.pos == 2
    twin = MorseEvent('X', 2, '-', 7)
    assert twin is not ev and twin == ev and hash(twin) == hash(ev)
    assert {ev: 'found'}[twin] == 'found'
    assert ev != MorseEvent('X', 2, '-', 8) and ev != MorseEvent('X', 2, '+', 7)
    # the full-build, cube and CLI digests hash this text
    assert repr(ev) == "MorseEvent(kind='X', pos=2, over='-', cid=7)"
    assert repr(MorseEvent('U', 1)) == "MorseEvent(kind='U', pos=1, over='', cid=-1)"

    # a named tuple: it unpacks, equals and hashes as the plain tuple of
    # its fields (so the digests cannot drift), and takes keywords
    kind, pos, over, cid = ev
    assert (kind, pos, over, cid) == ('X', 2, '-', 7)
    assert ev == ('X', 2, '-', 7)
    assert hash(ev) == hash(('X', 2, '-', 7))
    assert MorseEvent(kind='X', pos=2, over='-', cid=7) == ev
    # R3's unvalidated constructor gives the same value and type
    assert annular._crossing(2, '-', 7) == ev
    assert type(annular._crossing(2, '-', 7)) is MorseEvent


def test_event_copies_and_pickles_are_equal_immutable_events():
    import copy
    import pickle

    ev = MorseEvent('X', 2, '-', 7)
    for twin in (copy.copy(ev), copy.deepcopy(ev), pickle.loads(pickle.dumps(ev))):
        assert twin.__class__ is MorseEvent and twin == ev
        with pytest.raises(AttributeError):
            twin.pos = 3
    assert pickle.loads(pickle.dumps(MorseEvent('U', 1))) == MorseEvent('U', 1)


def test_parse_format_roundtrip():
    d = parse_morse(LONG_TREFOIL, n=1, w0=1)
    assert format_morse(d) == LONG_TREFOIL
    assert parse_morse(format_morse(d), n=1, w0=1).events == d.events


def test_parse_rejects_garbage():
    with pytest.raises(DiagramError):
        parse_morse("X 1", n=1, w0=1)
    with pytest.raises(DiagramError):
        parse_morse("U 2 ; | ; A 2", n=1, w0=1)


@pytest.mark.parametrize('text, code, message', [
    ('X 1', 'E_PARSE', "cannot parse event 'X 1'"),
    ('U 2 ; X+1 ; A 2', 'E_PARSE', "cannot parse event 'X+1'"),
    ('U 2 ; | ; A 2', 'E_RAY', "ray marker only allowed at the word origin"),
    ('| ; |', 'E_RAY', "ray marker only allowed at the word origin"),
])
def test_parse_events_refuses_text_it_cannot_read(text, code, message):
    with pytest.raises(DiagramError) as exc:
        parse_events(text)
    assert (exc.value.code, str(exc.value)) == (code, f'{code}: {message}')


def test_parse_events_reads_without_building_a_diagram():
    for blank in ('', '  ', '\n ; ;', '|', ' | ; '):
        assert parse_events(blank) == []
    # ids 1, 2, ... in word order; a word that is no diagram is still read
    assert parse_events('| ; U 2 ; X- 3 ;\n X+ 1 ; A 9') == [
        ('U', 2, '', -1), ('X', 3, '-', 1), ('X', 1, '+', 2), ('A', 9, '', -1)]
    assert parse_morse(LONG_TREFOIL).events == parse_events(LONG_TREFOIL)


def test_parse_reads_a_leading_ray_marker_as_the_origin():
    plain = parse_morse(LONG_TREFOIL, n=1, w0=1)
    assert parse_morse("| ; " + LONG_TREFOIL, n=1, w0=1).events == plain.events


def test_width_must_close_up():
    with pytest.raises(DiagramError):
        parse_morse("U 1 ; U 1", n=1, w0=1).widths()


def test_single_component_required():
    # a circle next to a straight strand is two components
    with pytest.raises(DiagramError):
        parse_morse("U 2 ; A 2", n=1, w0=1).gauss()



@pytest.mark.parametrize('text, w0', [
    ('X+ 1 ; X+ 1', 2),         # two components, each crossing the ray
    ('U 1 ; A 1', 0),           # no strand on the ray
    ('U 1 ; X+ 1 ; A 1', 0),
    ('', 2),                    # a bare word of two rings
    ('', 0),
])
def test_every_component_is_refused(text, w0):
    with pytest.raises(DiagramError) as exc:
        parse_morse(text, n=1, w0=w0)
    assert exc.value.code == 'E_COMPONENTS'

def test_crossing_ids_are_persistent():
    d = parse_morse(LONG_TREFOIL, n=1, w0=1)
    cids = [e.cid for e in d.events if e.kind == 'X']
    assert cids == [1, 2, 3]


def test_gauss_of_trefoil_closure():
    d = parse_morse(LONG_TREFOIL, n=1, w0=1)
    g = d.gauss()
    assert g.homology_class == 1
    assert len(g.signs) == 3
    assert all(s == 1 for s in g.signs.values())



def test_negative_loop_is_found_and_refused():
    # the smoothing at crossing 1 closes a loop of winding -1
    from cocycle_lab.cocycle import Movie
    from cocycle_lab.moves import MoveError, verify_movie
    d = parse_morse('U 1 ; X+ 2 ; X+ 2 ; A 3 ; X+ 2', n=1, w0=3)
    assert d.gauss().homology_class == 1
    assert d.check_no_negative_loops() == (False, [1])
    with pytest.raises(MoveError) as exc:
        verify_movie(Movie(d, []))
    assert exc.value.code == 'E_NEGLOOP'

def _build_outcome(n, events, w0):
    """The Gauss tokens and sorted signs of a full build, or its error code."""
    try:
        g = AnnularDiagram(n, events, w0=w0).gauss()
    except DiagramError as exc:
        return exc.code
    return g.tokens, sorted(g.signs.items())


def _transport_grid_inputs():
    """The planner, framed long word and class n of each transport-grid
    movie."""
    trefoil = normalize_w1(LONG_TREFOIL, 1)
    grid = [(push_loop, trefoil, n) for n in (2, 3, 4)] + [
        (push_loop, normalize_w1(LONG_TORUS27, 2), 2),
        (push_loop, normalize_w1(LONG_TORUS27, 2), 3),
        (push_loop, normalize_w1(LONG_TORUS25, 2), 2),
    ] + [(planner, knot, 2)
         for knot in (trefoil, normalize_w1(LONG_FIG8, -1))
         for planner in (rotation_loop, scan_path, push_full_twist_loop)]
    return grid


def _transport_grid_movies():
    """The twelve movies of the transport grid, built afresh."""
    return [planner(list(range(1, n)), knot, n)
            for planner, knot, n in _transport_grid_inputs()]


def test_full_builds_are_pinned():
    # every full build of three input sets, in order: short words over
    # U/A/X at positions 1..3, closures of short braid words, and every
    # state of the transport-grid movies rebuilt from its word
    import hashlib
    import itertools

    from cocycle_lab.cabling import braid_events

    outcomes = []
    alphabet = [(kind, pos, over) for pos in (1, 2, 3)
                for kind, over in (('U', ''), ('A', ''), ('X', '+'), ('X', '-'))]
    for w0 in range(4):
        for size in range(4):
            for word in itertools.product(alphabet, repeat=size):
                events = [MorseEvent(kind, pos, over, cid if kind == 'X' else -1)
                          for cid, (kind, pos, over) in enumerate(word, 1)]
                outcomes.append(_build_outcome(1, events, w0))
    for strands in (2, 3, 4):
        gens = [g for i in range(1, strands) for g in (i, -i)]
        for size in range(5):
            for word in itertools.product(gens, repeat=size):
                outcomes.append(_build_outcome(strands, braid_events(word), strands))
    for movie in _transport_grid_movies():
        for state in movie.states():
            outcomes.append(_build_outcome(state.n, list(state.events), state.w0))

    digest = hashlib.sha256()
    for outcome in outcomes:
        digest.update((repr(outcome) + "\n").encode())
    assert len(outcomes) == 10451
    assert digest.hexdigest() == (
        'd649d3ebb6cfb24ca8fe1a50d6cca1bff1cd58314dcf1092ef6ca8f2d6decec3')


def _walk_window(events, widths):
    """Reference for window_strands: every piece followed event by event
    with strand_step, from the first of its two boundary ports."""
    k = len(events)
    pieces, passes, ends = {}, {}, set()
    reached = 0
    ports = [(0, p) for p in range(1, widths[0] + 1)]
    ports += [(1, p) for p in range(1, widths[k] + 1)]
    for start in ports:
        if start in ends:
            continue
        p = start[1]
        t, forward = (k, False) if start[0] else (0, True)
        tokens = []
        while t != (k if forward else 0):
            ev_i = t if forward else t - 1
            ev = events[ev_i]
            leaving, p, line = strand_step(ev, forward, p)
            if line:
                passes.setdefault(ev.cid, (ev.over, {}))[1][line] = 1 if forward else -1
                over = (line == 1) == (ev.over == '+')
                tokens.append(('h' if over else 'f', ev.cid))
            t, forward = (ev_i + 1 if leaving else ev_i), leaving
            reached += 0 < t < k
        end = (1 if forward else 0, p)
        ends.add(end)
        pieces[start] = (end, tuple(tokens))
    if reached != sum(widths[1:k]):
        return None
    signs = {cid: d[1] * d[2] * (1 if over == '+' else -1)
             for cid, (over, d) in passes.items()}
    return pieces, signs


def _random_window(rng):
    """Up to 12 random U/A/X events that fit a slice of 0..5 strands,
    with the widths of all their slices."""
    events, widths = [], [rng.randrange(6)]
    for cid in range(1, rng.randint(0, 12) + 1):
        w = widths[-1]
        kind = rng.choice('UAX' if w >= 2 else 'U')
        pos = rng.randint(1, w + 1 if kind == 'U' else w - 1)
        if kind == 'X':
            events.append(MorseEvent('X', pos, rng.choice('+-'), cid))
        else:
            events.append(MorseEvent(kind, pos))
        widths.append(w + events[-1].delta)
    return events, widths


def test_window_strands_matches_the_port_walk(monkeypatch):
    # pieces, signs and None agree with the reference walk on three sets:
    # the old and new windows that the Rearranges of the transport-grid
    # movies check, random windows, and the whole words of the movie
    # states (one window each, as full validation cuts them at the ray)
    checked = []

    def recording(events, widths):
        checked.append((list(events), list(widths)))
        return window_strands(events, widths)

    monkeypatch.setattr(moves, 'window_strands', recording)
    movies = _transport_grid_movies()
    monkeypatch.undo()
    assert checked
    rng = random.Random(13)
    windows = [_random_window(rng) for _ in range(4000)]
    whole = [(state.events, state.widths() + [state.w0])
             for movie in movies for state in movie.states()]
    closed = 0
    for events, widths in checked + windows + whole:
        want = _walk_window(events, widths)
        assert window_strands(events, widths) == want, (events, widths)
        closed += want is None
    assert closed > 100
