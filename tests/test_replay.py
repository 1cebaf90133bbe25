"""Differential test of movie replay.

Exchange, R3, R2Create, R2Delete, R1Delete, a Rearrange that passes its
window check and a ray shift of a crossing splice the state they leave
behind from the parent's instead of traversing the diagram again.
After every move of every movie here, the replayed state must agree
with the same event word built from scratch by the public, fully
validating constructor.

A movie applies each move once and keeps only its start, its moves,
its final state and one record per triple point move.  Its final state
and its records must equal what a fresh replay gives, no edit of the
list a movie hands out reaches the movie, each movie is built by one
replay, and evaluating it applies nothing.
"""

import dataclasses
import functools
import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cocycle_lab import moves, verify
from cocycle_lab.annular import (AnnularDiagram, DiagramError, MorseEvent,
                                fits, parse_morse, window_strands)
from cocycle_lab.cabling import (LONG_FIG8, LONG_TORUS27, LONG_TREFOIL,
                                 braid_events, closed_cable, long_events,
                                 normalize_w1)
from cocycle_lab.cli import run
from cocycle_lab.cocycle import Movie, classify_r3, evaluate_all
from cocycle_lab.discriminant import (GLOBAL_TYPES, HostError,
                                      commutation_loop, meridian_loop,
                                      quad_host, random_contractible_loop,
                                      tangency_host, tangency_loop)
from cocycle_lab.loops import (push_full_twist_loop, push_loop,
                               rotation_loop, scan_path)
from cocycle_lab.moves import (Exchange, Move, MoveError, R1Create, R1Delete,
                               R2Create, R2Delete, R3, RayShift, Rearrange,
                               r3_triple)

TREFOIL1 = normalize_w1(LONG_TREFOIL, 1)
FIG8_M1 = normalize_w1(LONG_FIG8, -1)
TORUS27_2 = normalize_w1(LONG_TORUS27, 2)


def assert_matches_reference(state, where):
    ref = AnnularDiagram(state.n, list(state.events), w0=state.w0)
    got, want = state.gauss(), ref.gauss()
    assert got.tokens == want.tokens, where
    assert got.signs == want.signs, where
    assert got.markings() == want.markings(), where
    assert all(got.position(k, cid) == want.position(k, cid)
               for cid in want.signs for k in 'hf'), where
    assert state.widths() == ref.widths(), where


def assert_replay_matches(movie):
    """Replay the movie; returns how many R3 moves it made.

    Every Rearrange must pass its window check, so that it takes the
    local path."""
    cur, r3s = movie.start, 0
    for k, mv in enumerate(movie.moves, 1):
        if isinstance(mv, Rearrange):
            assert mv.window_widths(cur) is not None, f"move {k} {mv!r}"
        cur = mv.apply(cur)
        r3s += isinstance(mv, R3)
        assert_matches_reference(cur, f"after move {k} {mv!r}")
    return r3s


def assert_planner_replay_matches(movie):
    """Planner movies make R3 moves and planner rearrangements."""
    assert assert_replay_matches(movie) > 0
    assert any(isinstance(mv, Rearrange) for mv in movie.moves)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_push_loops(n):
    assert_planner_replay_matches(push_loop(list(range(1, n)), TREFOIL1, n))


@pytest.mark.parametrize("planner", [rotation_loop, scan_path,
                                     push_full_twist_loop])
@pytest.mark.parametrize("knot", [TREFOIL1, FIG8_M1], ids=["trefoil", "fig8"])
def test_rotation_scan_and_twist_loops(planner, knot):
    assert_planner_replay_matches(planner([1], knot, 2))


def _count_validations(monkeypatch):
    """A counter of the states validated from now on."""
    calls = Counter()
    validate = AnnularDiagram.validate

    def counted(self):
        calls['validate'] += 1
        return validate(self)

    monkeypatch.setattr(AnnularDiagram, 'validate', counted)
    return calls


def _validations(monkeypatch, movie):
    """How many states a replay of the movie validates, its start included."""
    calls = _count_validations(monkeypatch)
    start = movie.start
    fresh = AnnularDiagram(start.n, list(start.events), w0=start.w0)
    Movie(fresh, movie.moves)
    return calls['validate']


def _scan_variant_movies():
    """The scans of the scan-invariance suite's 60 semi-regular variants."""
    return [scan_path(*verify.semi_regular_variant(tangle, text, seed * 31 + 7), n)
            for _, tangle, text, n in verify.CABLE_FIXTURES[:3]
            for seed in range(20)]


def _transport_grid():
    from test_annular import _transport_grid_movies
    return _transport_grid_movies()


@pytest.mark.parametrize("movies, count", [(_transport_grid, 12),
                                           (_scan_variant_movies, 60)],
                         ids=["transport-grid", "scan-variants"])
def test_replay_validates_only_start_and_ray_shifts(monkeypatch, movies, count):
    # a planner Rearrange whose window check wrongly fails, or a ray shift
    # that falls back to the full build, still replays to the same states;
    # only this count shows it: the start is the one state validated
    movies = movies()
    assert len(movies) == count
    for movie in movies:
        assert _validations(monkeypatch, movie) == 1
        monkeypatch.undo()
    assert any(isinstance(mv, Rearrange) for movie in movies for mv in movie.moves)


def test_a_planner_validates_its_word_only_in_its_start(monkeypatch):
    # the long word is read, not built: the start diagram is the one
    # state validated while each transport-grid movie is planned
    from test_annular import _transport_grid_inputs
    inputs = _transport_grid_inputs()
    assert {planner for planner, _, _ in inputs} == {
        push_loop, rotation_loop, scan_path, push_full_twist_loop}
    built = []
    validate = AnnularDiagram.validate
    monkeypatch.setattr(AnnularDiagram, 'validate',
                        lambda self: built.append(self) or validate(self))
    for planner, knot, n in inputs:
        built.clear()
        movie = planner(list(range(1, n)), knot, n)
        assert built == [movie.start], planner.__name__


# ---------------------------------------------------------------------------
# Ray shifts

def _ray_pass_movies():
    """The transport grid, push trefoil and push torus27 at n = 2..5, and
    rotation and full twist at n = 2."""
    movies = _transport_grid()
    movies += [push_loop(list(range(1, n)), knot, n)
               for n in (2, 3, 4, 5) for knot in (TREFOIL1, TORUS27_2)]
    movies += [planner([1], knot, 2) for planner in (rotation_loop, push_full_twist_loop)
               for knot in (TREFOIL1, FIG8_M1)]
    return movies


def test_planner_ray_shifts_validate_no_word(monkeypatch):
    movies = _ray_pass_movies()
    calls = _count_validations(monkeypatch)
    moved = Counter()
    for movie in movies:
        for before, mv, _ in movie.steps():
            if isinstance(mv, RayShift):
                calls.clear()
                after = mv.apply(before)
                assert calls['validate'] == 0, repr(mv)
                assert_matches_reference(after, repr(mv))
                ev = before.events[0 if mv.direction == 1 else -1]
                moved['X(1)' if ev.pos == 1 else 'X(p > 1)'] += 1
    # shifts of X(1) move the passage that anchors the token list
    assert moved['X(1)'] > 0 and moved['X(p > 1)'] > 0


def _shift_hosts(rng):
    """The corpus cables, the fig8 closures with reversed token lists and
    the kink-grafted words."""
    return ([d for _, d in verify.corpus_diagrams()] + _reversed_token_lists()
            + _kink_hosts(rng))


def assert_same_tokens(got, want, where):
    assert_same_state(got, want, where)
    assert got.gauss()._pos == want.gauss()._pos, where


@pytest.mark.parametrize("seed", range(3))
def test_seeded_ray_shifts_match_the_full_build(monkeypatch, seed):
    # a walk of shifts in both directions; each shift is undone by the
    # opposite one, and crossing shifts validate a word only where the
    # tokens do not decide the strands' directions
    rng = random.Random(seed)
    hosts = _shift_hosts(rng)
    calls = _count_validations(monkeypatch)
    kinds = Counter()
    for d in hosts:
        cur = d
        for k in range(2 * len(d.events)):
            mv = RayShift(rng.choice((1, -1)))
            kind = cur.events[0 if mv.direction == 1 else -1].kind
            calls.clear()
            after = mv.apply(cur)
            kinds[kind, calls['validate']] += 1
            assert_matches_reference(after, f"{d!r} shift {k} {mv!r}")
            back = RayShift(-mv.direction).apply(after)
            assert_same_tokens(back, cur, f"{d!r} shift {k} {mv!r} undone")
            cur = after
    assert kinds['X', 1] < kinds['X', 0] // 50
    assert kinds['U', 1] > 0 and kinds['A', 1] > 0
    assert kinds['U', 0] == kinds['A', 0] == 0


def test_a_full_turn_of_ray_shifts_returns_the_start():
    for d in _shift_hosts(random.Random(0)):
        for direction in (1, -1):
            cur = d
            for _ in d.events:
                cur = RayShift(direction).apply(cur)
            assert_same_tokens(cur, d, f"{d!r} turned {direction:+}")


@pytest.mark.parametrize("word, w0", [
    # both tokens of the crossing sit between ('r', 1) and ('r', -1), so
    # either strand may run either way
    ("X+ 1 ; A 2 ; A 1 ; U 1 ; U 2", 4),
    # a class-0 kink whose new ray slice puts position 1 on its backward
    # strand: the walk from there orients the knot the other way round
    ("X+ 1 ; A 1 ; U 1", 2),
])
def test_undecided_crossing_shifts_are_built_in_full(monkeypatch, word, w0):
    d = parse_morse(word, w0=w0)
    assert d.gauss().homology_class == 0
    calls = _count_validations(monkeypatch)
    after = RayShift(1).apply(d)
    assert calls['validate'] == 1
    assert_matches_reference(after, word)


def test_cup_and_cap_shifts_are_built_in_full(monkeypatch):
    # a cup at the word's start and a cap at its end change w0
    d = closed_cable([], long_events(LONG_TREFOIL), 1)
    assert (d.events[0].kind, d.events[-1].kind, d.w0) == ('U', 'A', 1)
    calls = _count_validations(monkeypatch)
    for mv in (RayShift(1), RayShift(-1)):
        calls.clear()
        after = mv.apply(d)
        assert calls['validate'] == 1 and after.w0 == 3, repr(mv)
        assert_matches_reference(after, repr(mv))


def _swept_window_widths(mv, diagram):
    """The window check by two sweeps (annular.window_strands) on every
    window, crossing-only ones too: the reference for the far-commutation
    check."""
    evs, w = diagram.events, diagram.widths()
    s, e = mv.slot, mv.slot + mv.count
    right = w[e] if e < len(evs) else diagram.w0
    new = [w[s] if s < len(evs) else diagram.w0]
    for ev in mv.events:
        if not fits(ev, new[-1]):
            return None
        new.append(new[-1] + ev.delta)
    if new[-1] != right:
        return None
    after = window_strands(mv.events, new)
    if after is None or after != window_strands(evs[s:e], w[s:e] + [right]):
        return None
    return new[:-1]


@pytest.mark.parametrize("movies", [_transport_grid, _scan_variant_movies],
                         ids=["transport-grid", "scan-variants"])
def test_planner_rearranges_keep_the_swept_widths_and_the_gauss_diagram(movies):
    windows = Counter()
    for movie in movies():
        for before, mv, after in movie.steps():
            if not isinstance(mv, Rearrange):
                continue
            want = _swept_window_widths(mv, before)
            assert want is not None, mv
            assert mv.window_widths(before) == want, mv
            w = before.widths()
            assert after.widths() == w[:mv.slot] + want + w[mv.slot + mv.count:]
            assert after.gauss() is before.gauss()
            windows[all(ev.kind == 'X' for ev in mv.events)] += 1
    # both checks are used: crossing-only windows and windows with a turn
    assert windows[True] > 0 and windows[False] > 0


@st.composite
def _crossing_windows(draw):
    """A crossing-only window of width 2..6 with 1..7 crossings, and a
    variant made by far-commutation shuffles, arbitrary reorders,
    position changes and flag flips."""
    w = draw(st.integers(2, 6), label="width")
    k = draw(st.integers(1, 7), label="crossings")
    old = [MorseEvent('X', draw(st.integers(1, w - 1)), draw(st.sampled_from("+-")),
                      cid) for cid in range(1, k + 1)]
    new = list(old)
    for _ in range(draw(st.integers(0, 8), label="shuffles")):
        far = [i for i in range(k - 1) if abs(new[i].pos - new[i + 1].pos) >= 2]
        if far:
            i = draw(st.sampled_from(far))
            new[i], new[i + 1] = new[i + 1], new[i]
    for _ in range(draw(st.integers(0, 2), label="edits")):
        edit = draw(st.sampled_from(("reorder", "pos", "flip")))
        if edit == "reorder":
            new = draw(st.permutations(new))
        else:
            i = draw(st.integers(0, k - 1))
            ev = new[i]
            new[i] = (MorseEvent('X', draw(st.integers(1, w - 1)), ev.over, ev.cid)
                      if edit == "pos" else _flip(ev))
    return w, old, new


@given(_crossing_windows())
@settings(max_examples=500, deadline=None)
def test_far_commutation_check_decides_as_the_sweep(case):
    w, old, new = case
    widths = [w] * (len(old) + 1)
    swept = window_strands(old, widths) == window_strands(new, widths)
    assert moves._far_commuted(old, new) == swept


def _first_loop(candidates):
    """The first candidate loop that replays."""
    for make in candidates:
        try:
            movie = make()
        except (HostError, MoveError):
            continue
        return movie
    raise AssertionError("no candidate loop replays")


def _cube_loop():
    return _first_loop(
        lambda order=order, flags=flags: tangency_loop(
            *tangency_host(order, (1, 1, 0), flags, 2), flags[0])
        for order in itertools.permutations((1, 2, 3))
        for flags in itertools.product("+-", repeat=3))


def _commutation_loop():
    d = push_loop([1], TREFOIL1, 2).states()[7]
    return _first_loop(
        lambda s=s: commutation_loop(d, s, len(d.events) - 1, 1, '+')
        for s in range(len(d.events) - 2) if r3_triple(d.events, s))


def test_tangency_replay_validates_only_the_start(monkeypatch):
    for movie in (_cube_loop(), _commutation_loop()):
        assert {type(mv) for mv in movie.moves} == {R2Create, R2Delete, R3}
        assert _validations(monkeypatch, movie) == 1


def _turn_windows(movie):
    """(state, move, mover-only move) for each planner turn of a movie.

    A turn rewrites the mover next to a cup or cap family and keeps the
    family; its window holds both."""
    cur = movie.start
    for mv in movie.moves:
        old = cur.events[mv.slot:mv.slot + mv.count] if isinstance(mv, Rearrange) else []
        for k in range(1, len(old)):
            for keep, lo in ((slice(None, k), k), (slice(k, None), 0)):
                hi = lo + len(old) - k
                if (old[keep] == list(mv.events[keep])
                        and all(ev.kind != 'X' for ev in old[keep])
                        and all(ev.kind == 'X' for ev in old[lo:hi])):
                    yield cur, mv, Rearrange(mv.slot + lo, hi - lo, mv.events[lo:hi])
        cur = mv.apply(cur)


def test_mover_only_turn_window_falls_back_to_the_full_check():
    turns = list(_turn_windows(push_loop([1], TREFOIL1, 2)))
    assert len(turns) >= 2
    for state, mv, mover_only in turns:
        assert mv.window_widths(state) is not None
        assert mover_only.window_widths(state) is None
        got, want = mover_only.apply(state), mv.apply(state)
        assert got.events == want.events
        assert_matches_reference(got, f"{mover_only!r}")


def _two_cable():
    return closed_cable(braid_events([1]), long_events(TREFOIL1), 2)


def _flip(ev):
    return MorseEvent('X', ev.pos, '-' if ev.over == '+' else '+', ev.cid)


def test_window_edits_that_change_the_gauss_diagram_are_rejected():
    d = _two_cable()
    evs = d.events
    i = next(i for i in range(len(evs) - 1)
             if evs[i].kind == evs[i + 1].kind == 'X'
             and abs(evs[i].pos - evs[i + 1].pos) == 1)
    cup = next(i for i, ev in enumerate(evs) if ev.kind == 'U' and ev.pos > 1)
    # a kink of the framed trefoil: dropping its crossing leaves one knot
    curl = closed_cable([], long_events(normalize_w1(LONG_TREFOIL, 3)), 1)
    j = next(j for j, ev in enumerate(curl.events[1:-1], 1)
             if ev.kind == 'X' and curl.events[j - 1].kind == 'U'
             and curl.events[j + 1].kind == 'A')
    cases = [
        # two crossings sharing a strand, swapped
        (d, Rearrange(i, 2, (evs[i + 1], evs[i])), 'E_PLANAR'),
        # one over flag flipped
        (d, Rearrange(i, 1, (_flip(evs[i]),)), 'E_PLANAR'),
        # a crossing dropped
        (curl, Rearrange(j, 1, ()), 'E_PLANAR'),
        # a cup moved below the other strands: no crossing is met, but
        # the strands reconnect
        (d, Rearrange(cup, 1, (MorseEvent('U', 1),)), 'E_PLANAR'),
        # a closed circle added inside the window
        (d, Rearrange(cup, 0, (MorseEvent('U', 1), MorseEvent('A', 1))),
         'E_COMPONENTS'),
    ]
    for host, mv, code in cases:
        assert mv.window_widths(host) is None, mv
        with pytest.raises((MoveError, DiagramError)) as err:
            mv.apply(host)
        assert err.value.code == code, mv


def test_window_outside_the_word_is_rejected():
    d = _two_cable()
    for slot, count in ((-1, 1), (len(d.events), 1), (3, -1)):
        with pytest.raises(MoveError) as err:
            Rearrange(slot, count, ()).apply(d)
        assert err.value.code == 'E_REARRANGE'


def _full_rearrange(d, mv):
    """The extensional check alone: rebuild the word, compare Gauss data."""
    evs = d.events[:mv.slot] + list(mv.events) + d.events[mv.slot + mv.count:]
    out = AnnularDiagram(d.n, evs, w0=d.w0)
    if (out.gauss().canonical_tokens() != d.gauss().canonical_tokens()
            or out.gauss().signs != d.gauss().signs):
        raise MoveError('E_PLANAR', "changed")
    return out


def _check_random_rearrange(data, states):
    """A random reordering, with position shifts, of a short window of
    one of the states: the window check accepts it only if the full
    check does, and then gives the same state."""
    d = data.draw(st.sampled_from(states), label="state")
    evs = d.events
    k = data.draw(st.integers(1, 4), label="count")
    s = data.draw(st.integers(0, len(evs) - k), label="slot")
    order = data.draw(st.permutations(range(k)), label="order")
    shifts = st.sampled_from((0, 0, 0, -2, -1, 1, 2))
    window = tuple(MorseEvent(evs[s + i].kind,
                              max(1, evs[s + i].pos + data.draw(shifts)),
                              evs[s + i].over, evs[s + i].cid) for i in order)
    mv = Rearrange(s, k, window)
    try:
        want = _full_rearrange(d, mv)
    except (MoveError, DiagramError) as exc:
        assert mv.window_widths(d) is None
        with pytest.raises(type(exc)) as err:
            mv.apply(d)
        assert err.value.code == exc.code
        return
    got = mv.apply(d)
    assert got.events == want.events
    assert_matches_reference(got, repr(mv))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_window_check_accepts_only_what_the_full_check_accepts(data):
    # random reorderings, with position shifts, of a short window of a
    # state of a push loop
    states = push_loop([1], TREFOIL1, 2).states()
    _check_random_rearrange(data, states[::3])


@functools.cache
def _wide_push_states():
    return tuple(push_loop([1, 2], TREFOIL1, 3).states()
                 + push_loop([1], TORUS27_2, 2).states())


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_window_check_accepts_only_what_the_full_check_accepts_on_wide_states(data):
    # the same on states of push trefoil n = 3 and push torus27 w1 = 2,
    # n = 2, whose cup and cap families are wider than two strands
    _check_random_rearrange(data, _wide_push_states())


def test_tetrahedron_loops():
    r3s = 0
    for n in (2, 3):
        for order in GLOBAL_TYPES.values():
            for ws in verify._windings(4, n):
                try:
                    host, slot = quad_host(order, ws, n)
                except HostError:
                    continue
                r3s += assert_replay_matches(meridian_loop(host, slot))
    assert r3s > 0


def test_cube_loops():
    r3s = 0
    for order in itertools.permutations((1, 2, 3)):
        for ws in verify._windings(3, 2):
            for flags in itertools.product("+-", repeat=3):
                try:
                    host, slot = tangency_host(order, ws, flags, 2)
                    movie = tangency_loop(host, slot, flags[0])
                except (HostError, MoveError):
                    continue
                r3s += assert_replay_matches(movie)
    assert r3s > 0


def test_commutation_loops():
    states = push_loop([1], TREFOIL1, 2).states()
    r3s = 0
    for d in states[::7]:
        evs = d.events
        for s in range(len(evs) - 2):
            if not r3_triple(evs, s):
                continue
            for far in (0, len(evs) - 1):
                try:
                    movie = commutation_loop(d, s, far, 1, '+')
                except MoveError:
                    continue
                r3s += assert_replay_matches(movie)
    assert r3s > 0


def test_random_contractible_loops():
    hosts = verify.corpus_diagrams()
    r3s = 0
    for seed in range(24):
        _, d = hosts[seed % len(hosts)]
        r3s += assert_replay_matches(random_contractible_loop(d, 6, seed))
    assert r3s > 0


def _local_moves(d):
    """Every legal R3 and Exchange move of d with its result, R3 first."""
    out = []
    for cls in (R3, Exchange):
        for s in range(len(d.events) - 1):
            try:
                out.append((cls(s), cls(s).apply(d)))
            except MoveError:
                pass
    return out


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_random_local_move_walks(data):
    # the fixture cables hold no triple point pattern to begin with, so
    # the walk may also graft a tangency pair, which can make one
    _, cur = data.draw(st.sampled_from(verify.corpus_diagrams()), label="host")
    for k in range(data.draw(st.integers(1, 30), label="length")):
        if data.draw(st.integers(0, 3), label=f"graft {k}") == 3:
            s = data.draw(st.integers(0, len(cur.events)), label="slot")
            top = max(1, cur.widths()[s % len(cur.events)] - 1)
            mv = R2Create(s, data.draw(st.integers(1, top), label="pos"),
                          data.draw(st.sampled_from("+-"), label="over"))
            try:
                cur = mv.apply(cur)
            except (MoveError, DiagramError):
                continue
        else:
            options = _local_moves(cur)
            if not options:
                continue
            mv, cur = data.draw(st.sampled_from(options), label=f"move {k}")
        assert_matches_reference(cur, f"after move {k} {mv!r}")


def test_r3_moves_every_token_pair():
    # a triple point in a three-strand braid closure, where every strand
    # pair of the triangle is a different pair of adjacent tokens
    d = closed_cable(braid_events([1, 2, 1, 2]), long_events(""), 3)
    for flags in itertools.product("+-", repeat=3):
        evs = [MorseEvent('X', ev.pos, f, ev.cid)
               for ev, f in zip(d.events, flags + ('+',))]
        host = AnnularDiagram(3, evs)
        try:
            after = R3(0).apply(host)
        except MoveError:
            continue
        assert after.gauss().tokens != host.gauss().tokens
        assert_matches_reference(after, f"flags {flags}")


def test_r3_events_equal_freshly_validated_events():
    # R3.apply sets its three events from its parent's fields without
    # checking them again; each must be the event the validating
    # constructor gives, as a value, a hash key and a text
    r3s = 0
    for movie in _transport_grid():
        for before, mv, after in movie.steps():
            if not isinstance(mv, R3):
                continue
            r3s += 1
            a, b, c = before.events[mv.slot:mv.slot + 3]
            fresh = (MorseEvent('X', b.pos, c.over, c.cid),
                     MorseEvent('X', a.pos, b.over, b.cid),
                     MorseEvent('X', b.pos, a.over, a.cid))
            got = tuple(after.events[mv.slot:mv.slot + 3])
            assert got == fresh, (mv, got)
            assert [hash(ev) for ev in got] == [hash(ev) for ev in fresh]
            assert [repr(ev) for ev in got] == [repr(ev) for ev in fresh]
            assert all(type(ev) is MorseEvent for ev in got)
            with pytest.raises(AttributeError):
                got[0].pos = 1
    assert r3s == 460


# ---------------------------------------------------------------------------
# Tangency moves

@functools.cache
def _graft_hosts():
    """Corpus cables and states of push loops."""
    hosts = [d for _, d in verify.corpus_diagrams()]
    for n in (2, 3):
        hosts += push_loop(list(range(1, n)), TREFOIL1, n).states()[::4]
    return tuple(hosts)


def assert_grafts_match(d, over):
    """Graft a tangency at every slot, the ray slice on both sides of the
    origin included, and every position; compare with the full build,
    and check that cancelling it restores d."""
    g, w = d.gauss(), d.widths()
    for s in range(len(d.events) + 1):
        for pos in range(1, (w[s] if s < len(w) else d.w0)):
            mv = R2Create(s, pos, over)
            after = mv.apply(d)
            assert_matches_reference(after, repr(mv))
            back = R2Delete(s).apply(after)
            assert back.events == d.events, repr(mv)
            assert back.gauss().tokens == g.tokens, repr(mv)
            assert back.gauss().signs == g.signs, repr(mv)
            assert back.widths() == w, repr(mv)


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_tangency_grafted_anywhere_matches_the_full_build(data):
    d = data.draw(st.sampled_from(_graft_hosts()), label="host")
    assert_grafts_match(d, data.draw(st.sampled_from("+-"), label="over"))


def _reversed_token_lists():
    """fig8 closures whose walk from the ray passage at position 1 runs
    against the orientation: the token list is stored reversed and ends
    at that passage, so a gap at the origin goes at the start."""
    d = closed_cable([], long_events(LONG_FIG8), 1)
    out = []
    for _ in range(len(d.events) - 1):
        d = RayShift(1).apply(d)
        if d.gauss().tokens[0] != ('r', 1):
            out.append(d)
    assert out
    return out


def test_tangency_grafts_on_reversed_token_lists():
    for d in _reversed_token_lists():
        for over in "+-":
            assert_grafts_match(d, over)


def test_tangency_at_the_ray_takes_the_local_path(monkeypatch):
    # both sides of the origin are decided from the tokens, without a
    # full build
    cables = [d for _, d in verify.corpus_diagrams()]
    grafts = [(d, 0) for d in cables]
    grafts += [(d, len(d.events)) for d in cables + _reversed_token_lists()]
    calls = _count_validations(monkeypatch)
    for d, slot in grafts:
        for over in "+-":
            after = R2Create(slot, 1, over).apply(d)
            assert calls['validate'] == 0, (d, slot)
            assert_matches_reference(after, f"slot {slot} over {over}")
            calls.clear()


def test_tangency_on_a_diagram_without_crossings():
    # no crossing token to walk to: the full build decides
    d = parse_morse("U 1 ; A 2")
    for pos in (1, 2):
        assert_matches_reference(R2Create(1, pos, '-').apply(d), f"pos {pos}")


def _full_graft_error(d, mv, c1, c2):
    """The error of building the grafted word from scratch, or None."""
    evs = list(d.events)
    evs[mv.slot:mv.slot] = [MorseEvent('X', mv.pos, mv.over_first, c1),
                            _flip(MorseEvent('X', mv.pos, mv.over_first, c2))]
    try:
        AnnularDiagram(d.n, evs, w0=d.w0)
    except DiagramError as exc:
        return exc
    return None


def test_tangency_errors_match_the_full_build():
    d = _two_cable()
    top = d.max_cid()
    w = d.widths()
    s = next(s for s in range(len(w)) if w[s] > 2)
    cases = [
        (R2Create(s, w[s], '+'), top + 1, top + 2),          # no strand above
        (R2Create(s, w[s] + 3, '-'), top + 1, top + 2),
        (R2Create(0, d.w0, '+'), top + 1, top + 2),
        (R2Create(len(w), d.w0, '-'), top + 1, top + 2),
        (R2Create(s, 1, '+', 1, top + 1), 1, top + 1),       # cid in use
        (R2Create(s, 1, '-', top + 1, top), top + 1, top),
        (R2Create(s, w[s], '+', 1, top + 1), 1, top + 1),    # both: E_POS first
    ]
    for mv, c1, c2 in cases:
        want = _full_graft_error(d, mv, c1, c2)
        assert want is not None, mv
        with pytest.raises(DiagramError) as err:
            mv.apply(d)
        assert (err.value.code, str(err.value)) == (want.code, str(want)), mv
    with pytest.raises(MoveError) as err:
        R2Create(s, 1, '+', 5, 5).apply(d)
    assert err.value.code == 'E_ID'
    with pytest.raises(DiagramError) as err:
        R2Create(s, 0, '+').apply(d)
    assert err.value.code == 'E_POS'
    for slot in (len(d.events) - 1, len(d.events), 0):
        with pytest.raises(MoveError) as err:
            R2Delete(slot).apply(d)
        assert err.value.code == 'E_R2'


# ---------------------------------------------------------------------------
# Kink moves and what a splice shares

def _random_kink(rng, d):
    s = rng.randrange(len(d.events) + 1)
    w = d.widths()[s] if s < len(d.events) else d.w0
    return R1Create(s, rng.randint(1, w), rng.choice('+-'),
                    rng.choice(('above', 'below')))


def _kink_hosts(rng):
    """Framed class-1 words, whose framing kinks R1Delete matches, fig8
    closures with reversed token lists, and corpus cables with two kinks
    grafted in."""
    hosts = [closed_cable([], long_events(normalize_w1(text, w1)), 1)
             for text in (LONG_TREFOIL, LONG_FIG8, LONG_TORUS27)
             for w1 in (-2, 0, 3)]
    hosts += _reversed_token_lists()[:3]
    for _, d in verify.corpus_diagrams():
        for _ in range(2):
            d = _random_kink(rng, d).apply(d)
        hosts.append(d)
    return hosts


@pytest.mark.parametrize("seed", range(3))
def test_kink_walks_match_the_full_build(monkeypatch, seed):
    # kinks are created at random and deleted wherever R1Delete finds
    # one; every deletion validates no word, and its state is the full
    # build of the same word
    rng = random.Random(seed)
    calls = _count_validations(monkeypatch)
    deleted = 0
    for cur in _kink_hosts(rng):
        for k in range(12):
            kinks = [s for s in range(len(cur.events) - 2)
                     if _raised(R1Delete(s).check, cur) is None]
            if kinks and rng.random() < 0.6:
                mv = R1Delete(rng.choice(kinks))
                calls.clear()
                cur = mv.apply(cur)
                assert calls['validate'] == 0, repr(mv)
                deleted += 1
            else:
                mv = _random_kink(rng, cur)
                cur = mv.apply(cur)
            assert_matches_reference(cur, f"after move {k} {mv!r}")
    assert deleted > 50


def test_r3_and_exchange_share_what_they_keep():
    # an R3 or Exchange state shares its parent's widths list, an
    # Exchange state its Gauss diagram, and an R3 state its parent's
    # signs and markings dicts
    seen = Counter()
    for movie in _transport_grid():
        for before, mv, after in movie.steps():
            if isinstance(mv, (R3, Exchange)):
                seen[type(mv)] += 1
                assert after.widths() is before.widths(), repr(mv)
            g, h = before.gauss(), after.gauss()
            if isinstance(mv, Exchange):
                assert h is g, repr(mv)
            if isinstance(mv, R3):
                assert h.signs is g.signs, repr(mv)
                assert h.markings() is g.markings(), repr(mv)
    assert seen[R3] > 0 and seen[Exchange] > 0


# ---------------------------------------------------------------------------
# check decides exactly what apply decides

def _raised(fn, d):
    """(class, code, message) of what fn(d) raises, or None."""
    try:
        fn(d)
    except Exception as exc:
        return type(exc), getattr(exc, 'code', None), str(exc)
    return None


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_check_raises_exactly_when_apply_raises(data):
    d = data.draw(st.sampled_from(_graft_hosts()), label="host")
    k, top = len(d.events), d.max_cid()
    slot = data.draw(st.integers(-k - 3, k + 3), label="slot")
    kind = data.draw(st.sampled_from((R3, Exchange, R2Delete, R1Delete,
                                      R2Create)), label="kind")
    if kind is R2Create:
        ids = st.sampled_from((0, 0, 0, 1, top, top + 1, top + 2))
        mv = R2Create(slot, data.draw(st.integers(-1, max(d.widths()) + 1),
                                      label="pos"),
                      data.draw(st.sampled_from("+-"), label="over"),
                      data.draw(ids, label="cid1"), data.draw(ids, label="cid2"))
    else:
        mv = kind(slot)
    want = _raised(mv.apply, d)
    assert _raised(mv.check, d) == want, repr(mv)
    # every refusal is a coded error, out-of-range slots included
    assert want is None or want[1] is not None, (repr(mv), want)


# ---------------------------------------------------------------------------
# What a movie records: its start, its moves, its final state and one
# record per triple point move

def _count_applies(monkeypatch):
    """The (move, state) pairs every Move.apply receives from now on; the
    list keeps them alive, so their ids stay unique."""
    calls = []
    for cls in Move.__subclasses__():
        def counted(self, diagram, _apply=cls.apply):
            calls.append((self, diagram))
            return _apply(self, diagram)
        monkeypatch.setattr(cls, 'apply', counted)
    return calls


def _tetrahedron_loop():
    return meridian_loop(*quad_host(GLOBAL_TYPES[1], (0, 0, 0, 2), 2))


RECORDED_MOVIES = {
    **{f"push n={n}": functools.partial(push_loop, list(range(1, n)), TREFOIL1, n)
       for n in (2, 3, 4)},
    **{f"{planner.__name__} {name}": functools.partial(planner, [1], knot, 2)
       for planner in (rotation_loop, scan_path, push_full_twist_loop)
       for name, knot in (("trefoil", TREFOIL1), ("fig8", FIG8_M1))},
    "tetrahedron": _tetrahedron_loop,
    "cube": _cube_loop,
    "commutation": _commutation_loop,
    **{f"contractible {name}": functools.partial(random_contractible_loop, d, 6, 7)
       for name, d in verify.corpus_diagrams()},
}


def assert_same_state(got, want, where):
    assert got.events == want.events, where
    assert got.w0 == want.w0, where
    assert got.widths() == want.widths(), where
    g, h = got.gauss(), want.gauss()
    assert g.tokens == h.tokens, where
    assert g.signs == h.signs, where
    assert g.markings() == h.markings(), where


def assert_fresh_replay_matches(movie, states):
    """states must be what a replay of movie's moves from a rebuilt copy
    of its start, with nothing recorded, gives."""
    start = movie.start
    rebuilt = AnnularDiagram(start.n, list(start.events), w0=start.w0)
    fresh = Movie(rebuilt, list(movie.moves)).states()
    assert len(states) == len(fresh) == len(movie.moves) + 1
    for k, (got, want) in enumerate(zip(states, fresh)):
        assert_same_state(got, want, f"state {k}")


@pytest.mark.parametrize("label", list(RECORDED_MOVIES))
def test_recorded_states_match_a_fresh_replay(label, monkeypatch):
    movie = RECORDED_MOVIES[label]()
    calls = _count_applies(monkeypatch)
    final = movie.final()
    rows = evaluate_all(movie, report=True)[1].rows
    assert calls == [], "a built movie is read and evaluated from its records"
    states = movie.states()
    assert len(calls) == len(movie.moves), "states replays each move once"
    assert states[0] is movie.start
    assert_fresh_replay_matches(movie, states)
    assert_same_state(final, states[-1], "final state")
    # one record per triple point move, taken on the state before it
    assert [(row.index, row.triple) for row in rows] == [
        (k, classify_r3(before, mv.slot))
        for k, (before, mv) in enumerate(zip(states, movie.moves), 1)
        if isinstance(mv, R3)]


@pytest.mark.parametrize("label", list(RECORDED_MOVIES))
def test_reversed_movie_retraces_the_states(label):
    movie = RECORDED_MOVIES[label]()
    states, back = movie.states(), movie.reversed().states()[::-1]
    assert len(back) == len(states)
    for k, (got, want) in enumerate(zip(back, states)):
        assert got.events == want.events, f"state {k}"
        assert got.w0 == want.w0, f"state {k}"
        g, h = got.gauss(), want.gauss()
        assert g.tokens == h.tokens, f"state {k}"
        assert g.signs == h.signs, f"state {k}"


@pytest.mark.parametrize("seed", range(5))
def test_contractible_walk_applies_each_move_once(seed, monkeypatch):
    calls = _count_applies(monkeypatch)
    for name, d in verify.corpus_diagrams():
        calls.clear()
        movie = random_contractible_loop(d, 6, seed)
        assert len(calls) == len(movie.moves) > 0, name


def assert_states_unchanged(movie, moves, final, states):
    """movie still holds the given moves, the very same start and final
    state, and replays to the given states."""
    assert movie.moves == moves
    assert movie.start is states[0] and movie.final() is final
    after = movie.states()
    assert len(after) == len(states)
    for k, (got, want) in enumerate(zip(after, states)):
        assert_same_state(got, want, f"state {k}")


def test_edited_moves_replay_from_the_first_changed_index(monkeypatch):
    movie = push_loop([1], TREFOIL1, 2)
    m = len(movie.moves)
    moves, final, old = movie.moves, movie.final(), movie.states()
    values = evaluate_all(movie)
    calls = _count_applies(monkeypatch)
    k = m // 2

    # editing the list from movie.moves applies nothing and leaves the
    # movie as it was; its start cannot be reassigned either
    edited = movie.moves
    edited[k] = dataclasses.replace(edited[k])
    del edited[k + 1:]
    assert calls == []
    assert evaluate_all(movie) == values and calls == []
    assert_states_unchanged(movie, moves, final, old)
    with pytest.raises(AttributeError):
        movie.start = old[1]
    assert movie.start is old[0]

    # the edited path replays from the first changed index: a movie
    # started at the replayed state k applies only the moves from k on
    calls.clear()
    rest = movie.moves[k:]
    rest[0] = dataclasses.replace(rest[0])
    tail = Movie(old[k], rest)
    assert len(calls) == m - k
    assert tail.start is old[k]
    assert_same_state(tail.final(), old[-1], "final state")
    calls.clear()
    states = tail.states()
    assert len(calls) == m - k
    for j, state in enumerate(states):
        assert_same_state(state, old[k + j], f"state {k + j}")
    assert_fresh_replay_matches(tail, states)
    calls.clear()
    tail.final(), tail.is_closed(), evaluate_all(tail, report=True)
    assert calls == []


def test_edits_that_change_the_states_yield_no_stale_state(monkeypatch):
    cables = [d for _, d in verify.corpus_diagrams()]
    movie = Movie(cables[0], [R2Create(0, 1, '+'), R2Delete(0), RayShift(1)])
    moves, final, old = movie.moves, movie.final(), movie.states()
    calls = _count_applies(monkeypatch)

    # a different move in a copy of the list does not reach the movie
    edited = movie.moves
    edited[0] = R2Create(0, 1, '-')
    assert_states_unchanged(movie, moves, final, old)

    # a movie of the edited moves applies each of them to its own states
    calls.clear()
    rebuilt = Movie(cables[0], edited)
    assert len(calls) == 3
    states = rebuilt.states()
    assert states[1].events != old[1].events
    assert_same_state(rebuilt.final(), states[3], "final state")
    assert_fresh_replay_matches(rebuilt, states)

    # a different start diagram the same moves apply to
    calls.clear()
    moved = Movie(cables[1], moves)
    assert len(calls) == 3
    states = moved.states()
    assert states[0] is cables[1] and states[3].events != old[3].events
    assert_same_state(moved.final(), states[3], "final state")
    assert_fresh_replay_matches(moved, states)

    # a movie holds a valid path: a move that does not apply raises at once
    with pytest.raises(MoveError) as exc:
        Movie(cables[0], [R2Delete(0)])
    assert exc.value.code == 'E_R2'


def test_append_extends_from_the_true_final_state(monkeypatch):
    movie = push_loop([1], TREFOIL1, 2)
    moves, final, old = movie.moves, movie.final(), movie.states()
    k = len(moves) // 2
    calls = _count_applies(monkeypatch)

    # a cut of the list from movie.moves does not reach the movie: append
    # applies only its own move, to the kept final state
    edited = movie.moves
    del edited[k:]
    after = movie.append(RayShift(1))
    assert len(calls) == 1 and calls[0][1] is final
    assert movie.moves == moves + [RayShift(1)]
    assert after is movie.final()
    states = movie.states()
    for j, (got, want) in enumerate(zip(states, old)):
        assert_same_state(got, want, f"state {j}")
    assert_same_state(after, states[-1], "final state")
    assert_fresh_replay_matches(movie, states)

    # the same after a move in a copy of the list is replaced
    cable = verify.corpus_diagrams()[0][1]
    movie = Movie(cable, [R2Create(0, 1, '+'), R2Delete(0)])
    final = movie.final()
    edited = movie.moves
    edited[0] = R2Create(0, 1, '-')
    calls.clear()
    after = movie.append(RayShift(1))
    assert len(calls) == 1 and calls[0][1] is final
    assert after is movie.final()
    states = movie.states()
    assert_same_state(after, states[-1], "final state")
    assert_fresh_replay_matches(movie, states)


# ---------------------------------------------------------------------------
# One replay per movie

def test_cli_loops_applies_each_move_once(monkeypatch, capsys):
    calls = _count_applies(monkeypatch)
    assert run(['loops', '--push', '--tangle', 's1,s2', '--knot', 'torus27',
                '--n', '3', '--w1', '2']) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload['closed']
    assert len(calls) == len(payload['moves']) > 0


def test_evaluating_a_planner_movie_applies_nothing(monkeypatch):
    movie = push_loop([1, 2], TREFOIL1, 3)
    calls = _count_applies(monkeypatch)
    assert evaluate_all(movie) == {1: 2, 2: 2}
    assert calls == []


def test_cube_suite_applies_each_move_once(monkeypatch):
    movies = []
    check_loop_zero = verify._check_loop_zero

    def collect(rep, movie, case):
        movies.append(movie)
        return check_loop_zero(rep, movie, case)

    monkeypatch.setattr(verify, '_check_loop_zero', collect)
    # (id(move), id(state)) -> (move, state, [states it left]); the entry
    # keeps the move and the state alive, so their ids stay unique
    applied = {}
    for cls in Move.__subclasses__():
        def recorded(self, diagram, _apply=cls.apply):
            after = _apply(self, diagram)
            applied.setdefault((id(self), id(diagram)), (self, diagram, []))[2].append(after)
            return after
        monkeypatch.setattr(cls, 'apply', recorded)
    assert verify.run_suite('cube').passed
    assert movies and all(len(left) == 1 for _, _, left in applied.values())
    # each checked loop's moves were applied once each, in a chain from
    # its start to its final state
    total = len(applied)
    for movie in movies:
        state = movie.start
        for mv in movie.moves:
            _, _, (state,) = applied[id(mv), id(state)]
        assert state is movie.final()
    assert len(applied) == total


# ---------------------------------------------------------------------------
# A movie keeps no intermediate state

def test_a_long_push_movie_holds_only_its_ends_and_records():
    # push torus27 w1=2 at n = 8: 6,311 moves on a word of 519 crossings.
    # Each state of it takes about 11 kB, so keeping them all takes about
    # 70 MB; the start, the final state, the moves and the 896 triple
    # point records take under 2 MB
    import gc
    import tracemalloc
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        movie = push_loop(list(range(1, 8)), TORUS27_2, 8)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(movie.moves) == 6311
    assert sum(isinstance(mv, R3) for mv in movie.moves) == 896
    assert held < 5_000_000, held
