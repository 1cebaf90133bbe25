"""Differential test of movie replay.

Exchange and R3 derive the state they leave behind from the parent's
Gauss data instead of traversing the diagram again.  After every move
of every movie here, the replayed state must agree with the same event
word built from scratch by the public, fully validating constructor.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cocycle_lab import verify
from cocycle_lab.annular import AnnularDiagram, DiagramError, MorseEvent
from cocycle_lab.cabling import (LONG_FIG8, LONG_TREFOIL, braid_events,
                                 closed_cable, long_events, normalize_w1)
from cocycle_lab.discriminant import (GLOBAL_TYPES, HostError,
                                      commutation_loop, meridian_loop,
                                      quad_host, random_contractible_loop,
                                      tangency_host, tangency_loop)
from cocycle_lab.loops import (push_full_twist_loop, push_loop,
                               rotation_loop, scan_path)
from cocycle_lab.moves import Exchange, MoveError, R2Create, R3, r3_triple

TREFOIL1 = normalize_w1(LONG_TREFOIL, 1)
FIG8_M1 = normalize_w1(LONG_FIG8, -1)


def assert_matches_reference(state, where):
    ref = AnnularDiagram(state.n, list(state.events), w0=state.w0)
    got, want = state.gauss(), ref.gauss()
    assert got.tokens == want.tokens, where
    assert got.signs == want.signs, where
    assert state.widths() == ref.widths(), where


def assert_replay_matches(movie):
    """Replay the movie; returns how many R3 moves it made."""
    cur, r3s = movie.start, 0
    for k, mv in enumerate(movie.moves, 1):
        cur = mv.apply(cur)
        r3s += isinstance(mv, R3)
        assert_matches_reference(cur, f"after move {k} {mv!r}")
    return r3s


@pytest.mark.parametrize("n", [2, 3, 4])
def test_push_loops(n):
    assert assert_replay_matches(push_loop(list(range(1, n)), TREFOIL1, n)) > 0


@pytest.mark.parametrize("planner", [rotation_loop, scan_path,
                                     push_full_twist_loop])
@pytest.mark.parametrize("knot", [TREFOIL1, FIG8_M1], ids=["trefoil", "fig8"])
def test_rotation_scan_and_twist_loops(planner, knot):
    assert assert_replay_matches(planner([1], knot, 2)) > 0


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
                    movie.final()
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
                    movie.final()
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
