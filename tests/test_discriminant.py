import itertools

import pytest

from cocycle_lab.cabling import (LONG_TREFOIL, braid_events, closed_cable,
                                 long_events, normalize_w1)
from cocycle_lab.cocycle import evaluate_all
from cocycle_lab.discriminant import (GLOBAL_TYPES, HostError,
                                      commutation_loop,
                                      embedded_tangency_loops, meridian_loop,
                                      quad_host, random_contractible_loop,
                                      tangency_host, tangency_hosts,
                                      tangency_loop)
from cocycle_lab.moves import R2Delete, R3, r3_triple


def test_quad_host_has_six_block_crossings():
    host, slot = quad_host(GLOBAL_TYPES[1], (0, 0, 0, 2), 2)
    block = host.events[slot:slot + 6]
    assert all(e.kind == 'X' for e in block)


def test_quad_host_rejects_bad_windings():
    with pytest.raises(HostError):
        quad_host(GLOBAL_TYPES[1], (0, 0, 0, 1), 2)
    with pytest.raises(HostError):
        quad_host((1, 1, 2, 3), (0, 0, 0, 2), 2)


def test_hosts_reject_class_zero():
    # no arc winds, so no branch to start the circuit on
    with pytest.raises(HostError, match='at least 1'):
        quad_host(GLOBAL_TYPES[1], (0, 0, 0, 0), 0)
    with pytest.raises(HostError, match='at least 1'):
        tangency_host((1, 2, 3), (0, 0, 0), ('+', '+', '+'), 0)


def _host_data(host, slot):
    g = host.gauss()
    return (host.events, host.widths(), host.w0, g.tokens, g.signs,
            g.markings(), slot)


@pytest.mark.parametrize('n', [1, 2, 3, 4])
def test_tangency_hosts_equal_their_full_builds(n):
    from cocycle_lab.verify import _windings
    for order in itertools.permutations((1, 2, 3)):
        for ws in _windings(3, n):
            variants = list(tangency_hosts(order, ws, n))
            assert [v[0] for v in variants] == list(itertools.product('+-', repeat=3))
            for flags, host, slot in variants:
                want = _host_data(*tangency_host(order, ws, flags, n))
                assert _host_data(host, slot) == want, (order, ws, flags)


def test_tangency_hosts_refuse_what_tangency_host_refuses():
    def refusal(build):
        try:
            build()
        except HostError as exc:
            return str(exc)
        return None

    refused = total = 0
    for n in range(3):
        windings = list(itertools.product(range(-1, n + 2), repeat=3))
        windings += [(n,), (0, 0, 0, n)]
        for order in [(1, 2, 3), (3, 1, 2), (1, 1, 2), (1, 2, 4)]:
            for ws in windings:
                # the call refuses, before any variant is drawn
                got = refusal(lambda: tangency_hosts(order, ws, n))
                for flags in itertools.product('+-', repeat=3):
                    assert got == refusal(lambda: tangency_host(order, ws, flags, n))
                refused += got is not None
                total += 1
    assert 0 < refused < total


def test_meridian_loop_closes_and_vanishes():
    host, slot = quad_host(GLOBAL_TYPES[3], (1, 0, 0, 1), 2)
    movie = meridian_loop(host, slot)
    assert movie.is_closed()
    assert all(v == 0 for v in evaluate_all(movie).values())


def test_tangency_loop_closes():
    host, slot = tangency_host((1, 2, 3), (0, 0, 2), ('+', '+', '+'), 2)
    movie = tangency_loop(host, slot, '+')
    assert movie.is_closed()
    assert all(v == 0 for v in evaluate_all(movie).values())


def test_embedded_tangency_loops_vanish():
    d = closed_cable(braid_events([1]),
                     long_events(normalize_w1(LONG_TREFOIL, 1)), 2)
    loops = list(embedded_tangency_loops(d, '+'))
    assert loops
    for host, movie in loops:
        assert movie.is_closed()
        assert all(v == 0 for v in evaluate_all(movie).values())



@pytest.mark.parametrize('over', '+-')
def test_embedded_tangency_loop_at_a_descending_pair_vanishes(over):
    # X+ 2 ; X+ 1 descends: the bigon is created before the pair and the
    # triple moves run right to left
    d = closed_cable(braid_events([2, 1]),
                     long_events(normalize_w1(LONG_TREFOIL, 1)), 3)
    assert [(e.kind, e.pos) for e in d.events[:2]] == [('X', 2), ('X', 1)]
    host, movie = next(iter(embedded_tangency_loops(d, over)))
    assert movie.moves[:3] == [R3(1), R3(0), R2Delete(2)]
    assert movie.moves[3].slot == 0 and movie.moves[3].over_first == over
    assert movie.is_closed()
    assert evaluate_all(movie) == {1: 0, 2: 0}

def _state_with_triple():
    from cocycle_lab.loops import push_loop
    movie = push_loop([1], normalize_w1(LONG_TREFOIL, 1), 2)
    for state in movie.states():
        for s in range(len(state.events) - 2):
            if r3_triple(state.events, s):
                return state, s
    raise AssertionError("push movie has no triple point state")


def test_commutation_loop_vanishes():
    d, s = _state_with_triple()
    for far in (0, len(d.events) - 1):
        try:
            movie = commutation_loop(d, s, far, 1, '+')
        except Exception:
            continue
        assert movie.is_closed()
        assert all(v == 0 for v in evaluate_all(movie).values())
        return
    pytest.skip("no commuting far slot for this fixture")


def test_random_contractible_loops_vanish():
    d = closed_cable(braid_events([1]),
                     long_events(normalize_w1(LONG_TREFOIL, 1)), 2)
    for seed in range(5):
        movie = random_contractible_loop(d, 6, seed)
        assert movie.is_closed()
        assert all(v == 0 for v in evaluate_all(movie).values())


def test_contractible_loop_is_seed_deterministic():
    d = closed_cable(braid_events([1]),
                     long_events(normalize_w1(LONG_TREFOIL, 1)), 2)
    a = random_contractible_loop(d, 6, 11)
    b = random_contractible_loop(d, 6, 11)
    assert [repr(m) for m in a.moves] == [repr(m) for m in b.moves]


def test_embedded_tangency_loops_skip_hosts_with_negative_loops(monkeypatch):
    from cocycle_lab.annular import AnnularDiagram
    d = closed_cable(braid_events([1]),
                     long_events(normalize_w1(LONG_TREFOIL, 1)), 2)
    assert list(embedded_tangency_loops(d, '+'))
    monkeypatch.setattr(AnnularDiagram, 'check_no_negative_loops',
                        lambda self: (False, [1]))
    assert list(embedded_tangency_loops(d, '+')) == []


def test_contractible_walks_are_pinned():
    # the 300 walks of seeds 0-299 at length 6 (3,600 moves): the option
    # lists of _applicable_moves and their rng draws must not change
    import hashlib

    from cocycle_lab.verify import corpus_diagrams
    hosts = corpus_diagrams()
    digest = hashlib.sha256()
    for seed in range(300):
        movie = random_contractible_loop(hosts[seed % len(hosts)][1], 6, seed)
        digest.update((repr(movie.moves) + "\n").encode())
    assert digest.hexdigest() == (
        'd5891cef2ed1a1dc9e3825bf007df81df95030de51fe3555002f7f0e26d7c325')


def _every_candidate_checked(d, rng):
    """Reference for _applicable_moves: build every candidate, in option
    order, and keep it where its check passes."""
    from cocycle_lab.annular import DiagramError
    from cocycle_lab.moves import Exchange, MoveError, R2Create
    evs = d.events
    cands = [R3(s) for s in range(len(evs) - 2)]
    for s in range(len(evs) - 1):
        cands += [Exchange(s), R2Delete(s)]
    for _ in range(4):
        cands.append(R2Create(rng.randrange(len(evs) + 1), rng.randrange(1, 5),
                              rng.choice('+-')))
    out = []
    for mv in cands:
        try:
            mv.check(d)
        except (MoveError, DiagramError):
            continue
        out.append(mv)
    return out


def test_applicable_moves_match_the_checked_candidates():
    # every state of the 300 pinned walks, under three rng seeds each:
    # the same options, in the same order, from the same rng draws
    import random
    from collections import Counter

    from cocycle_lab.discriminant import _applicable_moves
    from cocycle_lab.verify import corpus_diagrams
    hosts = corpus_diagrams()
    seen, kinds, cyclic = set(), Counter(), 0
    for seed in range(300):
        movie = random_contractible_loop(hosts[seed % len(hosts)][1], 6, seed)
        for d in movie.states():
            key = (d.n, d.w0, tuple(d.events))
            if key in seen:         # the walk back retraces its states
                continue
            seen.add(key)
            for r in range(3):
                got_rng, want_rng = random.Random(r), random.Random(r)
                got = _applicable_moves(d, got_rng)
                assert got == _every_candidate_checked(d, want_rng), (seed, r)
                assert got_rng.getstate() == want_rng.getstate(), (seed, r)
                kinds.update(type(mv).__name__ for mv in got)
            cyclic += sum(r3_triple(d.events, s) is not None and R3(s) not in got
                          for s in range(len(d.events)))
    assert set(kinds) == {'R3', 'Exchange', 'R2Delete', 'R2Create'}
    assert cyclic > 0, "no triple point pattern was refused for its heights"
