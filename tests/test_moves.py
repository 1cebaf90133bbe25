import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from cocycle_lab import moves, verify
from cocycle_lab.annular import AnnularDiagram, DiagramError, MorseEvent
from cocycle_lab.cabling import (LONG_MIRROR_TREFOIL, LONG_TREFOIL,
                                 braid_events, closed_cable, long_events,
                                 normalize_w1)
from cocycle_lab.gauss import GaussDiagram
from cocycle_lab.loops import push_loop
from cocycle_lab.cocycle import Movie
from cocycle_lab.moves import (MoveError, R1Create, R1Delete, R2Create,
                               R2Delete, R3, RayShift, Rearrange,
                               canonical_gauss_key, r3_triple, same_gauss,
                               verify_movie)


def trefoil_ring():
    return closed_cable([], long_events(LONG_TREFOIL), 1)


def two_cable():
    return closed_cable(braid_events([1]), long_events(LONG_TREFOIL), 2)


def test_r1_create_delete_roundtrip():
    d = trefoil_ring()
    key = canonical_gauss_key(d.gauss())
    for variant in ('above', 'below'):
        for over in '+-':
            d2 = R1Create(0, 1, over, variant).apply(d)
            assert len(d2.events) == len(d.events) + 3
            d3 = R1Delete(0).apply(d2)
            assert canonical_gauss_key(d3.gauss()) == key


def test_r1_delete_needs_a_kink():
    with pytest.raises(MoveError):
        R1Delete(0).apply(trefoil_ring())


def test_r2_create_delete_roundtrip():
    d = two_cable()
    for over in '+-':
        d2 = R2Create(1, 1, over).apply(d)
        xs = [e for e in d2.events[1:3]]
        assert {e.over for e in xs} == {'+', '-'}
        d3 = R2Delete(1).apply(d2)
        assert canonical_gauss_key(d3.gauss()) == canonical_gauss_key(d.gauss())


def test_r2_delete_rejects_parallel_pair():
    d = trefoil_ring()
    slot = next(i for i, e in enumerate(d.events) if e.kind == 'X')
    with pytest.raises(MoveError):
        R2Delete(slot).apply(d)


def test_r3_needs_pattern():
    d = trefoil_ring()
    assert r3_triple(d.events, 0) is None
    with pytest.raises(MoveError):
        R3(0).apply(d)


def test_r3_is_involutive_on_the_planar_shadow():
    # build a braid whose middle letters form a triple point pattern
    d = closed_cable(braid_events([1, 2, 1, 2]), long_events(""), 3)
    slot = 0
    assert r3_triple(d.events, slot)
    d2 = R3(slot).apply(d)
    d3 = R3(slot).apply(d2)
    assert [(e.kind, e.pos, e.over) for e in d3.events] \
        == [(e.kind, e.pos, e.over) for e in d.events]


def test_ray_shift_roundtrip():
    d = two_cable()
    d2 = RayShift(1).apply(d)
    d3 = RayShift(-1).apply(d2)
    assert d3.events == d.events and d3.w0 == d.w0


def test_unknown_kink_variant_and_ray_shift_are_refused_with_a_code():
    with pytest.raises(MoveError) as err:
        R1Create(0, 1, '+', 'sideways').apply(trefoil_ring())
    assert err.value.code == 'E_VARIANT'
    with pytest.raises(MoveError) as err:
        RayShift(0).apply(two_cable())
    assert err.value.code == 'E_RAY'
    bare = AnnularDiagram(1, [], w0=1)
    for direction in (1, -1):
        with pytest.raises(MoveError) as err:
            RayShift(direction).apply(bare)
        assert err.value.code == 'E_RAY'


def test_rearrange_validates_extensionally():
    d = two_cable()
    # swapping two events with overlapping supports changes the knot
    evs = list(d.events)
    i = next(i for i in range(len(evs) - 1)
             if evs[i].kind == 'X' and evs[i + 1].kind == 'X'
             and abs(evs[i].pos - evs[i + 1].pos) == 1)
    bad = evs[:i] + [evs[i + 1], evs[i]] + evs[i + 2:]
    with pytest.raises(MoveError):
        Rearrange(0, len(evs), tuple(bad)).apply(d)


def test_rearrange_allows_distant_swap():
    d = two_cable()
    evs = list(d.events)
    i = next(i for i in range(len(evs) - 1)
             if evs[i].kind == 'X' and evs[i + 1].kind == 'X'
             and abs(evs[i].pos - evs[i + 1].pos) >= 2)
    good = evs[:i] + [evs[i + 1], evs[i]] + evs[i + 2:]
    d2 = Rearrange(0, len(evs), tuple(good)).apply(d)
    assert len(d2.events) == len(d.events)


def test_rearrange_ending_at_another_width_gets_the_full_builds_refusal():
    d = two_cable()
    evs = d.events
    s = next(i for i, ev in enumerate(evs) if ev.kind == 'U')
    mv = Rearrange(s, 1, ())    # drops a cup: the window ends two strands short
    assert mv.window_widths(d) is None
    with pytest.raises(DiagramError) as full:
        AnnularDiagram(d.n, evs[:s] + evs[s + 1:], w0=d.w0)
    with pytest.raises(DiagramError) as err:
        mv.apply(d)
    assert str(err.value) == str(full.value)
    assert err.value.code == 'E_WIDTH'


def test_movie_closure_detection():
    d = two_cable()
    open_movie = Movie(d, [R2Create(0, 1, '+')])
    assert not open_movie.is_closed()
    closed = Movie(d, [R2Create(0, 1, '+'), R2Delete(0)])
    assert closed.is_closed()


@given(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_braid_closures_validate_when_connected(word):
    perm = list(range(3))
    for g in word:
        i = abs(g) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, t = set(), 0
    while t not in seen:
        seen.add(t)
        t = perm[t]
    assume(len(seen) == 3)
    d = closed_cable(braid_events(word), long_events(""), 3)
    assert d.widths() == [3] * len(d.events)


@given(st.integers(0, 3), st.sampled_from('+-'), st.sampled_from(['above', 'below']))
@settings(max_examples=30, deadline=None)
def test_kink_roundtrip_random_slots(slot, over, variant):
    d = trefoil_ring()
    try:
        d2 = R1Create(slot, 1, over, variant).apply(d)
    except MoveError:
        return
    d3 = R1Delete(slot).apply(d2)
    assert canonical_gauss_key(d3.gauss()) == canonical_gauss_key(d.gauss())


def _all_rotations_key(gd):
    """Reference key: the minimum over every rotation of the tokens."""
    toks, best = gd.tokens, None
    for r in range(len(toks)):
        names, seq = {}, []
        for kind, val in toks[r:] + toks[:r]:
            if kind == 'r':
                seq.append(('r', val))
            else:
                names.setdefault(val, len(names))
                seq.append((kind, names[val], gd.signs[val]))
        if best is None or tuple(seq) < best:
            best = tuple(seq)
    return best


def test_canonical_key_ignores_rotation_and_renaming():
    g = two_cable().gauss()
    key, toks = canonical_gauss_key(g), g.tokens
    rename = {cid: 100 - 3 * cid for cid in g.signs}
    signs = {rename[c]: s for c, s in g.signs.items()}
    for r in range(len(toks)):
        rot = toks[r:] + toks[:r]
        assert GaussDiagram(rot, g.signs).canonical_tokens() == g.canonical_tokens()
        renamed = [(k, v if k == 'r' else rename[v]) for k, v in rot]
        assert canonical_gauss_key(GaussDiagram(renamed, signs)) == key


def test_canonical_key_separates_what_all_rotations_separate():
    d = two_cable()
    flipped = dict(d.gauss().signs)
    flipped[min(flipped)] *= -1
    diagrams = [g.gauss() for g in Movie(d, [R2Create(0, 1, '+')]).states()]
    diagrams += [GaussDiagram(d.gauss().tokens, flipped), trefoil_ring().gauss(),
                 closed_cable([], long_events(LONG_MIRROR_TREFOIL), 1).gauss()]
    diagrams += [s.gauss() for s in push_loop([1], LONG_TREFOIL, 2).states()[::5]]
    keys = [canonical_gauss_key(g) for g in diagrams]
    ref = [_all_rotations_key(g) for g in diagrams]
    assert len(set(keys)) > 3
    for i, j in itertools.combinations(range(len(diagrams)), 2):
        assert (keys[i] == keys[j]) == (ref[i] == ref[j])
        same = diagrams[i].canonical_tokens() == diagrams[j].canonical_tokens()
        rotated = any(diagrams[i].tokens == diagrams[j].tokens[r:] + diagrams[j].tokens[:r]
                      for r in range(len(diagrams[j].tokens)))
        assert same == rotated


def test_r1_delete_check_names_the_kink_crossing():
    d = trefoil_ring()
    for variant in ('above', 'below'):
        for over in '+-':
            mv = R1Create(2, 1, over, variant)
            after = mv.apply(d)
            assert R1Delete(2).check(after) == mv.created_cid(d)
            for slot in (-1, 1, 3, len(after.events) - 2):
                with pytest.raises(MoveError, match='E_R1'):
                    R1Delete(slot).check(after)


def test_negative_slots_are_refused_with_a_code():
    d = push_loop([1, 2], LONG_TREFOIL, 3).start
    for slot in range(-len(d.events) - 3, 0):
        for mv, code in ((R3(slot), 'E_R3'), (R2Delete(slot), 'E_R2'),
                         (R1Delete(slot), 'E_R1')):
            with pytest.raises(MoveError) as err:
                mv.apply(d)
            assert err.value.code == code


def test_create_slots_outside_the_word_are_refused():
    # slots index the gaps 0..len(events); a negative slot no longer counts
    # from the end, and a slot past the end no longer appends
    d = verify.corpus_diagrams()[0][1]
    k = len(d.events)
    for slot in (-1, -2, -k, -k - 1, k + 1, 10 ** 6):
        for mv, code in ((R2Create(slot, 1, '+'), 'E_R2'),
                         (R1Create(slot, 1, '+'), 'E_R1')):
            with pytest.raises(MoveError) as err:
                mv.apply(d)
            assert err.value.code == code, repr(mv)
        with pytest.raises(MoveError, match='E_R2'):
            R2Create(slot, 1, '+').check(d)
    for slot in (0, k):
        assert len(R2Create(slot, 1, '+').apply(d).events) == k + 2
        assert len(R1Create(slot, 1, '+').apply(d).events) == k + 3


def test_same_gauss_compares_the_data_before_the_canonical_key(monkeypatch):
    d = two_cable()
    shifted = RayShift(1).apply(d)
    calls = []
    key = moves.canonical_gauss_key
    monkeypatch.setattr(moves, 'canonical_gauss_key',
                        lambda gd: calls.append(gd) or key(gd))
    copy = AnnularDiagram(d.n, list(d.events), w0=d.w0)
    assert same_gauss(d, copy) and calls == []
    # rotated tokens need the key, and agree with it
    assert d.gauss().tokens != shifted.gauss().tokens
    assert same_gauss(d, shifted) == (key(d.gauss()) == key(shifted.gauss()))
    assert len(calls) == 2
    assert not same_gauss(d, R2Create(0, 1, '+').apply(d))


def kinked_ring():
    """The trefoil ring with four marking-one kinks, each a 'below' kink
    U 1 ; X- 1 ; A 2; the first sits at slot 5."""
    return closed_cable([], long_events(normalize_w1(LONG_TREFOIL, 5)), 1)


def _verify_code(movie):
    with pytest.raises(MoveError) as err:
        verify_movie(movie)
    return err.value.code


def test_verify_movie_refuses_a_state_of_another_class():
    d = AnnularDiagram(2, long_events(LONG_TREFOIL), w0=1)
    assert d.gauss().homology_class == 1
    assert _verify_code(Movie(d)) == 'E_CLASS'


def test_verify_movie_refuses_kinks_whose_marking_is_not_zero():
    # a kink at the origin of the 2-cable winds once around: marking 2
    cable, kink = two_cable(), R1Create(0, 1, '+')
    created = Movie(cable, [kink])
    assert created.final().gauss().marking(kink.created_cid(cable)) == 2
    assert _verify_code(created) == 'E_KINK'
    d = kinked_ring()
    cid = R1Delete(5).check(d)
    assert d.gauss().marking(cid) == 1
    assert _verify_code(Movie(d, [R1Delete(5)])) == 'E_KINK'


def test_verify_movie_refuses_a_movie_that_does_not_close():
    assert _verify_code(Movie(two_cable(), [R2Create(0, 1, '+')])) == 'E_CLOSED'


def test_reversed_movie_retraces_kink_moves():
    # an 'above' kink created and deleted, and a 'below' kink deleted
    d = kinked_ring()
    movie = Movie(d, [R1Create(0, 1, '-', 'above'), R1Delete(8), R1Delete(0)])
    back = movie.reversed()
    assert [type(mv) for mv in back.moves] == [R1Create, R1Create, R1Delete]
    assert ([(st.events, st.w0) for st in back.states()]
            == [(st.events, st.w0) for st in movie.states()][::-1])
