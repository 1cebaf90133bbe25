import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cocycle_lab.annular import AnnularDiagram
from cocycle_lab.cabling import (LONG_FIG8, LONG_FIG8_W1, LONG_TREFOIL,
                                 braid_events, closed_cable, full_twist_word,
                                 long_events, long_w1,
                                 n_cable, n_curl, normalize_w1)
from cocycle_lab.cli import BUILTIN_KNOTS
from cocycle_lab.gauss import v2, w1


def test_braid_events_signs():
    evs = braid_events([1, -2, 3])
    assert [(e.pos, e.over) for e in evs] == [(1, '+'), (2, '-'), (3, '+')]


def test_full_twist_word_length():
    assert full_twist_word(2) == [1, 1]
    assert len(full_twist_word(4)) == 12


def test_cable_crossing_count():
    base = [e for e in long_events(LONG_TREFOIL) if e.kind == 'X']
    xs = [e for e in n_cable(long_events(LONG_TREFOIL), 3) if e.kind == 'X']
    assert len(xs) == len(base) * 9 == 3 * 9
    # fresh ids in word order, from one above the word's largest
    assert [e.cid for e in xs] == list(range(4, 4 + 27))


def test_cable_preserves_over_flags():
    # each original crossing becomes the next n*n crossing events
    base = [e for e in long_events(LONG_FIG8) if e.kind == 'X']
    xs = [e for e in n_cable(long_events(LONG_FIG8), 2) if e.kind == 'X']
    assert len(xs) == 4 * len(base)
    for k, orig in enumerate(base):
        assert all(e.over == orig.over for e in xs[4 * k:4 * k + 4])


def test_closed_cable_is_class_n():
    for n in (1, 2, 3):
        # the permutation braid joins the strands into one knot
        word = list(range(1, n))
        d = closed_cable(braid_events(word), long_events(LONG_TREFOIL), n)
        assert d.gauss().homology_class == n


def test_n_curl_shape():
    evs = n_curl(2)
    assert [e.kind for e in evs] == ['U', 'U', 'X', 'X', 'X', 'X', 'A', 'A']
    assert all(e.over == '+' for e in evs if e.kind == 'X')
    # the cabled kink closes up against a cable: width returns to start
    assert sum(e.delta for e in evs) == 0


def test_normalize_w1_hits_target():
    for target in (-2, 0, 1, 3):
        text = normalize_w1(LONG_TREFOIL, target)
        g = closed_cable([], long_events(text), 1).gauss()
        assert w1(g) == target


@pytest.mark.parametrize('text, want', [
    *((BUILTIN_KNOTS[name], want) for name, want in (
        ('unknot', 0), ('trefoil', 1), ('mirror-trefoil', -2), ('fig8', 0),
        ('torus25', 2), ('torus27', 3))),
    (LONG_FIG8_W1, -1), (normalize_w1(LONG_TREFOIL, 3), 3), ('  ', 0)])
def test_long_w1_builds_the_long_word_once(monkeypatch, text, want):
    calls = []
    validate = AnnularDiagram.validate
    monkeypatch.setattr(AnnularDiagram, 'validate',
                        lambda self: calls.append(self) or validate(self))
    assert long_w1(text) == want
    assert len(calls) == 1
    # the same count on the closed-up word, built in full
    assert w1(closed_cable([], long_events(text), 1).gauss()) == want


def test_normalize_w1_keeps_the_knot():
    text = normalize_w1(LONG_TREFOIL, 4)
    g = closed_cable([], long_events(text), 1).gauss()
    assert v2(g) == 1


def test_connected_sum_adds_v2():
    # a connected sum of long knots is the concatenation of their words
    def v2_of(text):
        return v2(closed_cable([], long_events(text), 1).gauss())

    alone = {name: v2_of(text) for name, text in BUILTIN_KNOTS.items()}
    assert alone == {'unknot': 0, 'trefoil': 1, 'mirror-trefoil': 1,
                     'fig8': -1, 'torus25': 3, 'torus27': 6}
    for k1, k2 in itertools.product(BUILTIN_KNOTS, repeat=2):
        text = ' ; '.join(t for t in (BUILTIN_KNOTS[k1], BUILTIN_KNOTS[k2]) if t)
        assert v2_of(text) == alone[k1] + alone[k2], (k1, k2)


@given(st.integers(2, 4))
@settings(max_examples=3, deadline=None)
def test_full_twist_closure_of_unknot_cable(n):
    word = list(range(1, n)) + full_twist_word(n)
    d = closed_cable(braid_events(word), long_events(""), n)
    assert d.gauss().homology_class == n
