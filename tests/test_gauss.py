import pytest

from cocycle_lab.cabling import (LONG_FIG8, LONG_MIRROR_TREFOIL, LONG_TREFOIL,
                                 LONG_TORUS25, braid_events, closed_cable,
                                 long_events, normalize_w1)
from cocycle_lab.gauss import c2k, lift_to_cover, match_n0_pairs, v2, w1


def closure(text):
    return closed_cable([], long_events(text), 1).gauss()


def cable(text, word, n):
    return closed_cable(braid_events(word), long_events(text), n).gauss()


def interleaved(g, cid1, cid2):
    """Do the chords of cid1 and cid2 cross inside the circle?  Exactly one
    end of cid2 lies on the open arc from the head to the foot of cid1."""
    a, b, size = g.position('h', cid1), g.position('f', cid1), len(g.tokens)

    def inside(idx):
        return 0 < (idx - a) % size < (b - a) % size

    return inside(g.position('h', cid2)) != inside(g.position('f', cid2))


def test_homology_class():
    assert closure(LONG_TREFOIL).homology_class == 1
    assert cable(LONG_TREFOIL, [1], 2).homology_class == 2


def test_markings_lie_in_range():
    g = cable(LONG_TREFOIL, [1], 2)
    for cid, m in g.markings().items():
        assert 0 <= m <= 2


def test_w1_counts_marking_one_crossings():
    assert w1(closure(LONG_TREFOIL)) == 1
    assert w1(closure(normalize_w1(LONG_MIRROR_TREFOIL, -1))) == -1
    assert w1(closure(LONG_FIG8)) == 0
    assert w1(closure(normalize_w1(LONG_FIG8, -1))) == -1
    assert w1(closure(normalize_w1(LONG_TREFOIL, 4))) == 4


def test_v2_on_classical_knots():
    assert v2(closure("")) == 0
    assert v2(closure(LONG_TREFOIL)) == 1
    assert v2(closure(LONG_MIRROR_TREFOIL)) == 1
    assert v2(closure(LONG_FIG8)) == -1
    assert v2(closure(LONG_TORUS25)) == 3


def test_v2_ignores_framing():
    assert v2(closure(normalize_w1(LONG_TREFOIL, 5))) == 1
    assert v2(closure(normalize_w1(LONG_FIG8, 3))) == -1


def test_c2k_higher_coefficient():
    assert c2k(closure(LONG_TREFOIL), 1) == 1
    assert c2k(closure(LONG_TORUS25), 2) == 1
    assert c2k(closure(LONG_FIG8), 2) == 0


def test_c2k_rejects_a_negative_k():
    with pytest.raises(ValueError, match=r'^c2k needs k >= 0, got -1$'):
        c2k(closure(LONG_TREFOIL), -1)


def test_c2k_rejects_cables():
    for k in (0, 1):
        with pytest.raises(ValueError, match='^Conway-style counts need a class-1 diagram$'):
            c2k(cable(LONG_TREFOIL, [1], 2), k)


def test_matched_pairs_have_required_markings():
    g = cable(LONG_TREFOIL, [1], 2)
    for qn, q0, weight in match_n0_pairs(g, 2):
        assert g.marking(qn) == 2
        assert g.marking(q0) == 0
        assert interleaved(g, qn, q0)
        assert weight == g.signs[qn] * g.signs[q0]


def test_lift_untangles_the_cable():
    g = cable("", [1], 2)
    lifted = lift_to_cover(g)
    assert lifted.homology_class == 1
    assert v2(lifted) == 0


def test_lift_preserves_v2_of_companion_pattern():
    g = cable(LONG_TREFOIL, [1], 2)
    assert v2(lift_to_cover(g)) == v2(g)
