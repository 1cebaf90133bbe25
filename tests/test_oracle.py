import pytest

from cocycle_lab.cabling import (LONG_FIG8, LONG_MIRROR_TREFOIL, LONG_TREFOIL,
                                 LONG_TORUS25, closed_cable, long_events,
                                 normalize_w1)
from cocycle_lab.oracle import OracleCapError, conway, poly_text


def closure(text):
    return closed_cable([], long_events(text), 1).gauss()


def test_unknot():
    assert conway(closure("")) == {0: 1}


def test_trefoil():
    assert conway(closure(LONG_TREFOIL)) == {0: 1, 2: 1}


def test_conway_ignores_mirror():
    assert conway(closure(LONG_MIRROR_TREFOIL)) == {0: 1, 2: 1}


def test_fig8():
    assert conway(closure(LONG_FIG8)) == {0: 1, 2: -1}


def test_torus25():
    assert conway(closure(LONG_TORUS25)) == {0: 1, 2: 3, 4: 1}


def test_reidemeister_invariance_under_framing_change():
    for target in (0, 2, 5):
        g = closure(normalize_w1(LONG_TREFOIL, target))
        assert conway(g) == {0: 1, 2: 1}


def test_connected_sum_multiplies():
    granny = LONG_TREFOIL + " ; " + LONG_TREFOIL
    # (1 + z^2)^2
    assert conway(closure(granny)) == {0: 1, 2: 2, 4: 1}


def test_square_knot_multiplies():
    square = LONG_TREFOIL + " ; " + LONG_MIRROR_TREFOIL
    assert conway(closure(square)) == {0: 1, 2: 2, 4: 1}


def test_crossing_cap():
    big = " ; ".join([LONG_TREFOIL] * 7)
    with pytest.raises(OracleCapError):
        conway(closure(big))


def test_poly_text():
    assert poly_text({0: 1, 2: 3, 4: 1}) == "1 + 3*z^2 + z^4"
    assert poly_text({0: 1}) == "1"
    assert poly_text({}) == "0"
