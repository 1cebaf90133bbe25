"""Today's values of the cocycle on loops whose values the paper's
identities tie together, pinned as literals.

The pairing table scales with the exponent of the closing tangle; the
push value does not depend on the tangle's word in B_3 or on
semi-regular changes of the knot; reversing a loop negates its value.
"""

import pytest

from cocycle_lab.cabling import (LONG_FIG8, LONG_MIRROR_TREFOIL, LONG_TORUS25,
                                 LONG_TREFOIL, LONG_UNKNOT, normalize_w1)
from cocycle_lab.cocycle import evaluate_all
from cocycle_lab.loops import (push_full_twist_loop, push_loop, rotation_loop,
                               scan_path)
from cocycle_lab.verify import semi_regular_variant

KNOTS = (LONG_UNKNOT, LONG_TREFOIL, LONG_FIG8, LONG_TORUS25,
         LONG_MIRROR_TREFOIL)
TREFOIL1 = normalize_w1(LONG_TREFOIL, 1)
FIG8_M1 = normalize_w1(LONG_FIG8, -1)


@pytest.mark.parametrize('tangle, values', [
    ([1], [0, 1, -1, 3, 1]),
    ([1, 1, 1], [0, 3, -3, 9, 3]),
    ([-1], [0, -1, 1, -3, -1]),
    ([1] * 5, [0, 5, -5, 15, 5]),
], ids=['s1', 's1^3', 's1^-1', 's1^5'])
def test_pairing_table_at_n2(tangle, values):
    # unknot, trefoil, fig8, torus25, mirror trefoil, all at w1 = 1
    got = [evaluate_all(push_loop(tangle, normalize_w1(k, 1), 2)) for k in KNOTS]
    assert got == [{1: v} for v in values]


@pytest.mark.parametrize('tangle, value', [
    ([1, 2], 2), ([2, 1], 2), ([1, 1, 2, -1], 2), ([-2, 1, 2, 2], 2),
    ([1, 2, 1, -1], 2),
    ([1, -2], 0), ([-2, 1], 0), ([2, 1, -2, -2], 0),
])
def test_push_trefoil_n3_depends_only_on_the_tangle_class(tangle, value):
    assert evaluate_all(push_loop(tangle, TREFOIL1, 3)) == {1: value, 2: value}


def test_push_trefoil_is_invariant_under_semi_regular_variants():
    for s in range(20):
        tangle, text = semi_regular_variant([1], TREFOIL1, 31 * s + 7)
        assert evaluate_all(push_loop(tangle, text, 2)) == {1: 1}, s


@pytest.mark.parametrize('build', [
    lambda: push_loop([1], TREFOIL1, 2),
    lambda: push_loop([1, 2], TREFOIL1, 3),
    lambda: push_loop([1], normalize_w1(LONG_TORUS25, 1), 2),
    lambda: rotation_loop([1], TREFOIL1, 2),
    lambda: push_full_twist_loop([1], FIG8_M1, 2),
    lambda: scan_path([1], FIG8_M1, 2),
], ids=['push-trefoil-2', 'push-trefoil-3', 'push-torus25-2',
        'rotation-trefoil', 'full-twist-fig8', 'scan-fig8'])
def test_reversal_negates_the_value(build):
    movie = build()
    value = evaluate_all(movie)
    assert any(value.values())
    assert evaluate_all(movie.reversed()) == {a: -v for a, v in value.items()}
