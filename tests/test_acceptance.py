"""End-to-end value checks; every equality here is exact."""

import time

import pytest

from cocycle_lab import verify
from cocycle_lab.cabling import (LONG_FIG8, LONG_TREFOIL, LONG_TORUS25,
                                 normalize_w1)
from cocycle_lab.cocycle import (evaluate, evaluate_all,
                                 interpolation_polynomial)
from cocycle_lab.loops import (push_full_twist_loop, push_loop, rotation_loop,
                               scan_path)
from cocycle_lab.moves import R3

TREFOIL1 = normalize_w1(LONG_TREFOIL, 1)
TORUS25_2 = normalize_w1(LONG_TORUS25, 2)
FIG8_M1 = normalize_w1(LONG_FIG8, -1)


def timed(thunk, limit):
    t0 = time.monotonic()
    out = thunk()
    assert time.monotonic() - t0 < limit
    return out


# 1 ------------------------------------------------------------------


def test_push_value_trefoil():
    value = timed(lambda: evaluate(push_loop([1], TREFOIL1, 2), 1), 5.0)
    assert value == 1


def test_push_value_torus25():
    value = timed(lambda: evaluate(push_loop([1], TORUS25_2, 2), 1), 5.0)
    assert value == 9


# 2 ------------------------------------------------------------------


def test_rotation_and_scan_trefoil():
    rot = timed(lambda: evaluate(rotation_loop([1], TREFOIL1, 2), 1), 30.0)
    scan = timed(lambda: evaluate(scan_path([1], TREFOIL1, 2), 1), 30.0)
    assert rot == scan == -2


def test_rotation_and_scan_fig8():
    rot = timed(lambda: evaluate(rotation_loop([1], FIG8_M1, 2), 1), 30.0)
    scan = timed(lambda: evaluate(scan_path([1], FIG8_M1, 2), 1), 30.0)
    assert rot == scan == -6


# 3 ------------------------------------------------------------------


def contributing_rows(movie, a):
    rep = evaluate(movie, a, report=True)
    return [r for r in rep.rows if r.contrib != 0]


def test_per_move_breakdown_trefoil():
    rows = contributing_rows(push_loop([1], TREFOIL1, 2), 1)
    assert len(rows) == 1
    r = rows[0]
    assert (r.triple.sign, r.w2p, r.lp, r.w2hm) == (1, 1, 0, 1)
    assert r.contrib == 1


def test_per_move_breakdown_torus25():
    rows = contributing_rows(push_loop([1], TORUS25_2, 2), 1)
    assert len(rows) == 2
    data = sorted((r.triple.sign, r.w2p, r.lp) for r in rows)
    assert data == [(1, 3, 0), (1, 5, 1)]
    second = next(r for r in rows if r.w2p == 5)
    assert second.w2hm == 1
    assert sum(r.contrib for r in rows) == 9


# 4 ------------------------------------------------------------------


def test_parameter_dependence_n4():
    t0 = time.monotonic()
    k4 = normalize_w1(LONG_TREFOIL, 1)
    plus = evaluate_all(push_loop([1, 2, 3], k4, 4))
    minus = evaluate_all(push_loop([1, -2, 3], k4, 4))
    assert time.monotonic() - t0 < 120.0
    assert plus[1] == minus[1]
    assert plus[3] == minus[3]
    assert plus[2] == -minus[2] != 0
    assert interpolation_polynomial(plus) != interpolation_polynomial(minus)


# 5 ------------------------------------------------------------------


def test_rotation_cancels_full_twist_push():
    rot = evaluate(rotation_loop([1], TREFOIL1, 2), 1)
    twist = evaluate(push_full_twist_loop([1], TREFOIL1, 2), 1)
    assert rot + twist == 0
    assert twist == 2


# 6 ------------------------------------------------------------------


def test_discriminant_suites_vanish():
    t0 = time.monotonic()
    for name in ('tetrahedron', 'cube', 'commutation', 'contractible'):
        rep = verify.run_suite(name)
        assert rep.passed, rep.summary()
    assert time.monotonic() - t0 < 60.0


# 7 ------------------------------------------------------------------


def test_scan_invariance_suite():
    rep = verify.run_suite('scan-invariance')
    assert rep.passed, rep.summary()
    assert rep.checks >= 60


# 9 ------------------------------------------------------------------


def test_oracle_suites():
    rep = verify.run_suite('ckr-oracle')
    assert rep.passed, rep.summary()
    assert rep.checks >= 20
    rep = verify.run_suite('prop1')
    assert rep.passed, rep.summary()
