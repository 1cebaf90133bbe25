from fractions import Fraction

import pytest

from cocycle_lab.cabling import LONG_TREFOIL, normalize_w1
from cocycle_lab.cocycle import (CocycleError, CocycleReport, Movie, MoveRow,
                                 TripleData, _contributions, classify_r3,
                                 evaluate, evaluate_all,
                                 interpolation_polynomial, polynomial_text)
from cocycle_lab.loops import push_loop
from cocycle_lab.moves import R3, MoveError


def trefoil_push():
    return push_loop([1], normalize_w1(LONG_TREFOIL, 1), 2)


def test_parameter_range_enforced():
    movie = trefoil_push()
    with pytest.raises(CocycleError):
        evaluate(movie, 0)
    with pytest.raises(CocycleError):
        evaluate(movie, 2)


@pytest.mark.parametrize('a', [1.5, 2.0, 1.0, True, '1', None])
def test_a_parameter_that_is_not_an_int_is_refused(a):
    movie = push_loop([1, 2], normalize_w1(LONG_TREFOIL, 1), 3)
    assert evaluate(movie, 1) == evaluate(movie, 2) == 2
    with pytest.raises(CocycleError, match='not an integer'):
        evaluate(movie, a)
    with pytest.raises(CocycleError, match='not an integer'):
        evaluate(movie, a, report=True)


def test_report_rows_cover_every_triple_move():
    movie = trefoil_push()
    rep = evaluate(movie, 1, report=True)
    r3_count = sum(isinstance(m, R3) for m in movie.moves)
    assert len(rep.rows) == r3_count
    assert sum(r.contrib for r in rep.rows) == rep.value


def test_classification_agrees_with_marks():
    movie = trefoil_push()
    for before, mv, after in movie.steps():
        if not isinstance(mv, R3):
            continue
        t = classify_r3(before, mv.slot)
        assert t.sign in (-1, 1)
        assert set(t.marks) == {'d', 'hm', 'ml'}
        assert all(0 <= m <= 2 for m in t.marks.values())


def test_global_type_r_needs_mark_balance():
    movie = trefoil_push()
    n = 2
    for before, mv, after in movie.steps():
        if not isinstance(mv, R3):
            continue
        t = classify_r3(before, mv.slot)
        balanced = t.marks['hm'] + t.marks['ml'] - t.marks['d'] == n
        assert (t.global_type == 'r') == balanced


def test_interpolation_exact():
    # values of 2a^2 - 3a + 1 at a = 1..3
    values = {a: 2 * a * a - 3 * a + 1 for a in (1, 2, 3)}
    assert interpolation_polynomial(values) == [
        Fraction(1), Fraction(-3), Fraction(2)]


def test_interpolation_constant():
    assert interpolation_polynomial({1: 5, 2: 5, 3: 5}) == [Fraction(5)]


def test_polynomial_text():
    assert polynomial_text([Fraction(1), Fraction(-3), Fraction(2)]) \
        == "1 + -3*a + 2*a^2"
    assert polynomial_text([Fraction(0)]) == "0"
    # a zero middle coefficient is left out
    assert polynomial_text([Fraction(-1), Fraction(0), Fraction(3)]) == "-1 + 3*a^2"


def test_evaluate_all_covers_parameters():
    movie = push_loop([1, 2], normalize_w1(LONG_TREFOIL, 1), 3)
    values = evaluate_all(movie)
    assert sorted(values) == [1, 2]


# classify_r3 at slot 0 of the closure of [pattern with flags] + [last],
# a class-3 knot: (d, hm, ml, local_type, global_type, marks, sign, w_hm);
# None for the two flag triples with cyclic strand heights
R3_TABLE = {
    ((1, 2, 1, 2), '+++'): (2, 1, 3, 1, 'l', (2, 1, 1), 1, 1),
    ((1, 2, 1, 2), '++-'): (1, 2, 3, 2, 'r', (1, 2, 2), 1, 1),
    ((1, 2, 1, 2), '+-+'): None,
    ((1, 2, 1, 2), '+--'): (3, 2, 1, 7, 'l', (2, 1, 1), 1, -1),
    ((1, 2, 1, 2), '-++'): (3, 1, 2, 3, 'r', (1, 2, 2), 1, -1),
    ((1, 2, 1, 2), '-+-'): None,
    ((1, 2, 1, 2), '--+'): (1, 3, 2, 6, 'l', (2, 1, 1), 1, 1),
    ((1, 2, 1, 2), '---'): (2, 3, 1, 8, 'r', (1, 2, 2), 1, -1),
    ((2, 1, 2, 1), '+++'): (2, 3, 1, 1, 'r', (1, 2, 2), 1, 1),
    ((2, 1, 2, 1), '++-'): (1, 3, 2, 3, 'l', (2, 1, 1), 1, -1),
    ((2, 1, 2, 1), '+-+'): None,
    ((2, 1, 2, 1), '+--'): (3, 1, 2, 6, 'r', (1, 2, 2), 1, 1),
    ((2, 1, 2, 1), '-++'): (3, 2, 1, 2, 'l', (2, 1, 1), 1, 1),
    ((2, 1, 2, 1), '-+-'): None,
    ((2, 1, 2, 1), '--+'): (1, 2, 3, 7, 'r', (1, 2, 2), 1, -1),
    ((2, 1, 2, 1), '---'): (2, 1, 3, 8, 'l', (2, 1, 1), 1, -1),
}


@pytest.mark.parametrize('word,flags', sorted(R3_TABLE))
def test_classify_r3_table(word, flags):
    from cocycle_lab.cabling import braid_events, closed_cable
    braid = [g if f == '+' else -g for g, f in zip(word, flags)] + [word[3]]
    state = closed_cable(braid_events(braid), [], 3)
    want = R3_TABLE[word, flags]
    if want is None:
        with pytest.raises(CocycleError, match='cyclic'):
            classify_r3(state, 0)
        return
    t = classify_r3(state, 0)
    got = (t.d, t.hm, t.ml, t.local_type, t.global_type,
           (t.marks['d'], t.marks['hm'], t.marks['ml']), t.sign, t.w_hm)
    assert got == want


@pytest.fixture(scope='module')
def r3_applies():
    """(state before, slot) of every R3 apply in the transport-grid movies
    and in the loops of the tetrahedron, cube and contractible suites."""
    from test_annular import _transport_grid_movies

    from cocycle_lab import verify
    movies = _transport_grid_movies()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(verify, '_check_loop_zero',
                  lambda rep, movie, case: movies.append(movie))
        for suite in ('tetrahedron', 'cube', 'contractible'):
            verify.run_suite(suite)
    return [(before, mv.slot) for movie in movies
            for before, mv, _ in movie.steps() if isinstance(mv, R3)]


def _sign_by_interleaving(g, t):
    """Reference sign: +1 when an even number of the triangle's three
    chord pairs interleave."""
    from test_gauss import interleaved
    inter = sum(interleaved(g, x, y)
                for x, y in ((t.d, t.hm), (t.d, t.ml), (t.hm, t.ml)))
    return 1 if inter in (0, 2) else -1


def test_r3_triangle_is_three_adjacent_token_pairs(r3_applies):
    # each strand meets two of the triangle's crossings back to back, and
    # no ray passage lies inside the pattern
    from cocycle_lab.moves import r3_triple
    applies = r3_applies
    signs = set()
    for state, slot in applies:
        g = state.gauss()
        pos = sorted(g.position(k, ev.cid)
                     for ev in r3_triple(state.events, slot) for k in 'hf')
        assert [pos[1] - pos[0], pos[3] - pos[2], pos[5] - pos[4]] == [1, 1, 1]
        t = classify_r3(state, slot)
        assert t.sign == _sign_by_interleaving(g, t), (state.events, slot)
        signs.add(t.sign)
    assert len(applies) > 1000 and signs == {1, -1}


def classify_r3_reference(state, slot):
    """classify_r3 as first written: the roles by set algebra on the
    strands' crossing pairs, one marking() call per crossing, and the sign
    by filtering the six ends once per chord pair."""
    try:
        trip = R3(slot).check(state)
    except MoveError as exc:
        raise CocycleError(str(exc)) from exc
    g = state.gauss()
    firsts = sorted(g.position(k, ev.cid) for ev in trip for k in 'hf')[::2]
    met = [g.tokens[i:i + 2] for i in firsts]
    score = [(m[0][0] == 'h') + (m[1][0] == 'h') for m in met]
    hi = {cid for _, cid in met[score.index(2)]}
    lo = {cid for _, cid in met[score.index(0)]}
    (d,), (hm,), (ml,) = hi & lo, hi - lo, lo - hi

    marks = {q: g.marking(q) for q in (d, hm, ml)}
    total = marks[hm] + marks[ml] - marks[d]
    if total == state.n:
        gtype = 'r'
    elif total == 0:
        gtype = 'l'
    else:
        raise CocycleError(f"marking balance {total} fits neither side")

    wd, whm, wml = g.signs[d], g.signs[hm], g.signs[ml]
    key = ((1 - wd) // 2, (1 - whm) // 2, (1 - wml) // 2)
    local = 1 + key[0] * 4 + key[1] * 2 + key[2]

    ends = [cid for m in met for _, cid in m]
    pair_ends = ([e for e in ends if e in xy] for xy in ((d, hm), (d, ml), (hm, ml)))
    inter = sum(f[0] == f[2] for f in pair_ends)
    sign = 1 if inter in (0, 2) else -1

    return TripleData(slot=slot, d=d, hm=hm, ml=ml,
                      marks={'d': marks[d], 'hm': marks[hm], 'ml': marks[ml]},
                      global_type=gtype, local_type=local, sign=sign,
                      w_hm=whm)


def test_classify_r3_matches_the_reference(r3_applies):
    seen = set()
    for state, slot in r3_applies:
        t = classify_r3(state, slot)
        assert t == classify_r3_reference(state, slot), (state.events, slot)
        seen.add((t.global_type, t.local_type, t.sign))
    # no triangle met here, nor any of R3_TABLE, has local type 4 or 5
    assert len(r3_applies) > 1000
    assert [{k[i] for k in seen} for i in range(3)] == [
        {'r', 'l'}, {1, 2, 3, 6, 7, 8}, {1, -1}]


@pytest.mark.parametrize('word,flags', sorted(k for k, v in R3_TABLE.items() if v is None))
def test_classify_r3_refuses_cyclic_heights_as_the_reference(word, flags):
    from cocycle_lab.cabling import braid_events, closed_cable
    braid = [g if f == '+' else -g for g, f in zip(word, flags)] + [word[3]]
    state = closed_cable(braid_events(braid), [], 3)
    with pytest.raises(CocycleError) as want:
        classify_r3_reference(state, 0)
    with pytest.raises(CocycleError) as got:
        classify_r3(state, 0)
    assert str(got.value) == str(want.value)


def test_triangle_is_found_once_per_triple_point_move(monkeypatch):
    # R3.apply finds the triangle's token pairs on the state before the
    # move and the diagram keeps them; classify_r3 on that state reads the
    # kept pairs instead of finding them again
    from cocycle_lab import cocycle, moves
    from cocycle_lab.discriminant import tangency_hosts, tangency_loop
    find, found = moves.r3_token_pairs, []

    def recorded(g, trip):
        firsts = find(g, trip)
        found.append(firsts)
        return firsts

    for module in (moves, cocycle):
        monkeypatch.setattr(module, 'r3_token_pairs', recorded)
    flags, host, slot = next(tangency_hosts((1, 2, 3), (0, 0, 2), 2))
    movies = [push_loop([1, 2], normalize_w1(LONG_TREFOIL, 1), 3),
              tangency_loop(host, slot, flags[0])]
    r3s = 0
    for movie in movies:
        r3s += sum(isinstance(mv, R3) for mv in movie.moves)
        evaluate_all(movie)
    assert r3s > 0 and len(found) == 2 * r3s
    # found keeps every result alive, so no two of them share an id
    assert len({id(firsts) for firsts in found}) == r3s


def test_a_kept_triangle_gives_way_to_the_next_one_asked():
    from cocycle_lab.moves import r3_token_pairs, r3_triple
    for state in trefoil_push().states():
        g = state.gauss()
        trips = [t for s in range(len(state.events))
                 if (t := r3_triple(state.events, s)) is not None]
        if len(trips) < 2:
            continue
        want = [sorted(g.position(k, ev.cid) for ev in t for k in 'hf')[::2]
                for t in trips]
        for t, firsts in zip(trips + trips[::-1], want + want[::-1]):
            assert list(r3_token_pairs(g, t)) == firsts
        return
    raise AssertionError("no state with two triple point patterns")


# ---------------------------------------------------------------------------
# The value path (no report rows) against the report path, on every movie
# family the verify suites and the benchmark generate

def _suite_movies(name, params=None):
    """The loops a verify suite checks, in order."""
    from cocycle_lab import verify
    movies = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, '_check_loop_zero',
                   lambda rep, movie, case: movies.append(movie))
        verify.run_suite(name, params)
    return movies


def _scan_invariance_movies():
    """The scans of the scan-invariance suite: each fixture and its variants."""
    from cocycle_lab import verify
    movies, scan = [], verify.scan_path

    def recorded(*args):
        movies.append(scan(*args))
        return movies[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, 'scan_path', recorded)
        verify.run_suite('scan-invariance')
    return movies


def _transport_grid_movies():
    from test_annular import _transport_grid_movies
    return _transport_grid_movies()


def _a_dependent_push_loops():
    from test_arrow_counts import a_dependent_push_loops
    return a_dependent_push_loops()


# family -> (builder, movies, triple point moves, (row, a) with a count
# that is not zero); the commutation loops meet no such row
MOVIE_FAMILIES = {
    'transport-grid': (_transport_grid_movies, 12, 460, 44),
    'a-dependent-push': (_a_dependent_push_loops, 4, 552, 25),
    'scan-invariance': (_scan_invariance_movies, 63, 2712, 308),
    'tetrahedron-n2-n3': (lambda: _suite_movies('tetrahedron', {'ns': (2, 3)}),
                          180, 1440, 36),
    'cube': (lambda: _suite_movies('cube'), 666, 1332, 46),
    'commutation': (lambda: _suite_movies('commutation'), 90, 180, 0),
    'contractible': (lambda: _suite_movies('contractible'), 100, 14, 6),
}


def walk_reference(movie, avals, report=False):
    """The evaluation as a second pass: replay the movie, classify each
    triple point move on the state before it, and take the counts for
    the asked values of a only."""
    n = movie.start.n
    values = dict.fromkeys(avals, 0)
    rows = {a: [] for a in avals}
    for index, (before, mv, _) in enumerate(movie.steps(), 1):
        if not isinstance(mv, R3):
            continue
        t = classify_r3(before, mv.slot)
        marks, counted = t.marks, ()
        md = marks['d']
        if (t.global_type == 'r' and marks['hm'] == n and marks['ml'] == md
                and (md == n or md in values)):
            counted = _contributions(before.gauss(), t, n, avals)
        for a, contrib, *_ in counted:
            values[a] += contrib
        own = {a: MoveRow(index, t, *counts) for a, *counts in counted}
        for a in avals:
            rows[a].append(own.get(a, MoveRow(index, t, 0)))
    if not report:
        return values
    return {a: CocycleReport(n, a, values[a], rows[a]) for a in avals}


@pytest.mark.parametrize("family", MOVIE_FAMILIES)
def test_value_path_equals_the_report_path(family, monkeypatch):
    from cocycle_lab import cocycle
    build, count, r3_count, count_rows = MOVIE_FAMILIES[family]
    movies = build()
    assert len(movies) == count
    classify, classified = cocycle.classify_r3, []

    def recorded(state, slot):
        classified.append(slot)
        return classify(state, slot)

    monkeypatch.setattr(cocycle, 'classify_r3', recorded)
    r3_total = nonzero_rows = 0
    for movie in movies:
        r3s = sum(isinstance(mv, R3) for mv in movie.moves)
        r3_total += r3s
        n = movie.start.n
        # building a movie classifies each triple point move once ...
        del classified[:]
        rebuilt = Movie(movie.start, movie.moves)
        assert len(classified) == r3s
        # ... and no evaluation, with or without report rows, classifies
        del classified[:]
        values = evaluate_all(movie)
        reports = evaluate_all(movie, report=True)
        assert evaluate_all(rebuilt) == values
        assert values == {a: rep.value for a, rep in reports.items()}
        assert values == {a: sum(row.contrib for row in rep.rows)
                          for a, rep in reports.items()}
        assert sorted(values) == list(range(1, n))
        singles = {}
        for a, rep in reports.items():
            assert (rep.n, rep.a) == (n, a) and len(rep.rows) == r3s
            assert evaluate(movie, a) == values[a]
            singles[a] = evaluate(movie, a, report=True)
            assert singles[a].value == values[a] and singles[a].rows == rep.rows
            nonzero_rows += sum(any((row.w2p, row.lp, row.w2hm, row.contrib))
                                for row in rep.rows)
        assert classified == []
        # the records give what a second pass over the replayed states gives
        avals = range(1, n)
        assert walk_reference(movie, avals) == values
        assert walk_reference(movie, avals, report=True) == reports
        for a, single in singles.items():
            assert walk_reference(movie, (a,), report=True) == {a: single}
    assert (r3_total, nonzero_rows) == (r3_count, count_rows)
