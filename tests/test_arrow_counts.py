"""Differential test of the arrow counts of the cocycle.

`gauss.match_n0_pairs` tests the cyclic order of four token positions by
offsets from the first, and `w2_p` and `w2_hm` ask it only for the pairs
of their own marking-n crossings.  The reference here lists every
(marking n, marking 0) pair of a Gauss diagram built from scratch, with
markings counted token by token and the cyclic order tested by sorting
the offsets, and then filters.
"""

import functools
from collections import Counter

from hypothesis import given, settings, strategies as st

from cocycle_lab import verify
from cocycle_lab.annular import AnnularDiagram
from cocycle_lab.cabling import (LONG_FIG8, LONG_TORUS25, LONG_TORUS27,
                                 LONG_TREFOIL, normalize_w1)
from cocycle_lab.cocycle import classify_r3, evaluate_all, f_crossings, l_p
from cocycle_lab.discriminant import (GLOBAL_TYPES, HostError, meridian_loop,
                                      quad_host, random_contractible_loop)
from cocycle_lab.gauss import GaussDiagram, match_n0_pairs
from cocycle_lab.loops import (push_full_twist_loop, push_loop,
                               rotation_loop, scan_path)
from cocycle_lab.moves import R3

TREFOIL1 = normalize_w1(LONG_TREFOIL, 1)

# the transport grid: (planner, long knot, n), tangle sigma_1 .. sigma_{n-1}
GRID = [(push_loop, TREFOIL1, n) for n in (2, 3, 4)] + [
    (push_loop, normalize_w1(LONG_TORUS27, 2), 2),
    (push_loop, normalize_w1(LONG_TORUS27, 2), 3),
    (push_loop, normalize_w1(LONG_TORUS25, 2), 2),
] + [(planner, knot, 2)
     for knot in (TREFOIL1, normalize_w1(LONG_FIG8, -1))
     for planner in (rotation_loop, scan_path, push_full_twist_loop)]


def fresh_gauss(state):
    """The Gauss diagram of the state's word, built and validated anew."""
    return AnnularDiagram(state.n, list(state.events), w0=state.w0).gauss()


def reference_markings(g):
    """Signed ray passages on the arc from each overpass to its underpass."""
    size = len(g.tokens)
    marks = {}
    for cid in g.signs:
        h, f = g.tokens.index(('h', cid)), g.tokens.index(('f', cid))
        arc = (g.tokens[i % size] for i in range(h + 1, h + (f - h) % size))
        marks[cid] = sum(v for k, v in arc if k == 'r')
    return marks


def in_cyclic_order(size, indices):
    base = indices[0]
    shifted = [(i - base) % size for i in indices]
    return sorted(shifted) == shifted


def reference_pairs(g, n):
    """Every interleaved (q_n, q_0) pair with its weight, sorted."""
    marks, size = reference_markings(g), len(g.tokens)
    at = {tok: i for i, tok in enumerate(g.tokens)}
    out = []
    for qn in g.signs:
        for q0 in g.signs:
            if q0 == qn or marks[qn] != n or marks[q0] != 0:
                continue
            order = [at['f', qn], at['h', q0], at['h', qn], at['f', q0]]
            if in_cyclic_order(size, order):
                out.append((qn, q0, g.signs[qn] * g.signs[q0]))
    return sorted(out)


@functools.cache
def sample_states():
    """Corpus cables, push-loop states at n = 2..4 and the states of
    seeded contractible walks on every corpus cable."""
    hosts = [d for _, d in verify.corpus_diagrams()]
    states = list(hosts)
    for n in (2, 3, 4):
        states += push_loop(list(range(1, n)), TREFOIL1, n).states()
    for seed in range(8):
        states += random_contractible_loop(hosts[seed % len(hosts)], 6,
                                           seed).states()
    return states


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_match_n0_pairs_matches_the_reference(data):
    state = data.draw(st.sampled_from(sample_states()), label="state")
    g = state.gauss()
    n = data.draw(st.integers(0, state.n), label="n")
    want = reference_pairs(fresh_gauss(state), n)
    assert sorted(match_n0_pairs(g, n)) == want
    if n == state.n:
        assert sorted(match_n0_pairs(g)) == want
    tops = data.draw(st.lists(st.sampled_from(sorted(g.signs)), unique=True),
                     label="tops")
    assert sorted(match_n0_pairs(g, n, tops)) == \
        [p for p in want if p[0] in tops]


def reference_row(before, t, n, a):
    """(w2p, lp, w2hm, contrib) of one triple point move at parameter a,
    from a fresh Gauss diagram and the full pair list."""
    g = fresh_gauss(before)
    md, mhm, mml = t.marks['d'], t.marks['hm'], t.marks['ml']
    if t.global_type != 'r' or mhm != n or md != mml or md not in (a, n):
        return 0, 0, 0, 0
    pairs = reference_pairs(g, n)
    w2hm = sum(w for qn, _, w in pairs if qn == t.hm)
    if md == n:
        lp = l_p(g, t, n - a)
        return 0, lp, w2hm, -t.sign * lp * w2hm * t.w_hm
    fc = f_crossings(g, t, n)
    w2p = sum(w for qn, _, w in pairs if qn in fc)
    lp = l_p(g, t, n)
    return w2p, lp, w2hm, t.sign * (w2p + (lp + t.w_hm - 1) * w2hm * t.w_hm)


def test_report_rows_match_the_reference_over_the_transport_grid():
    counted = 0
    for planner, knot, n in GRID:
        movie = planner(list(range(1, n)), knot, n)
        before = {k: b for k, (b, _, _) in enumerate(movie.steps(), 1)}
        for a, report in evaluate_all(movie, report=True).items():
            for row in report.rows:
                got = (row.w2p, row.lp, row.w2hm, row.contrib)
                assert got == reference_row(before[row.index], row.triple,
                                            n, a), (planner.__name__, n, a,
                                                    row.index)
                counted += any(got)
    assert counted > 0


# the push loops whose values depend on a, pinned in test_identities
# (n = 4, 5): their rows at a != md do not depend on a
A_DEPENDENT = [(LONG_TREFOIL, [-3, 1, 2], 4),
               (LONG_TREFOIL, [1, -2, -3, 2, 3], 4),
               (LONG_TREFOIL, [3, 1, -2, 3, 4, -2, -1, 2], 5),
               (LONG_FIG8, [-3, 1, 2], 4)]


def a_dependent_push_loops():
    return [push_loop(tangle, normalize_w1(knot, 1), n)
            for knot, tangle, n in A_DEPENDENT]


def tetrahedron_meridians(n):
    """The quadruple point meridians of the tetrahedron suite at n."""
    movies = []
    for order in GLOBAL_TYPES.values():
        for ws in verify._windings(4, n):
            try:
                host, slot = quad_host(order, ws, n)
            except HostError:
                continue
            movies.append(meridian_loop(host, slot))
    return movies


def triple_point_moves(movie):
    """{move index: state before} of the movie's triple point moves."""
    return {k: before for k, (before, mv, _) in enumerate(movie.steps(), 1)
            if isinstance(mv, R3)}


def rows_against_the_reference(movie):
    """Compare the report rows of a movie at every a with reference_row;
    returns the number of (row, a) whose counts are not all zero."""
    n, before = movie.start.n, triple_point_moves(movie)
    counted = 0
    for a, report in evaluate_all(movie, report=True).items():
        assert [row.index for row in report.rows] == list(before)
        for row in report.rows:
            got = (row.w2p, row.lp, row.w2hm, row.contrib)
            assert got == reference_row(before[row.index], row.triple, n, a), \
                (n, a, row.index)
            counted += any(got)
    return counted


def test_report_rows_match_the_reference_on_loops_that_depend_on_a():
    for movie in a_dependent_push_loops():
        assert rows_against_the_reference(movie) > 0


def test_report_rows_match_the_reference_on_the_tetrahedron_meridians():
    # the n = 3 meridians meet (n, n, n) moves, whose rows take l_p at the
    # marking n - a of each a; the transport grid meets none
    movies = tetrahedron_meridians(3)
    nnn = sum(row.triple.marks == {'d': 3, 'hm': 3, 'ml': 3} and row.lp != 0
              for movie in movies
              for report in evaluate_all(movie, report=True).values()
              for row in report.rows)
    assert len(movies) == 120 and nnn > 0
    assert sum(rows_against_the_reference(movie) for movie in movies) > 0


def reference_arc(g, cid):
    """The tokens strictly inside the arc from the head of cid to its foot."""
    toks, size = g.tokens, len(g.tokens)
    h, f = toks.index(('h', cid)), toks.index(('f', cid))
    return {toks[i % size] for i in range(h + 1, h + (f - h) % size)}


def reference_f_crossings(g, marks, t, n):
    arc = reference_arc(g, t.hm)
    return [c for c in g.signs if c not in (t.d, t.hm, t.ml)
            and marks[c] == n and ('f', c) in arc]


def reference_l_p(g, marks, t, mark):
    """l_p with the ml chord's two sides listed token by token: the side
    away from the highest branch is the one without head(d)."""
    side = reference_arc(g, t.ml)
    if ('h', t.d) in side:
        side = set(g.tokens) - side - {('h', t.ml), ('f', t.ml)}
    return sum(s for c, s in g.signs.items() if c not in (t.d, t.hm, t.ml)
               and marks[c] == mark and ('f', c) in side
               and ('h', c) not in side)


def test_f_crossings_and_l_p_match_the_reference():
    # l_p and f_crossings read the token index with cyclic offsets and the
    # kept markings; the reference reads the token list alone, listing the
    # arcs token by token and counting the markings anew
    movies = ([planner(list(range(1, n)), knot, n) for planner, knot, n in GRID]
              + a_dependent_push_loops() + tetrahedron_meridians(3))
    seen = Counter()
    for movie in movies:
        n = movie.start.n
        for before, mv, _ in movie.steps():
            if not isinstance(mv, R3):
                continue
            t = classify_r3(before, mv.slot)
            g = before.gauss()
            marks = reference_markings(g)
            fc = f_crossings(g, t, n)
            assert sorted(fc) == sorted(reference_f_crossings(g, marks, t, n))
            lps = [l_p(g, t, m) for m in range(n + 1)]
            assert lps == [reference_l_p(g, marks, t, m) for m in range(n + 1)]
            seen['f'] += bool(fc)
            seen['l'] += any(lps)
    assert seen['f'] > 0 and seen['l'] > 0


def test_markings_prefix_sum_runs_once_per_diagram_no_r3_edit_made(
        monkeypatch):
    computed = []
    markings = GaussDiagram.markings

    def counted(self):
        if self._marks is None:
            computed.append(self)
        return markings(self)

    monkeypatch.setattr(GaussDiagram, 'markings', counted)
    movie = push_loop([1, 2], normalize_w1(LONG_TORUS27, 2), 3)
    assert evaluate_all(movie) == {1: 30, 2: 30}
    r3_made = {id(after.gauss()) for _, mv, after in movie.steps()
               if isinstance(mv, R3)}
    runs = Counter(id(g) for g in computed)
    assert r3_made
    assert not r3_made & set(runs)
    assert set(runs.values()) == {1}
