"""Movies of class-n diagrams, and the degree-one cocycle on them.

Only triple point moves contribute.  For each one the three crossings of
the triangle are sorted by the strand height order into d (highest over
lowest), hm (highest over middle) and ml (middle over lowest); the
homological markings then classify the move, and the two contributing
classes are the ones marked (a, n, a) and (n, n, n).  Each contribution
couples the move's local weight (an arrow count over the instantaneous
diagram) with a linking-style count along the ml chord.

Everything is read off the state just before the move: the triangle's
three token pairs, found once when R3 was applied and kept by the Gauss
diagram (moves.r3_token_pairs), and the markings and token positions.
The arrow counts pair only the marking-n crossings that count (the
move's f-crossings, or hm) with the marking-0 ones.

The value is a sum over the triple point moves, so the one pass that
builds a movie gathers it: Movie.append keeps a record of each triple
point move instead of the states, and walk reads the records, applying
nothing.  Report rows (MoveRow, CocycleReport) are built only on request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .gauss import match_n0_pairs, zero_chords
from .moves import (R3, MoveError, _invert, r3_checked, r3_token_pairs,
                    same_gauss)


class CocycleError(ValueError):
    pass


@dataclass
class TripleData:
    """Classification data of one triple point move, taken on the state
    just before the move."""

    slot: int
    d: int
    hm: int
    ml: int
    marks: dict
    global_type: str      # 'r' or 'l'
    local_type: int       # 1..8, lexicographic in the sign triple
    sign: int             # coorientation of the crossing direction
    w_hm: int


def classify_r3(state, slot):
    """TripleData for the R3 move applied at this slot of this state."""
    try:
        trip = r3_checked(state.events, slot)
    except MoveError as exc:
        raise CocycleError(str(exc)) from exc
    g = state.gauss()
    toks = g.tokens
    # the pairs R3.apply transposes: each strand meets two crossings back
    # to back and passes over ('h') one per strand below it; R3's check
    # leaves only totally ordered heights, so one pair is hh (the highest
    # strand) and one ff (the lowest), and d is the crossing they share
    i, j, k = r3_token_pairs(g, trip)
    (x0, p0), (y0, q0) = toks[i], toks[i + 1]
    (x1, p1), (y1, q1) = toks[j], toks[j + 1]
    (x2, p2), (y2, q2) = toks[k], toks[k + 1]
    h0, h1 = (p0, q0) if x0 == y0 == 'h' else (p1, q1) if x1 == y1 == 'h' else (p2, q2)
    f0, f1 = (p0, q0) if x0 == y0 == 'f' else (p1, q1) if x1 == y1 == 'f' else (p2, q2)
    d, hm = (h0, h1) if h0 == f0 or h0 == f1 else (h1, h0)
    ml = f1 if f0 == d else f0

    marks = g.markings()
    md, mhm, mml = marks[d], marks[hm], marks[ml]
    total = mhm + mml - md
    if total == state.n:
        gtype = 'r'
    elif total == 0:
        gtype = 'l'
    else:
        raise CocycleError(f"marking balance {total} fits neither side")

    signs = g.signs
    whm = signs[hm]
    local = 1 + (signs[d] < 0) * 4 + (whm < 0) * 2 + (signs[ml] < 0)

    # the three pairs hold the six ends in token order, and any two of
    # the chords have one end in a common pair; they interleave when the
    # first end of that pair belongs to the chord whose other end comes
    # in the next pair, cyclically
    inter = ((p0 == p1 or p0 == q1) + (p1 == p2 or p1 == q2)
             + (p2 == p0 or p2 == q0))
    return TripleData(slot, d, hm, ml, {'d': md, 'hm': mhm, 'ml': mml},
                      gtype, local, -1 if inter % 2 else 1, whm)


def f_crossings(g, triple, n):
    """Marking-n crossings, outside the triangle, whose foot lies
    strictly inside the arc from the head of hm to the foot of hm."""
    pos, size = g._pos, len(g.tokens)
    start = pos[('h', triple.hm)]
    span = (pos[('f', triple.hm)] - start) % size
    marks = g.markings()
    skip = triple.d, triple.hm, triple.ml
    return [cid for cid in g.signs
            if marks[cid] == n and cid not in skip
            and 0 < (pos[('f', cid)] - start) % size < span]


def w2_p(g, triple, n, bottoms=None):
    """Arrow count at the move: interleaved (n, 0) pairs whose n-crossing
    is an f-crossing of the move.  bottoms: as for match_n0_pairs."""
    return sum(w for _, _, w in match_n0_pairs(g, n, f_crossings(g, triple, n), bottoms))


def w2_hm(g, triple, n, bottoms=None):
    """Arrow count of the hm crossing itself: its (n, 0) pairings.
    bottoms: as for match_n0_pairs."""
    return sum(w for _, _, w in match_n0_pairs(g, n, (triple.hm,), bottoms))


def l_p(g, triple, mark_needed):
    """Signed count of crossings of the required marking cutting the ml
    chord from the side away from the highest branch."""
    pos, size = g._pos, len(g.tokens)
    h_ml, f_ml = pos[('h', triple.ml)], pos[('f', triple.ml)]
    # the open arc of the ml chord that does not hold head(d): the
    # highest branch carries head(d) and head(hm)
    start, span = h_ml, (f_ml - h_ml) % size
    if 0 < (pos[('h', triple.d)] - h_ml) % size < span:
        start, span = f_ml, size - span
    marks = g.markings()
    skip = triple.d, triple.hm, triple.ml
    total = 0
    for cid, sign in g.signs.items():
        if (marks[cid] == mark_needed and cid not in skip
                and 0 < (pos[('f', cid)] - start) % size < span
                and not 0 < (pos[('h', cid)] - start) % size < span):
            total += sign
    return total


@dataclass
class MoveRow:
    index: int
    triple: TripleData
    contrib: int
    w2p: int = 0
    lp: int = 0
    w2hm: int = 0


@dataclass
class CocycleReport:
    n: int
    a: int
    value: int
    rows: list = field(default_factory=list)

    def contributing(self):
        return [r for r in self.rows if r.contrib != 0]


def _contributions(g, t, n, avals):
    """(a, contrib, w2p, lp, w2hm) for each a at which a triple point move
    of class (a, n, a) or (n, n, n) counts.

    The a-independent counts are taken once; only the (n, n, n) class
    needs l_p at the marking n - a of each a.
    """
    if t.marks['d'] == n:
        w2hm = w2_hm(g, t, n)
        weight = -t.sign * w2hm * t.w_hm
        out = []
        for a in avals:
            lp = l_p(g, t, n - a)
            out.append((a, lp * weight, 0, lp, w2hm))
        return out
    # (a, n, a) at a = md only: both counts pair with the same marking-0
    # chords, and classify_r3 has computed the markings
    bottoms = zero_chords(g, g._marks)
    w2p = w2_p(g, t, n, bottoms)
    w2hm = w2_hm(g, t, n, bottoms)
    lp = l_p(g, t, n)
    return [(t.marks['d'], t.sign * (w2p + (lp + t.w_hm - 1) * w2hm * t.w_hm),
             w2p, lp, w2hm)]


class Movie:
    """A path in the space of class-n diagrams: a start diagram, the moves
    applied to it, and the state the last one leaves behind.

    Movie(start, moves) applies each move once, through append, and
    raises the move's own error if one does not apply (or the
    CocycleError of a triple point move that cannot be classified), so a
    movie always holds a valid path.  No other state is kept, only one
    record per triple point move, which walk reads.  start is read-only,
    and moves returns a fresh list.  steps and states replay from start.
    """

    def __init__(self, start, moves=()):
        self._start = self._final = start
        self._moves, self._r3s = [], []
        for mv in moves:
            self.append(mv)

    @property
    def start(self):
        return self._start

    @property
    def moves(self):
        return list(self._moves)

    def __repr__(self):
        return f"Movie(start={self._start!r}, moves={self._moves!r})"

    def append(self, mv):
        """Apply mv to the final state, record it, and return the state it
        leaves behind.  A triple point move is classified on the state it
        is applied to, and its record kept: (move index, TripleData, the
        counted terms at every a = 1..n-1 for a contributing class)."""
        before = self._final
        after = mv.apply(before)
        if isinstance(mv, R3):
            t, n = classify_r3(before, mv.slot), before.n
            md, counted = t.marks['d'], ()
            if (t.global_type == 'r' and t.marks['hm'] == n
                    and t.marks['ml'] == md and 0 < md <= n):
                counted = _contributions(before.gauss(), t, n, range(1, n))
            self._r3s.append((len(self._moves) + 1, t, counted))
        self._moves.append(mv)
        self._final = after
        return after

    def steps(self):
        """(state_before, move, state_after) for each move, replayed."""
        cur = self._start
        for mv in self._moves:
            nxt = mv.apply(cur)
            yield cur, mv, nxt
            cur = nxt

    def states(self):
        return [self._start] + [after for _, _, after in self.steps()]

    def final(self):
        return self._final

    def is_closed(self):
        return same_gauss(self._final, self._start)

    def reversed(self):
        """The inverse loop.  Only moves with an evident inverse appear in
        generated loops, so this is total on what the package produces."""
        inverse = [_invert(mv, before) for before, mv, _ in self.steps()]
        return Movie(self._final, inverse[::-1])


def walk(movie, avals, report=False):
    """{a: value}, or with report {a: CocycleReport} with one row per
    triple point move, at every a in avals (0 < a < n), read off the
    movie's records: nothing is applied, and rows are built only then."""
    values = dict.fromkeys(avals, 0)
    rows = {a: [] for a in avals} if report else None
    for index, t, counted in movie._r3s:
        for a, contrib, *_ in counted:
            if a in values:
                values[a] += contrib
        if report:
            # a row that does not depend on a is built once and shared
            zero = MoveRow(index, t, 0)
            own = {a: MoveRow(index, t, *counts) for a, *counts in counted}
            for a in avals:
                rows[a].append(own.get(a, zero))
    if not report:
        return values
    return {a: CocycleReport(movie.start.n, a, values[a], rows[a]) for a in avals}


def evaluate(movie, a, report=False):
    """Value of the parameter-a cocycle on a movie of class n.

    The parameter must be an int with 0 < a < n.  Returns an int, or with
    report a CocycleReport carrying one row per triple point move.
    """
    n = movie.start.n
    if type(a) is not int:
        raise CocycleError(f"parameter a={a!r} is not an integer")
    if not 0 < a < n:
        raise CocycleError(f"parameter a={a} outside 0 < a < {n}")
    return walk(movie, (a,), report)[a]


def evaluate_all(movie, report=False):
    """Values (or CocycleReports, with report) at every a = 1 .. n-1."""
    return walk(movie, range(1, movie.start.n), report)


def interpolation_polynomial(values):
    """Exact Lagrange interpolation through {a: value}; returns the
    coefficient list c0..ck as Fractions, lowest degree first."""
    pts = sorted(values.items())
    coeffs = [Fraction(0)] * len(pts)
    for xi, yi in pts:
        basis = [Fraction(1)]
        denom = Fraction(1)
        for xj, _ in pts:
            if xj == xi:
                continue
            # multiply basis by (x - xj)
            new = [Fraction(0)] * (len(basis) + 1)
            for k, ck in enumerate(basis):
                new[k] += ck * (-xj)
                new[k + 1] += ck
            basis = new[:len(pts)]
            denom *= (xi - xj)
        for k, ck in enumerate(basis):
            coeffs[k] += yi * ck / denom
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def polynomial_text(coeffs):
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0 and len(coeffs) > 1:
            continue
        term = str(c) if k == 0 else (f"{c}*a" if k == 1 else f"{c}*a^{k}")
        parts.append(term)
    return " + ".join(parts) if parts else "0"
