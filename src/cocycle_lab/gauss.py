"""Marked Gauss diagrams and their arrow-counting invariants.

A Gauss diagram records the cyclic sequence of over- and underpasses met
along the knot, together with signed ray passages.  All quantities the
cocycle machinery needs (homological markings, the degree-two invariant,
Conway coefficients, the covering lift) are functions of this data alone.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools


class DiagramError(ValueError):
    """Structural problem with a Morse word or diagram."""

    def __init__(self, code, message):
        super().__init__(f"{code}: {message}")
        self.code = code


def ray_starts(tokens):
    """Token indices of the ray passages: the rotations canonical forms
    minimise over.  A diagram's walk starts on the ray, so every diagram
    has one; a bare token list without any falls back to all rotations."""
    return [i for i, tok in enumerate(tokens) if tok[0] == 'r'] or range(len(tokens))


@dataclass
class GaussDiagram:
    """Marked Gauss diagram of a knot in the solid torus.

    tokens is the cyclic sequence met along the knot: ('h', cid) for an
    overpass, ('f', cid) for an underpass, ('r', +1/-1) for a signed ray
    passage.  signs maps crossing ids to the crossing sign.

    Nothing changes tokens or signs after construction: moves that edit
    the Gauss data build a new diagram, and states whose Gauss data a
    move keeps share this object.  The token positions are indexed at
    construction, and the markings are computed on first use, by the one
    prefix sum in markings().  Moves that insert, drop or rotate tokens
    build their diagram here from the edited list.  Only a triple point
    move (transposed) derives one from its parent: it copies the
    parent's index and moves six entries of it, and shares the parent's
    signs and markings, which classifying the move computes anyway.

    The last triangle asked of a diagram (moves.r3_token_pairs) is kept,
    keyed by its three crossing ids: R3.apply finds it once and
    cocycle.classify_r3 reads it on the same state.  Nothing changes a
    diagram, so a kept triangle cannot be stale.
    """

    tokens: list
    signs: dict

    def __post_init__(self):
        self._pos = {tok: idx for idx, tok in enumerate(self.tokens) if tok[0] != 'r'}
        self._marks = None
        self._triangle = None, None

    @property
    def homology_class(self):
        return sum(s for k, s in self.tokens if k == 'r')

    def position(self, end, cid):
        return self._pos[(end, cid)]

    def marking(self, cid):
        """Winding number of the positive smoothing at cid: the signed ray
        count on the arc from the overpass to the underpass."""
        return self.markings()[cid]

    def markings(self):
        """The marking of every crossing, read off one prefix sum of ray
        passages over the tokens.  The dict is shared; do not modify it."""
        if self._marks is None:
            before, total = [], 0
            for kind, val in self.tokens:
                before.append(total)
                if kind == 'r':
                    total += val
            marks = {}
            for cid in self.signs:
                h, f = self._pos[('h', cid)], self._pos[('f', cid)]
                marks[cid] = before[f] - before[h] + (total if h > f else 0)
            self._marks = marks
        return self._marks

    def transposed(self, firsts):
        """The Gauss diagram a triple point move leaves behind: for each
        index i in firsts, the tokens at i and i + 1 change places.

        Only crossing tokens move, so every crossing keeps its sign and
        its marking: the new diagram shares the parent's signs and
        markings dict (computed here if need be), and copies the parent's
        index with the moved entries updated.
        """
        tokens, pos = list(self.tokens), dict(self._pos)
        for i in firsts:
            x, y = tokens[i], tokens[i + 1]
            tokens[i], tokens[i + 1] = y, x
            pos[x], pos[y] = i + 1, i
        g = GaussDiagram.__new__(GaussDiagram)
        g.tokens, g.signs, g._pos = tokens, self.signs, pos
        g._marks, g._triangle = self.markings(), (None, None)
        return g

    def canonical_tokens(self):
        """Cyclic-rotation-invariant token tuple, for planar-equality tests."""
        toks = tuple(self.tokens)
        return min((toks[r:] + toks[:r] for r in ray_starts(toks)), default=toks)


# ---------------------------------------------------------------------------
# Invariants

def w1(diagram):
    """Sum of signs over crossings of marking one.

    For class-1 diagrams this is the writhe-like degree-one invariant;
    it is what the framing normalisation kills.
    """
    marks = diagram.markings()
    return sum(diagram.signs[c] for c in diagram.signs if marks[c] == 1)


def zero_chords(diagram, marks):
    """(cid, head index, foot index) of every crossing whose marking in
    marks, the diagram's markings, is 0."""
    pos = diagram._pos
    return [(c, pos[('h', c)], pos[('f', c)]) for c in diagram.signs if marks[c] == 0]


def match_n0_pairs(diagram, n=None, tops=None, bottoms=None):
    """All interleaved pairs (q_n, q_0) of a marking-n and a marking-0
    crossing whose endpoints sit in cyclic order

        foot(q_n), head(q_0), head(q_n), foot(q_0).

    Yields (cid_n, cid_0, weight) with weight the product of signs.
    tops, if given, limits q_n to those of its crossings that have
    marking n.  bottoms, if given, is zero_chords(diagram, markings),
    built once for several calls on one diagram.
    """
    if n is None:
        n = diagram.homology_class
    marks, signs, pos = diagram.markings(), diagram.signs, diagram._pos
    size = len(diagram.tokens)
    bot = zero_chords(diagram, marks) if bottoms is None else bottoms
    out = []
    for qn in signs if tops is None else tops:
        if marks[qn] != n:
            continue
        fn = pos[('f', qn)]
        span = (pos[('h', qn)] - fn) % size
        for q0, h0, f0 in bot:
            # q0 == qn never passes: its foot offset (f0 - fn) is 0
            if 0 < (h0 - fn) % size < span < (f0 - fn) % size:
                out.append((qn, q0, signs[qn] * signs[q0]))
    return out


def v2(diagram):
    """Degree-two invariant of a class-n diagram, counted by interleaved
    (marking n, marking 0) crossing pairs."""
    return sum(w for _, _, w in match_n0_pairs(diagram))


def _crossing_sequence(diagram):
    """Crossing tokens in cyclic order starting just after a ray passage.

    Only meaningful for class-1 diagrams, where the ray passage is the
    natural basepoint of a long-knot representative.
    """
    toks = diagram.tokens
    ray = [i for i, t in enumerate(toks) if t[0] == 'r']
    if len(ray) != 1 or toks[ray[0]][1] != 1:
        raise ValueError("Conway-style counts need a class-1 diagram")
    r = ray[0]
    seq = [toks[(r + 1 + i) % len(toks)] for i in range(len(toks) - 1)]
    return [t for t in seq if t[0] != 'r']


def _ascending_one_component(seq, subset):
    """Does band surgery along the arrows of subset leave one component,
    met foot-first at every arrow when walked from the basepoint?

    The surgery respects orientation: arriving at an arrow endpoint the
    walk jumps to the other endpoint and keeps going forward.
    """
    m = len(seq)
    ends = {}
    for i, (kind, cid) in enumerate(seq):
        if cid in subset:
            ends.setdefault(cid, []).append(i)
    jump = {}
    for cid, (a, b) in ends.items():
        jump[a], jump[b] = b, a
    first_end = {}
    p, visited = 0, set()
    while p not in visited:
        visited.add(p)
        kind, cid = seq[p]
        if cid in subset:
            if cid not in first_end:
                first_end[cid] = kind
            p = (jump[p] + 1) % m
        else:
            p = (p + 1) % m
    if len(visited) != m:
        return False
    return all(k == 'f' for k in first_end.values())


def c2k(diagram, k):
    """Coefficient of z^(2k) in the Conway polynomial, counted over
    ascending one-component arrow subsets of size 2k."""
    if k < 0:
        raise ValueError(f"c2k needs k >= 0, got {k}")
    seq = _crossing_sequence(diagram)
    if k == 0:
        return 1
    cids = sorted({cid for _, cid in seq})
    total = 0
    for subset in itertools.combinations(cids, 2 * k):
        if _ascending_one_component(seq, frozenset(subset)):
            w = 1
            for cid in subset:
                w *= diagram.signs[cid]
            total += w
    return total


def lift_to_cover(diagram):
    """Class-1 diagram of the knot lifted along the n-fold cover.

    Keeps the crossings of marking 0 and marking n and a single ray
    passage; deck transformations permute the possible choices, so any
    counter-clockwise passage serves.
    """
    n = diagram.homology_class
    marks = diagram.markings()
    keep = {c for c in diagram.signs if marks[c] in (0, n)}
    tokens = []
    ray_done = False
    for tok in diagram.tokens:
        if tok[0] == 'r':
            if tok[1] == 1 and not ray_done:
                tokens.append(tok)
                ray_done = True
        elif tok[1] in keep:
            tokens.append(tok)
    return GaussDiagram(tokens, {c: diagram.signs[c] for c in keep})
