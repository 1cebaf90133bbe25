"""Knot diagrams in the solid torus, encoded as cyclic Morse words.

A diagram is a cyclic word of elementary events read counter-clockwise
around the annulus:

    U i     birth of a nested strand pair at positions i, i+1  (cup)
    A i     death of the adjacent strand pair at positions i, i+1  (cap)
    X+ i    crossing of strands i, i+1; the strand ascending from
            position i to i+1 passes over
    X- i    same, with the ascending strand passing under

Strand positions are 1-based and counted radially.  The word origin is a
marked slice (the "ray"): the trace of the compressing disc of the solid
torus.  A class-n diagram crosses the ray n times, all in the counter-
clockwise direction.  Homological markings of crossings are counted as
signed ray passages, so intermediate states of an isotopy may park
backward strands over the ray without corrupting any marking.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .gauss import DiagramError, GaussDiagram

# strand count change across an event of each kind
_DELTA = {'U': 2, 'A': -2, 'X': 0}


class MorseEvent(namedtuple('MorseEvent', 'kind pos over cid')):
    """One elementary event of a Morse word: an immutable named tuple of
    its four fields, equal to and hashed as the plain tuple of them.
    Construction validates the fields; copies and unpickling go back
    through the constructor and so validate again.  The inherited
    _make and _replace skip validation, so the package never calls
    them."""

    __slots__ = ()

    def __new__(cls, kind, pos, over='', cid=-1):
        # kind 'U', 'A' or 'X'; pos 1-based; over, for 'X', '+' when the
        # ascending strand passes over, '-' under; cid -1 for cups/caps
        if kind not in ('U', 'A', 'X'):
            raise DiagramError('E_KIND', f"unknown event kind {kind!r}")
        if pos < 1:
            raise DiagramError('E_POS', f"position {pos} out of range")
        if kind == 'X' and over not in ('+', '-'):
            raise DiagramError('E_OVER', f"crossing needs over flag, got {over!r}")
        return tuple.__new__(cls, (kind, pos, over, cid))

    @property
    def delta(self):
        return _DELTA[self.kind]

    def text(self):
        if self.kind == 'X':
            return f"X{self.over} {self.pos}"
        return f"{self.kind} {self.pos}"


def _crossing(pos, over, cid):
    """A crossing event from fields that validated events already hold,
    made as a tuple without checking them again.  R3.apply calls it with
    its parent's positions, flags and ids permuted, and
    discriminant.tangency_hosts with its base host's block positions and
    ids and the flags '+' and '-'."""
    return tuple.__new__(MorseEvent, ('X', pos, over, cid))


_EVENT_RE = re.compile(r'^(U|A|X\+|X-)\s+(\d+)$')


def parse_events(text):
    """The events of a Morse word in text form, read but not checked as
    a diagram; crossing ids are 1, 2, ... in word order, and blank text
    gives no events.

    Events are separated by ';'.  An optional leading '|' marks the ray
    (the word origin); a '|' anywhere else is rejected since the word is
    stored with the ray at its origin.
    """
    chunks = [c.strip() for c in text.replace('\n', ';').split(';')]
    chunks = [c for c in chunks if c]
    if chunks and chunks[0] == '|':
        chunks = chunks[1:]
    events = []
    next_cid = 1
    for c in chunks:
        if c == '|':
            raise DiagramError('E_RAY', "ray marker only allowed at the word origin")
        m = _EVENT_RE.match(c)
        if not m:
            raise DiagramError('E_PARSE', f"cannot parse event {c!r}")
        kind, pos = m.group(1), int(m.group(2))
        if kind.startswith('X'):
            events.append(MorseEvent('X', pos, kind[1], next_cid))
            next_cid += 1
        else:
            events.append(MorseEvent(kind, pos))
    return events


def parse_morse(text, n=1, w0=None):
    """The validated class-n AnnularDiagram of a Morse word in text form
    (parse_events), a long knot word by default."""
    return AnnularDiagram(n, parse_events(text), w0=w0)


def format_morse(diagram):
    return ' ; '.join(ev.text() for ev in diagram.events)


def fits(ev, width):
    """Does the event fit on a slice of this many strands?"""
    return ev.pos <= width + 1 if ev.kind == 'U' else ev.pos < width


def strand_step(ev, forward, p):
    """Follow a strand through one event.

    The strand arrives at position p of the slice before ev (forward) or
    after it (backward).  Returns (leaving, p2, line): whether it leaves
    forward, at position p2, and the crossing line it runs along, 0 if
    it meets no crossing.  At X(i) line 1 is the strand ascending from i
    to i+1 and line 2 the other; a cup U(i) joins positions i, i+1 of
    the slice after it, a cap A(i) those of the slice before it.
    """
    i = ev.pos
    if ev.kind == 'X':
        if p == i:
            return forward, i + 1, 1 if forward else 2
        if p == i + 1:
            return forward, i, 2 if forward else 1
        return forward, p, 0
    if (ev.kind == 'U') == forward:     # passing the side without the turn
        return forward, (p if p < i else p + 2), 0
    if p == i:
        return not forward, i + 1, 0
    if p == i + 1:
        return not forward, i, 0
    return forward, (p if p < i else p - 2), 0


def _token_kind(ev, line):
    """'h' when the strand on this line of crossing ev passes over."""
    return 'h' if (line == 1) == (ev.over == '+') else 'f'


def window_strands(events, widths):
    """The strand pieces of a window of events, found in one sweep.

    widths holds the strand count of every slice of the window, both
    boundaries included.  Sweeping left to right, each strand position
    holds an open segment: X appends an ('h'|'f', cid) token to its two
    segments and swaps them, U opens two whose left ends are joined, A
    joins the right ends of its two.  Pieces are chained from the ports
    left 1..w, then right 1..w, each from the first of its two ports; a
    port is (0, p) on the left boundary and (1, p) on the right one.  A
    segment entered at its right end is read backward.  Returns (pieces,
    signs): pieces maps each starting port to its exit port and the
    tokens met; signs maps each crossing to its over sign times the
    reading directions of its two segments.  Returns None when a segment
    is on no piece: the window holds a closed component of its own.

    A Rearrange checks its window with it; full validation runs it on
    the whole word, whose two boundaries are the sides of the ray slice,
    and glues the pieces across the ray (AnnularDiagram._traverse).
    """
    # segment s has ends 2s, 2s + 1 (left, right); link[end]: its mate or port
    w = widths[0]
    at = list(range(w))
    toks = [[] for _ in at]
    link = [v for p in range(1, w + 1) for v in ((0, p), None)]
    crossings = []
    for kind, pos, over, cid in events:
        i = pos - 1
        if kind == 'X':
            a, b = at[i], at[i + 1]
            # line 1, the strand ascending from i to i + 1, is segment a
            if over == '+':
                toks[a].append(('h', cid))
                toks[b].append(('f', cid))
                crossings.append((cid, 1, a, b))
            else:
                toks[a].append(('f', cid))
                toks[b].append(('h', cid))
                crossings.append((cid, -1, a, b))
            at[i], at[i + 1] = b, a
        elif kind == 'U':
            s = len(toks)
            toks += [], []
            link += [2 * s + 2, None, 2 * s, None]
            at[i:i] = s, s + 1
        else:
            a, b = at[i], at[i + 1]
            link[2 * a + 1], link[2 * b + 1] = 2 * b + 1, 2 * a + 1
            del at[i:i + 2]
    # a piece starts at the end its port is linked to: the left end of
    # segment p - 1 for left port p, the right end of at[p - 1] for right
    # port p
    ends = list(range(0, 2 * w, 2))
    for p, s in enumerate(at, 1):
        link[2 * s + 1] = (1, p)
        ends.append(2 * s + 1)
    # way[s]: +1 or -1 once segment s is read forward or backward
    pieces, way, read = {}, [0] * len(toks), 0
    for end in ends:
        s = end >> 1
        if way[s]:                  # the piece was read from its other port
            continue
        # every segment is read once, so the piece's first segment's list
        # can collect the piece's tokens
        start, tokens = link[end], toks[s]
        if end & 1:
            way[s] = -1
            tokens.reverse()
        else:
            way[s] = 1
        read += 1
        end = link[end ^ 1]
        while type(end) is int:
            s = end >> 1
            if end & 1:
                way[s] = -1
                tokens += reversed(toks[s])
            else:
                way[s] = 1
                tokens += toks[s]
            read += 1
            end = link[end ^ 1]
        pieces[start] = (end, tuple(tokens))
    if read != len(toks):
        return None
    return pieces, {cid: o * way[a] * way[b] for cid, o, a, b in crossings}


def _walk_to_crossing(events, t, p, forward, ray_here):
    """Follow the strand at position p of slice t in one word direction
    up to the first crossing it meets.

    ray_here says that the starting arc lies on the ray and that its ray
    passage counts on this side of the cut.  Returns the crossing's
    ('h'|'f', cid) token, the number of ray passages on the way and the
    position of the first of them (None if there is none).
    """
    m = len(events)
    rays, first = (1, p) if ray_here else (0, None)
    while True:
        ev_i = t % m if forward else (t - 1) % m
        ev = events[ev_i]
        leaving, p, line = strand_step(ev, forward, p)
        if line:
            return (_token_kind(ev, line), ev.cid), rays, first
        t, forward = (ev_i + 1 if leaving else ev_i), leaving
        if t % m == 0:
            rays += 1
            if first is None:
                first = p


def token_gap(diagram, slot, p):
    """Where the strand at position p of slice slot runs through the
    Gauss tokens of the diagram.

    slot ranges over 0..len(events): a cut at slot 0 lies just after the
    ray slice, one at slot len(events) just before it.  The strand is
    walked in both word directions to its nearest crossings; their token
    positions and the ray passages in between give the gap.  Returns
    (j, d): tokens met at the cut go in at index j, and d is +1 when the
    knot runs word-forward there, -1 when it runs backward.  A cut
    between the last and the first token goes at the end when the list
    starts with the ray passage at position 1 right after the cut, else
    at the start (the list is stored reversed when the walk from that
    passage ran against the orientation).  Returns None when the tokens
    do not decide it: no crossing at all, or both directions fit.
    """
    g = diagram.gauss()
    if not g.signs:
        return None
    events, size = diagram.events, len(g.tokens)
    ahead, ra, fa = _walk_to_crossing(events, slot, p, True, slot == len(events))
    behind, rb, fb = _walk_to_crossing(events, slot, p, False, slot == 0)
    ia, ib = g.position(*ahead), g.position(*behind)
    along = (ia - ib - ra - rb - 1) % size == 0
    against = (ib - ia - ra - rb - 1) % size == 0
    if along == against:
        return None
    j, first = ((ib + rb + 1) % size, fa) if along else ((ia + ra + 1) % size, fb)
    if j == 0 and first == 1:
        j = size
    return j, 1 if along else -1


# ---------------------------------------------------------------------------
# The annular diagram proper

class AnnularDiagram:
    """A class-n knot diagram in the solid torus, as a cyclic Morse word.

    The ray sits at the word origin.  w0 is the strand count over the ray
    slice; for honest states of the moduli space it equals n with all
    strands counter-clockwise, but transient words produced while sliding
    a tangle across the origin may differ.
    """

    def __init__(self, n, events, w0=None):
        self.n = n
        self.events = list(events)
        self.w0 = n if w0 is None else w0
        self.validate()

    def spliced(self, slot, count, new, gauss=None, widths=None):
        """The state left when the count events at slot are replaced by
        new, built without validation: only for edits whose Gauss data
        follows from this validated state's by a local edit (the local
        moves, the flag variants of a tangency host, and a ray shift of a
        crossing, which rotates the whole word).  It keeps n and w0,
        and shares this state's Gauss diagram unless gauss is given, and
        its widths unless widths, those of the new window, is given."""
        d = AnnularDiagram.__new__(AnnularDiagram)
        d.n, d.w0, d._gauss = self.n, self.w0, self._gauss if gauss is None else gauss
        d.events = events = list(self.events)
        events[slot:slot + count] = new
        if widths is None:
            d._widths = self._widths
        else:
            d._widths = w = list(self._widths)
            w[slot:slot + count] = widths
        return d

    # -- structure ---------------------------------------------------------

    def widths(self):
        """Strand count of each slice; slice t precedes event t."""
        return self._widths

    def gauss(self):
        return self._gauss

    def validate(self):
        w = [self.w0]
        for ev in self.events:
            w.append(w[-1] + _DELTA[ev.kind])
        if w.pop() != self.w0:
            raise DiagramError('E_WIDTH', "cyclic word does not preserve width")
        for t, ev in enumerate(self.events):
            if not fits(ev, w[t]):
                name = {'X': 'crossing', 'A': 'cap', 'U': 'cup'}[ev.kind]
                raise DiagramError('E_POS', f"{name} at {ev.pos} exceeds width {w[t]}")
        cids = [ev.cid for ev in self.events if ev.kind == 'X']
        if len(set(cids)) != len(cids):
            raise DiagramError('E_ID', "duplicate crossing ids")
        self._widths = w
        self._gauss = self._traverse()

    # -- traversal ---------------------------------------------------------

    def _traverse(self):
        """The Gauss diagram of the word, glued from its pieces at the ray.

        window_strands cuts the knot at the ray: the window is the whole
        word, and its left and right boundaries are the two sides of the
        ray slice.  The pieces are chained from left port (0, 1): a piece
        is entered at either end, walked backward when entered at its
        end, and its exit port (s, p) leads across the ray to port
        (1 - s, p).  Each entry is a ray passage, +1 from the left and -1
        from the right.  A crossing's sign is its sign relative to the
        piece walks, negated when exactly one of its passes lies on a
        piece walked backward.  The token list starts with the passage at
        left port 1 and runs along the knot orientation, reversed if the
        chain ran against it.
        """
        events = self.events
        if not events:
            if self.w0 != 1:
                raise DiagramError('E_COMPONENTS', "bare word must be a single ring")
            return GaussDiagram([('r', 1)], {})
        cut = window_strands(events, self._widths + [self.w0])
        if cut is None:
            raise DiagramError('E_COMPONENTS', "diagram is not a single knot")
        pieces, relative = cut
        entries = {}                # port -> (the piece's first port, backward)
        for first, (last, _) in pieces.items():
            entries[first], entries[last] = (first, False), (first, True)
        # odd: the crossings with exactly one pass on a piece walked backward
        tokens, odd, port, glued = [], set(), (0, 1), 0
        while True:
            first, backward = entries[port]
            last, met = pieces[first]
            tokens.append(('r', -1 if port[0] else 1))
            if backward:
                tokens.extend(reversed(met))
                for _, cid in met:
                    odd ^= {cid}
            else:
                tokens.extend(met)
            side, p = first if backward else last
            port, glued = (1 - side, p), glued + 1
            if port == (0, 1):
                break
        if glued != len(pieces):
            raise DiagramError('E_COMPONENTS', "diagram is not a single knot")
        if sum(s for k, s in tokens if k == 'r') < 0:
            # the chain ran against the knot orientation; flip it (the
            # signs stay: both passes of each crossing turn around)
            tokens = [(k, -s if k == 'r' else s) for k, s in reversed(tokens)]
        signs = {ev.cid: -relative[ev.cid] if ev.cid in odd else relative[ev.cid]
                 for ev in events if ev.kind == 'X'}
        return GaussDiagram(tokens, signs)

    # -- semantic checks ---------------------------------------------------

    def check_no_negative_loops(self):
        """Search the smoothing graph for a loop of negative winding.

        Returns (True, None) or (False, witness) where witness is a list of
        crossing ids along a negative cycle.
        """
        toks = self.gauss().tokens
        cross_idx = [i for i, tok in enumerate(toks) if tok[0] in ('h', 'f')]
        if not cross_idx:
            return (self.gauss().homology_class >= 0, None)
        edges = []
        for j, i in enumerate(cross_idx):
            nxt = cross_idx[(j + 1) % len(cross_idx)]
            wgt = 0
            k = (i + 1) % len(toks)
            while k != nxt:
                if toks[k][0] == 'r':
                    wgt += toks[k][1]
                k = (k + 1) % len(toks)
            edges.append((toks[i][1], toks[nxt][1], wgt))
        nodes = sorted({toks[i][1] for i in cross_idx})
        dist = {v: 0 for v in nodes}
        pred = {}
        bad = None
        for it in range(len(nodes) + 1):
            changed = False
            for u, v, wg in edges:
                if dist[u] + wg < dist[v]:
                    dist[v] = dist[u] + wg
                    pred[v] = u
                    changed = True
                    if it == len(nodes):
                        bad = v
            if not changed:
                return (True, None)
        # recover a cycle through bad
        v = bad
        for _ in nodes:
            v = pred[v]
        cyc, v0 = [v], pred[v]
        while v0 != v:
            cyc.append(v0)
            v0 = pred[v0]
        return (False, list(reversed(cyc)))

    # -- misc --------------------------------------------------------------

    def max_cid(self):
        return max(self._gauss.signs, default=0)

    def __repr__(self):
        return f"AnnularDiagram(n={self.n}, {format_morse(self)!r})"
