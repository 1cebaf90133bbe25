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

from dataclasses import dataclass
import re

from .gauss import DiagramError, GaussDiagram


@dataclass(frozen=True)
class MorseEvent:
    """One elementary event of a Morse word."""

    kind: str          # 'U', 'A' or 'X'
    pos: int           # 1-based strand position
    over: str = ''     # for 'X': '+' ascending strand over, '-' under
    cid: int = -1      # persistent crossing id, -1 for cups/caps

    def __post_init__(self):
        if self.kind not in ('U', 'A', 'X'):
            raise DiagramError('E_KIND', f"unknown event kind {self.kind!r}")
        if self.pos < 1:
            raise DiagramError('E_POS', f"position {self.pos} out of range")
        if self.kind == 'X' and self.over not in ('+', '-'):
            raise DiagramError('E_OVER', f"crossing needs over flag, got {self.over!r}")

    @property
    def delta(self):
        return {'U': 2, 'A': -2, 'X': 0}[self.kind]

    def text(self):
        if self.kind == 'X':
            return f"X{self.over} {self.pos}"
        return f"{self.kind} {self.pos}"


_EVENT_RE = re.compile(r'^(U|A|X\+|X-)\s+(\d+)$')


def parse_morse(text, n=None, w0=None):
    """Parse a Morse word in text form into an AnnularDiagram.

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
    if n is None:
        n = 1
    return AnnularDiagram(n, events, w0=w0)


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
    """The strand pieces of a window of events, walked from its boundary.

    widths holds the strand count of every slice of the window, both
    boundaries included.  Every piece is walked once, from the first of
    its two boundary ports in the order left 1..w, right 1..w; a port is
    (0, p) on the left boundary and (1, p) on the right one.  Returns
    (pieces, signs): pieces maps each starting port to the port where the
    piece leaves and the ('h'|'f', cid) tokens it meets; signs maps each
    crossing to its sign relative to the walk directions.  Returns None
    when some interior arc is on no piece, i.e. the window holds a
    closed component of its own.
    """
    k = len(events)
    pieces, passes, ends = {}, {}, set()
    reached = 0
    ports = [(0, p) for p in range(1, widths[0] + 1)]
    ports += [(1, p) for p in range(1, widths[k] + 1)]
    for start in ports:
        if start in ends:
            continue
        p = start[1]
        t, forward = (k, False) if start[0] else (0, True)
        tokens = []
        while t != (k if forward else 0):
            ev_i = t if forward else t - 1
            ev = events[ev_i]
            leaving, p, line = strand_step(ev, forward, p)
            if line:
                passes.setdefault(ev.cid, (ev.over, {}))[1][line] = 1 if forward else -1
                tokens.append((_token_kind(ev, line), ev.cid))
            t, forward = (ev_i + 1 if leaving else ev_i), leaving
            reached += 0 < t < k
        end = (1 if forward else 0, p)
        ends.add(end)
        pieces[start] = (end, tuple(tokens))
    if reached != sum(widths[1:k]):
        return None
    signs = {cid: d[1] * d[2] * (1 if over == '+' else -1)
             for cid, (over, d) in passes.items()}
    return pieces, signs


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
        self._widths = None
        self._gauss = None
        self.validate()

    @classmethod
    def _derive(cls, parent, events, gauss, widths=None):
        """The state a local move leaves behind, built without validation.

        Only for moves whose Gauss data follows from the parent's by a
        local edit (Exchange, R3, R2Create, R2Delete, a Rearrange that
        passed its window check), and for the flag variants of a
        tangency host: the parent was validated, so the derived state is
        as well.  It shares the parent's n and w0, and its widths unless
        the move passes the new ones.
        """
        d = cls.__new__(cls)
        d.n, d.events, d.w0 = parent.n, events, parent.w0
        d._widths = parent.widths() if widths is None else widths
        d._gauss = gauss
        return d

    # -- structure ---------------------------------------------------------

    def widths(self):
        """Strand count of each slice; slice t precedes event t."""
        if self._widths is not None:
            return self._widths
        w = [self.w0]
        for ev in self.events:
            w.append(w[-1] + ev.delta)
        if w[-1] != self.w0:
            raise DiagramError('E_WIDTH', "cyclic word does not preserve width")
        self._widths = w[:-1]
        return self._widths

    def validate(self):
        w = self.widths()
        for t, ev in enumerate(self.events):
            if not fits(ev, w[t]):
                name = {'X': 'crossing', 'A': 'cap', 'U': 'cup'}[ev.kind]
                raise DiagramError('E_POS', f"{name} at {ev.pos} exceeds width {w[t]}")
        cids = [ev.cid for ev in self.events if ev.kind == 'X']
        if len(set(cids)) != len(cids):
            raise DiagramError('E_ID', "duplicate crossing ids")
        self._traverse()

    # -- traversal ---------------------------------------------------------

    def _traverse(self):
        if self._gauss is not None:
            return self._gauss
        events = self.events
        m = len(events)
        if m == 0:
            if self.w0 != 1:
                raise DiagramError('E_COMPONENTS', "bare word must be a single ring")
            self._gauss = GaussDiagram([('r', 1)], {})
            return self._gauss
        w = self.widths()

        # walk the arcs (t, p): position p of slice t
        visited = set()
        tokens = []
        passes = {}  # cid -> {line: direction}
        t, p, forward = 0, 1, True
        while True:
            if (t, p, forward) in visited:
                raise DiagramError('E_TRAVERSE', "walk revisited an arc")
            visited.add((t, p, forward))
            if t == 0:
                tokens.append(('r', 1 if forward else -1))
            ev_i = t if forward else (t - 1) % m
            ev = events[ev_i]
            leaving, p, line = strand_step(ev, forward, p)
            if line:
                passes.setdefault(ev.cid, {})[line] = 1 if forward else -1
                tokens.append((_token_kind(ev, line), ev.cid))
            t, forward = ((ev_i + 1) % m if leaving else ev_i), leaving
            if forward and t == 0 and p == 1:
                break

        if {(t, p) for t, p, _ in visited} != {
                (t, p) for t in range(m) for p in range(1, w[t] + 1)}:
            raise DiagramError('E_COMPONENTS', "diagram is not a single knot")
        if len(visited) != sum(w):
            raise DiagramError('E_TRAVERSE', "inconsistent traversal")

        if sum(s for k, s in tokens if k == 'r') < 0:
            # the walk ran against the knot orientation; flip it
            tokens = [(k, -s if k == 'r' else s) for k, s in reversed(tokens)]
            for d in passes.values():
                for line in d:
                    d[line] = -d[line]

        signs = {}
        for ev in events:
            if ev.kind != 'X':
                continue
            d = passes.get(ev.cid, {})
            if set(d) != {1, 2}:
                raise DiagramError('E_TRAVERSE', f"crossing {ev.cid} not passed twice")
            signs[ev.cid] = d[1] * d[2] * (1 if ev.over == '+' else -1)
        self._gauss = GaussDiagram(tokens, signs)
        return self._gauss

    def gauss(self):
        return self._traverse()

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
        return max([ev.cid for ev in self.events if ev.kind == 'X'], default=0)

    def __repr__(self):
        return f"AnnularDiagram(n={self.n}, {format_morse(self)!r})"
