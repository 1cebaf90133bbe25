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
import json
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
    def _derive(cls, parent, events, gauss):
        """The state a local move leaves behind, built without validation.

        Only for moves that keep every slice width and whose Gauss data
        follows from the parent's by a local edit (Exchange, R3): the
        parent was validated, so the derived state is as well.  It shares
        the parent's n, w0 and widths.
        """
        d = cls.__new__(cls)
        d.n, d.events, d.w0 = parent.n, events, parent.w0
        d._widths = parent.widths()
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
            wt = w[t]
            if ev.kind == 'X' and ev.pos + 1 > wt:
                raise DiagramError('E_POS', f"crossing at {ev.pos} exceeds width {wt}")
            if ev.kind == 'A' and ev.pos + 1 > wt:
                raise DiagramError('E_POS', f"cap at {ev.pos} exceeds width {wt}")
            if ev.kind == 'U' and ev.pos > wt + 1:
                raise DiagramError('E_POS', f"cup at {ev.pos} exceeds width {wt}")
        cids = [ev.cid for ev in self.events if ev.kind == 'X']
        if len(set(cids)) != len(cids):
            raise DiagramError('E_ID', "duplicate crossing ids")
        self._traverse()

    # -- traversal ---------------------------------------------------------

    def _event_pairing(self, ev):
        """Port pairing of a single event: ports are (side, pos) with side
        'in' (earlier slice) or 'out' (later slice)."""
        pairs = {}

        def link(a, b):
            pairs[a] = b
            pairs[b] = a

        i = ev.pos
        if ev.kind == 'X':
            link(('in', i), ('out', i + 1))
            link(('in', i + 1), ('out', i))
        elif ev.kind == 'U':
            link(('out', i), ('out', i + 1))
        else:
            link(('in', i), ('in', i + 1))
        return pairs

    def _through(self, ev, side, p):
        """Pass-through port mapping for positions not touched by ev."""
        i = ev.pos
        if ev.kind == 'X':
            return p
        if ev.kind == 'U':
            if side == 'in':
                return p if p < i else p + 2
            return p if p < i else p - 2
        # cap
        if side == 'in':
            return p if p < i else p - 2
        return p if p < i else p + 2

    def _traverse(self):
        if self._gauss is not None:
            return self._gauss
        m = len(self.events)
        w = self.widths() if m else [self.w0]
        if m == 0:
            if self.w0 != 1:
                raise DiagramError('E_COMPONENTS', "bare word must be a single ring")
            tokens = [('r', 1)]
            self._gauss = GaussDiagram(tokens, {})
            return self._gauss

        pairings = [self._event_pairing(ev) for ev in self.events]
        arcs = {(t, p) for t in range(m) for p in range(1, w[t] + 1)}
        visited = set()
        tokens = []
        passes = {}  # cid -> {line: direction}

        def cross_token(ev, side, p, entering_forward):
            i = ev.pos
            line = 1 if (side, p) in (('in', i), ('out', i + 1)) else 2
            d = 1 if entering_forward else -1
            passes.setdefault(ev.cid, {})[line] = d
            head = (line == 1) == (ev.over == '+')
            tokens.append(('h' if head else 'f', ev.cid))

        # walk
        start = (0, 1)
        arc, forward = start, True
        while True:
            if (arc, forward) in visited:
                raise DiagramError('E_TRAVERSE', "walk revisited an arc")
            visited.add((arc, forward))
            t, p = arc
            if t == 0:
                tokens.append(('r', 1 if forward else -1))
            if forward:
                ev_i = t            # arrives at event t 'in' port p
                side, q = 'in', p
            else:
                ev_i = (t - 1) % m  # arrives at event t-1 'out' port p
                side, q = 'out', p
            ev = self.events[ev_i]
            pairing = pairings[ev_i]
            if (side, q) in pairing:
                if ev.kind == 'X':
                    cross_token(ev, side, q, side == 'in')
                side2, r = pairing[(side, q)]
            else:
                side2, r = ('out' if side == 'in' else 'in'), self._through(ev, side, q)
            if side2 == 'out':
                arc, forward = ((ev_i + 1) % m, r), True
            else:
                arc, forward = (ev_i, r), False
            if (arc, forward) == (start, True):
                break

        half = {a for a, _ in visited}
        if half != arcs:
            raise DiagramError('E_COMPONENTS', "diagram is not a single knot")
        if len(visited) != len(arcs):
            raise DiagramError('E_TRAVERSE', "inconsistent traversal")

        if sum(s for k, s in tokens if k == 'r') < 0:
            # the walk ran against the knot orientation; flip it
            tokens = [(k, -s if k == 'r' else s) for k, s in reversed(tokens)]
            for d in passes.values():
                for line in d:
                    d[line] = -d[line]

        signs = {}
        for ev in self.events:
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

    def copy(self):
        return AnnularDiagram(self.n, list(self.events), w0=self.w0)

    def max_cid(self):
        return max([ev.cid for ev in self.events if ev.kind == 'X'], default=0)

    def to_json(self):
        evs = []
        for ev in self.events:
            if ev.kind == 'X':
                evs.append({'k': 'X' + ev.over, 'i': ev.pos, 'id': ev.cid})
            else:
                evs.append({'k': ev.kind, 'i': ev.pos})
        return {'n': self.n, 'events': evs, 'ray': 0}

    @classmethod
    def from_json(cls, data):
        events = []
        next_cid = 1 + max([e.get('id', 0) for e in data['events']], default=0)
        for e in data['events']:
            k = e['k']
            if k.startswith('X'):
                cid = e.get('id')
                if cid is None:
                    cid, next_cid = next_cid, next_cid + 1
                events.append(MorseEvent('X', e['i'], k[1], cid))
            else:
                events.append(MorseEvent(k, e['i']))
        return cls(data['n'], events)

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True, separators=(',', ':'))

    def __repr__(self):
        return f"AnnularDiagram(n={self.n}, {format_morse(self)!r})"
