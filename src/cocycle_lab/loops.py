"""Transport loops: pushing a braid tangle once around the annulus.

The class-n diagrams here all have the shape [tangle][n-cable of a long
knot word], possibly followed by a full twist.  A transport loop slides
the tangle (or the twist) along the satellite once around the core and
back to its slot.  The slide is compiled move by move: the tangle hops
over strand-disjoint events as plain rearrangements, turns around
cup/cap families by a reflection, crosses each n*n crossing block by a
run of exchanges and triple point moves, and crosses the ray by shifts.

Each step is decided by the cable unit the tangle faces and by the
strand position of the tangle's bundle, so the slide follows the
companion circuit of the long word without simulating it separately.
"""

from __future__ import annotations

from dataclasses import dataclass

from .annular import AnnularDiagram, MorseEvent, parse_morse
from .cabling import (braid_events, closed_cable, full_twist_word, long_events,
                      n_cable, renumber)
from .cocycle import Movie
from .moves import Exchange, R3, RayShift, Rearrange


class PlannerError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Cabled word as a unit list

@dataclass
class _Unit:
    kind: str       # 'mover', 'tangle', 'cup', 'cap', 'block'
    length: int
    q: int          # base strand position of the unit


def _cable_units(levs, n):
    units = []
    for ev in levs:
        q = n * (ev.pos - 1) + 1
        kind = {'U': 'cup', 'A': 'cap', 'X': 'block'}[ev.kind]
        length = n if ev.kind in 'UA' else n * n
        units.append(_Unit(kind, length, q))
    return units


class _Transport:
    """Emits moves while keeping the unit decomposition in sync."""

    def __init__(self, diagram, units, d):
        self.movie = Movie(diagram)
        self.n = diagram.n
        self.units = units
        self.mi = next(i for i, u in enumerate(units) if u.kind == 'mover')
        self.s = sum(u.length for u in units[:self.mi])     # the mover's slot
        self.b = 1              # base strand position of the mover bundle
        self.d = d              # +1 rightward along the word, -1 leftward

    def mover(self):
        return self.units[self.mi]

    def mover_events(self):
        return list(self.movie.final().events[self.s:self.s + self.mover().length])

    def _facing_slot(self):
        """The slot of the unit the mover faces."""
        if self.d == 1:
            return self.s + self.mover().length
        return self.s - self.units[self.mi - 1].length

    def _swap(self, other):
        """Record that the mover and the unit it faced changed places."""
        self.s += self.d * self.units[other].length
        self.units[self.mi], self.units[other] = self.units[other], self.units[self.mi]
        self.mi = other

    def _rewrite_pair(self, new_mov, swap):
        """Rearrange writing the mover as new_mov past the unit it faces
        (swap, a hop) or on the same side of it (a turn)."""
        other = self.mi + self.d
        vs = self._facing_slot()
        vevs = list(self.movie.final().events[vs:vs + self.units[other].length])
        window = tuple(vevs + new_mov if (self.d == 1) == swap else new_mov + vevs)
        self.movie.append(Rearrange(min(self.s, vs), len(window), window))
        if swap:
            self._swap(other)

    # -- elementary compiled steps ------------------------------------

    def hop(self):
        v = self.units[self.mi + self.d]
        span = 2 * self.n
        if v.kind == 'block':
            shift, cut = 0, 0
        elif (v.kind == 'cup') == (self.d == 1):
            # past a cup rightward or a cap leftward the mover moves up
            shift, cut = span, v.q
        else:
            shift, cut = -span, v.q + span

        def adj(p):
            return p + shift if p >= cut else p

        mov = self.mover_events()
        if shift:
            mov = [MorseEvent(e.kind, adj(e.pos), e.over, e.cid) for e in mov]
        self._rewrite_pair(mov, swap=True)
        self.b = adj(self.b)

    def turn(self):
        q, n = self.units[self.mi + self.d].q, self.n
        # the window holds the turnback too: the mover alone reconnects
        # its strands differently at the window boundary
        self._rewrite_pair([MorseEvent('X', 2 * q + 2 * n - 2 - e.pos, e.over, e.cid)
                            for e in reversed(self.mover_events())], swap=False)
        self.b = q + n if self.b == q else q
        self.d = -self.d

    def block_pass(self):
        other = self.mi + self.d
        v = self.units[other]
        n, q = self.n, v.q
        want_lower = self.b == q
        # choose the factorisation of the block the slide threads through
        self._refactor_block(self._facing_slot(), v,
                             'runs' if (self.d == 1) == want_lower else 'rows')
        # thread the mover's events from its leading end
        for idx in range(self.mover().length)[::-self.d]:
            self._thread(self.s + idx, v.length)
        self._swap(other)
        self.b = q + n if want_lower else q

    def _thread(self, slot, count):
        """Carry the event at slot across the next count events in the
        direction d, by exchanges and triple point moves."""
        d = self.d
        # where the Exchange and the R3 start, relative to slot
        ex, r3 = (0, 0) if d == 1 else (-1, -2)
        while count > 0:
            evs = self.movie.final().events
            if abs(evs[slot].pos - evs[slot + d].pos) >= 2:
                self.movie.append(Exchange(slot + ex))
                slot += d
                count -= 1
            else:
                self.movie.append(R3(slot + r3))
                slot += 2 * d
                count -= 2
        if count:
            raise PlannerError("threading overshot the block")

    def _refactor_block(self, s, v, style):
        """Reorder the events of block v at slot s row by row ('rows') or
        run by run ('runs').  The block carries bundle A, n strands from q
        up, across bundle B, the next n; the crossing of A's r-th strand
        with B's k-th sits at q + r + k - 2 in any order of the block, so
        only the order changes: (row, column) = (n - r, k - 1) for 'rows',
        (column, row) for 'runs'."""
        n, q = self.n, v.q
        evs = self.movie.final().events[s:s + v.length]
        at = list(range(2 * n))     # strand labels: A from 0, B from n
        out = [None] * len(evs)
        for e in evs:
            i = e.pos - q
            a, b = at[i], at[i + 1]
            at[i], at[i + 1] = b, a
            row, col = n - 1 - a, b - n
            out[row * n + col if style == 'rows' else col * n + row] = e
        if out != evs:
            self.movie.append(Rearrange(s, v.length, tuple(out)))

    def ray_pass(self):
        """Carry the mover across the ray to the other end of the word."""
        end = len(self.units) - 1 if self.d == 1 else 0
        if self.mi != end:
            raise PlannerError("ray pass away from the word "
                               + ("end" if self.d == 1 else "start"))
        for _ in range(self.mover().length):
            self.movie.append(RayShift(-self.d))
        self.mi = len(self.units) - 1 - end
        self.units.insert(self.mi, self.units.pop(end))
        self.s = 0 if self.d == 1 else len(self.movie.final().events) - self.mover().length

    def normalize_blocks(self):
        s = 0
        for u in self.units:
            if u.kind == 'block':
                self._refactor_block(s, u, 'rows')
            s += u.length

    # -- driver -------------------------------------------------------

    def follow(self):
        """Slide the mover along the cable until it faces the word end or
        the closing tangle.  The mover crosses a block, or turns at a cap
        (rightward) or cup (leftward), when its bundle is one of the two
        that unit joins; past anything else it hops."""
        while 0 <= self.mi + self.d < len(self.units):
            v = self.units[self.mi + self.d]
            if v.kind == 'tangle':
                return
            joined = self.b in (v.q, v.q + self.n)
            if joined and v.kind == 'block':
                self.block_pass()
            elif joined and v.kind == ('cap' if self.d == 1 else 'cup'):
                self.turn()
            else:
                self.hop()


# ---------------------------------------------------------------------------
# The loops

def push_loop(tangle_word, long_text, n):
    """Slide the closing braid tangle once around the satellite.

    tangle_word is a braid word (signed generator indices) on the n
    cable strands.  The loop starts and ends at the diagram
    [tangle][n-cable], returning to it on the nose.
    """
    levs = long_events(long_text)
    tangle = braid_events(tangle_word)
    start = closed_cable(tangle, levs, n)
    units = [_Unit('mover', len(tangle), 1)] + _cable_units(levs, n)
    tr = _Transport(start, units, 1)
    tr.follow()
    tr.ray_pass()
    tr.normalize_blocks()
    shape = [(e.kind, e.pos, e.over) for e in start.events]
    if [(e.kind, e.pos, e.over) for e in tr.movie.final().events] != shape:
        raise PlannerError("push loop does not close")
    return tr.movie


def _twist_transport(tangle_word, long_text, n, d):
    """A transport of the full twist that follows the n-cable of
    [tangle][n-cable][full twist] in direction d."""
    levs = long_events(long_text)
    tangle = braid_events(tangle_word)
    twist = braid_events([g for g in full_twist_word(n)])
    events = renumber(list(tangle) + n_cable(levs, n) + twist)
    start = AnnularDiagram(n, events, w0=n)
    units = ([_Unit('tangle', len(tangle), 1)] + _cable_units(levs, n)
             + [_Unit('mover', len(twist), 1)])
    return _Transport(start, units, d)


def _check_resplit(tangle_word, n):
    """Refuse a twist loop whose full twist cannot pass the closing
    tangle by resplitting their word: tangle then twist must be the word
    twist then tangle, as for any power of s1...s(n-1).  The twist then
    passes the tangle with no move, by a unit swap that only shifts the
    split point.  Every move of the transport keeps each crossing's flag,
    and the twist meets the tangle on the positions it starts on, so the
    start decides it, before any move is made."""
    twist = full_twist_word(n)
    if list(tangle_word) + twist != twist + list(tangle_word):
        raise PlannerError("tangle does not absorb the twist by resplitting")


def rotation_loop(tangle_word, long_text, n):
    """Rotation of the solid torus around its core, as a loop of
    diagrams: the full twist representing the framing curl slides once
    around the satellite against the orientation of the core."""
    tr = _twist_transport(tangle_word, long_text, n, -1)
    _check_resplit(tangle_word, n)
    tr.follow()     # stops facing the tangle, unit 0
    tr._swap(tr.mi + tr.d)
    tr.ray_pass()
    return tr.movie


def push_full_twist_loop(tangle_word, long_text, n):
    """The inverse rotation: the full twist is pushed once around along
    the core orientation."""
    tr = _twist_transport(tangle_word, long_text, n, 1)
    _check_resplit(tangle_word, n)
    tr.ray_pass()   # leaves the tangle as unit 1, next to the twist
    tr._swap(tr.mi + tr.d)
    # facing the cable now, still moving rightward
    tr.follow()
    return tr.movie


def pairing(left_text, right_text, n):
    """Pairing of two long knots: the permutation-braid-twisted n-cable
    of the left knot is pushed once through the n-cable of the right.

    The transport planner moves braid-shaped bundles only, so the left
    cable must carry no cups or caps; the left word is then itself a
    braid and the mover is sigma_1...sigma_{n-1} followed by its cable.
    A one-crossing left word would need width 2, hence the only long
    knot available here is the unknot, and the mover degenerates to the
    permutation braid alone.
    """
    if n < 2:
        raise PlannerError("pairing needs n >= 2")
    # no diagram is built from the left word, so it is validated here
    if parse_morse(left_text).events:
        raise PlannerError("left cable is not a braid, cannot be transported")
    return push_loop(list(range(1, n)), right_text, n)


def scan_path(tangle_word, long_text, n):
    """The open half of the rotation loop: the full twist sweeps through
    the cable from its far end back to the tangle, without crossing the
    ray.  Not closed; its value already equals the rotation value."""
    tr = _twist_transport(tangle_word, long_text, n, -1)
    tr.follow()
    return tr.movie
