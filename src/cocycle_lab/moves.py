"""Elementary moves on annular Morse words, and checks of movies.

A movie (cocycle.Movie) is a finite sequence of moves applied to a
start diagram.  The move set: the three Reidemeister moves (kink
create/delete, tangency create/delete, triple point), sliding an event
across the ray, and a planar rearrangement that replaces a window of
consecutive events by any other word as long as the marked Gauss
diagram is unchanged.  The last one covers everything a generic isotopy
of the annulus does between Reidemeister strata: height exchanges of
distant events, slides past cups and caps, U-turns of a tangle around a
turnback, zigzag cancellation.

Slots index the gaps of the cyclic event word: slot t sits just before
event t, slot 0 at the ray.

R1Delete and each move a random walk proposes (R2Create, R2Delete, R3,
Exchange) state their validity rule once, in check: it raises the move's
error or returns what apply needs, and apply starts by calling it.
R2Delete, Exchange and R3 match their pattern with a function of (events,
slot) that returns the events or None (cancelling_pair, exchange_pair,
r3_triple), which random walks call too, before building a move.

Moves whose effect on the Gauss diagram is local (Exchange, R3, R2Create,
R2Delete, R1Delete and a Rearrange that passes its window check) splice
their parent state (AnnularDiagram.spliced): the window's events, and
its widths and Gauss data where they change, are replaced without
walking the whole diagram again.  Both deletions filter their
crossings' tokens out of the list (_drop), R2Create inserts two token
pairs into a copy of it, and a ray shift of a crossing moves the
crossing's two ray passages past its tokens and rotates the list
(_ray_moved); each builds its GaussDiagram from the new list, whose
markings are computed when something reads them.  R3 alone derives its
diagram from the parent's (GaussDiagram.transposed).  A Rearrange whose
old and new windows hold crossings only passes when the two differ by
far commutations, that is when, for every position i, the crossings at
i and i + 1 appear as the same sequence of events in both; a window
with a cup or a cap is compared by one sweep of each
(annular.window_strands).  Kink creations, ray shifts of a cup or cap,
a Rearrange that fails its window check, and an R2Create or ray shift
whose tokens do not decide the edit build and validate their result in
full.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .annular import (AnnularDiagram, DiagramError, MorseEvent, _crossing,
                      fits, token_gap, window_strands)
from .gauss import GaussDiagram, ray_starts


class MoveError(ValueError):
    def __init__(self, code, message):
        super().__init__(f"{code}: {message}")
        self.code = code


def _other(flag):
    return '-' if flag == '+' else '+'


@dataclass(frozen=True)
class Move:
    def apply(self, diagram):
        raise NotImplementedError


@dataclass(frozen=True)
class R1Create(Move):
    """Insert a kink on the strand at the given position.

    variant 'above' loops the strand upward (the loop occupies positions
    pos+1, pos+2), 'below' loops it downward.  Together with the over
    flag this realises all four kink kinds.
    """

    slot: int
    pos: int
    over: str
    variant: str = 'above'
    cid: int = 0

    def kink_events(self):
        if self.variant == 'above':
            return [MorseEvent('U', self.pos + 1),
                    MorseEvent('X', self.pos + 1, self.over, self.cid),
                    MorseEvent('A', self.pos)]
        if self.variant == 'below':
            return [MorseEvent('U', self.pos),
                    MorseEvent('X', self.pos, self.over, self.cid),
                    MorseEvent('A', self.pos + 1)]
        raise MoveError('E_VARIANT', f"unknown kink variant {self.variant!r}")

    def apply(self, diagram):
        if not 0 <= self.slot <= len(diagram.events):
            raise MoveError('E_R1', "slot out of range")
        piece = R1Create(self.slot, self.pos, self.over, self.variant,
                         self.created_cid(diagram))
        evs = list(diagram.events)
        evs[self.slot:self.slot] = piece.kink_events()
        return AnnularDiagram(diagram.n, evs, w0=diagram.w0)

    def created_cid(self, diagram):
        return self.cid if self.cid > 0 else diagram.max_cid() + 1


@dataclass(frozen=True)
class R1Delete(Move):
    slot: int

    def check(self, diagram):
        """The crossing id of the kink word U(p+1) X(p+1) A(p) (above) or
        U(p) X(p) A(p+1) (below) at slot; E_R1 if there is none."""
        evs = diagram.events
        if 0 <= self.slot <= len(evs) - 3:
            a, b, c = evs[self.slot:self.slot + 3]
            if ((a.kind, b.kind, c.kind) == ('U', 'X', 'A') and a.pos == b.pos
                    and abs(a.pos - c.pos) == 1):
                return b.cid
        raise MoveError('E_R1', f"no kink at slot {self.slot}")

    def apply(self, diagram):
        return _drop(diagram, self.slot, 3, (self.check(diagram),))


def _drop(diagram, slot, count, cids):
    """The state left when the count events at slot, a kink or a
    tangency pair of the crossings cids, are deleted.  Removing a kink
    or a bigon cannot disconnect the knot and moves no ray passage, so
    the Gauss data loses the crossings' tokens and signs and nothing
    else."""
    g = diagram.gauss()
    tokens = [tok for tok in g.tokens if tok[0] == 'r' or tok[1] not in cids]
    signs = {cid: sg for cid, sg in g.signs.items() if cid not in cids}
    return diagram.spliced(slot, count, (), GaussDiagram(tokens, signs), ())


@dataclass(frozen=True)
class R2Create(Move):
    """Push two adjacent strands across each other: insert X(pos) X(pos)
    with opposite over flags.  over_first is the flag of the first one.

    Each of the two strands meets the new crossings back to back, with
    the same token kind: the strand at pos passes over both when
    over_first is '+'.  So the Gauss data changes by a pair of tokens
    inserted where each strand crosses the slot (annular.token_gap), in
    word order or reversed with the strand's direction, and the two
    crossings get opposite signs.  The pairs go into a copy of the token
    list, from which the new GaussDiagram is built.  Where the tokens do
    not decide the gaps, or both strands sit in one gap, the word is
    built in full.
    """

    slot: int
    pos: int
    over_first: str
    cid1: int = 0
    cid2: int = 0

    def check(self, diagram):
        """The width at slot and the two ids."""
        s = self.slot
        if not 0 <= s <= len(diagram.events):
            raise MoveError('E_R2', "slot out of range")
        top = diagram.max_cid()
        c1 = self.cid1 if self.cid1 > 0 else top + 1
        c2 = self.cid2 if self.cid2 > 0 else max(c1, top) + 1
        if c1 == c2:
            raise MoveError('E_ID', "tangency needs two distinct ids")
        w = diagram.widths()
        ws = w[s] if s < len(w) else diagram.w0
        if not fits(MorseEvent('X', self.pos, self.over_first, c1), ws):
            raise DiagramError('E_POS', f"crossing at {self.pos} exceeds width {ws}")
        signs = diagram.gauss().signs
        if c1 in signs or c2 in signs:
            raise DiagramError('E_ID', "duplicate crossing ids")
        return ws, c1, c2

    def apply(self, diagram):
        ws, c1, c2 = self.check(diagram)
        s = self.slot
        pair = (MorseEvent('X', self.pos, self.over_first, c1),
                MorseEvent('X', self.pos, _other(self.over_first), c2))
        gaps = [token_gap(diagram, s, p) for p in (self.pos, self.pos + 1)]
        if None in gaps or gaps[0][0] == gaps[1][0]:
            evs = diagram.events
            return AnnularDiagram(diagram.n, evs[:s] + list(pair) + evs[s:],
                                  w0=diagram.w0)
        (ja, da), (jb, db) = gaps
        ka, kb = ('h', 'f') if self.over_first == '+' else ('f', 'h')
        g = diagram.gauss()
        tokens = list(g.tokens)
        for j, new in sorted([(ja, [(ka, c1), (ka, c2)][::da]),
                              (jb, [(kb, c1), (kb, c2)][::db])], reverse=True):
            tokens[j:j] = new
        signs = dict(g.signs)
        signs[c1] = da * db * (1 if self.over_first == '+' else -1)
        signs[c2] = -signs[c1]
        return diagram.spliced(s, 0, pair, GaussDiagram(tokens, signs), (ws, ws))


def cancelling_pair(events, slot):
    """The tangency pair X(p) X(p) with opposite flags at slot."""
    if not 0 <= slot <= len(events) - 2:
        return None
    a, b = events[slot], events[slot + 1]
    if a.kind != 'X' or b.kind != 'X' or a.pos != b.pos or a.over == b.over:
        return None
    return a, b


@dataclass(frozen=True)
class R2Delete(Move):
    """Cancel a tangency pair X(pos) X(pos) with opposite over flags; the
    Gauss data loses the pair's tokens and signs (_drop)."""

    slot: int

    def check(self, diagram):
        pair = cancelling_pair(diagram.events, self.slot)
        if pair is None:
            raise MoveError('E_R2', f"no cancelling pair at slot {self.slot}")
        return pair

    def apply(self, diagram):
        a, b = self.check(diagram)
        return _drop(diagram, self.slot, 2, (a.cid, b.cid))


# flag triples whose three strand heights are cyclically ordered instead
# of totally ordered; no triple point move exists through those
_R3_FORBIDDEN = {('+', '-', '+'), ('-', '+', '-')}


def r3_triple(events, slot):
    """The three crossing events of a triple point pattern at slot."""
    if not 0 <= slot <= len(events) - 3:
        return None
    a, b, c = events[slot], events[slot + 1], events[slot + 2]
    if (a.kind != 'X' or b.kind != 'X' or c.kind != 'X' or a.pos != c.pos
            or abs(a.pos - b.pos) != 1):
        return None
    return a, b, c


def r3_checked(events, slot):
    """R3's validity rule: the triple point pattern at slot, if its
    heights are totally ordered, else the move's MoveError.  R3.check and
    cocycle.classify_r3 both apply it."""
    trip = r3_triple(events, slot)
    if trip is None:
        raise MoveError('E_R3', f"no triple point pattern at slot {slot}")
    if (trip[0].over, trip[1].over, trip[2].over) in _R3_FORBIDDEN:
        raise MoveError('E_R3', "strand heights are cyclic, move is not planar")
    return trip


def r3_token_pairs(g, trip):
    """Index of the first token of each strand's pair in a triple point
    pattern.  Each strand meets two of its crossings back to back, and no
    ray passage (the token list starts on one) lies inside the pattern,
    so the six tokens' sorted positions form three adjacent pairs.  The
    diagram keeps the last triangle asked of it, for classify_r3."""
    key = trip[0].cid, trip[1].cid, trip[2].cid
    kept, firsts = g._triangle
    if kept != key:
        pos = g._pos
        a, b, c = key
        i, _, j, _, k, _ = sorted((pos[('h', a)], pos[('f', a)], pos[('h', b)],
                                   pos[('f', b)], pos[('h', c)], pos[('f', c)]))
        firsts = i, j, k
        g._triangle = key, firsts
    return firsts


@dataclass(frozen=True)
class R3(Move):
    """Slide the middle strand across the crossing of the outer two:
    X(p) X(q) X(p)  ->  X(q) X(p) X(q)  with |p-q| = 1, flags kept in
    reversed event order.

    Each strand then meets its two crossings of the triangle in the
    opposite order and with the same token kinds, so the Gauss data
    changes by three transpositions of adjacent tokens, at the pairs
    r3_token_pairs finds (GaussDiagram.transposed): the token list and
    the index are copied and six entries move, and the signs and the
    markings are the parent's.  The parent keeps the pairs found, and
    cocycle.classify_r3 reads them when it classifies the move.
    """

    slot: int

    def check(self, diagram):
        """The triple point pattern at slot, if its heights are totally ordered."""
        return r3_checked(diagram.events, self.slot)

    def apply(self, diagram):
        trip = a, b, c = self.check(diagram)
        # the parent's validated fields, permuted: no event is checked again
        new = (_crossing(b.pos, c.over, c.cid), _crossing(a.pos, b.over, b.cid),
               _crossing(b.pos, a.over, a.cid))
        g = diagram.gauss()
        return diagram.spliced(self.slot, 3, new, g.transposed(r3_token_pairs(g, trip)))


@dataclass(frozen=True)
class RayShift(Move):
    """Slide the event next to the ray across it.  direction +1 moves the
    first event of the word to its end, -1 the reverse.

    A crossing keeps w0 and every sign and marking: the word and its
    widths rotate by one event, spliced in whole, and on each of the
    crossing's strands its token changes places with the ray passage
    next to it (_ray_moved), and the new GaussDiagram is built from that
    list.  A crossing at position 1 moves the passage that anchors the
    token list, so the list is rotated to start at the new passage of
    position 1, or to end at it where the knot runs backward there, as
    AnnularDiagram._traverse orients it.  A cup or cap changes w0 and
    the number of passages; no planner shifts one, and it is built and
    validated in full, as is a crossing whose tokens do not decide the
    edit.
    """

    direction: int = 1

    def apply(self, diagram):
        evs, d = diagram.events, self.direction
        if not evs:
            raise MoveError('E_RAY', "nothing to shift")
        if d not in (1, -1):
            raise MoveError('E_RAY', "direction must be +1 or -1")
        ev = evs[0] if d == 1 else evs[-1]
        out = evs[d:] + evs[:d]
        if ev.kind == 'X':
            g = _ray_moved(diagram.gauss(), ev, d)
            if g is not None:
                w = diagram.widths()
                return diagram.spliced(0, len(evs), out, g, w[d:] + w[:d])
        return AnnularDiagram(diagram.n, out, w0=diagram.w0 + d * ev.delta)


def _ray_moved(g, ev, d):
    """The Gauss diagram left when the crossing ev slides across the ray
    in direction d, or None when the tokens do not decide it.

    On each strand of ev the ray passage is the token next to ev's: on
    the ray's side of it (before it for d = +1, after it for d = -1) as
    ('r', 1) when the knot runs word-forward there, on the other side as
    ('r', -1) when it runs backward.  Where both neighbours fit, the
    sign of ev, its over flag times the directions of its two strands,
    settles one strand from the other."""
    tokens, size = g.tokens, len(g.tokens)
    # line 1 is the strand ascending through ev, line 2 the other
    ends = [g.position(kind, ev.cid) for kind in ('hf' if ev.over == '+' else 'fh')]
    # the directions each strand's neighbours allow
    sides = [{x for x, tok in ((1, ('r', 1)), (-1, ('r', -1)))
              if tokens[(j - x * d) % size] == tok} for j in ends]
    s = g.signs[ev.cid] * (1 if ev.over == '+' else -1)
    ways = [(x, s * x) for x in sides[0] if s * x in sides[1]]
    if len(ways) != 1:
        return None
    new = list(tokens)
    for j, x in zip(ends, ways[0]):
        p = (j - x * d) % size
        new[p], new[j] = new[j], new[p]
    if ev.pos == 1:
        # the passage of position 1 of the new ray slice: the end of line 2
        # (d = +1) or the start of line 1 (d = -1), now at its token's index
        line = 1 if d == 1 else 0
        j = ends[line]
        if ways[0][line] == 1:
            new = new[j:] + new[:j]
        elif g.homology_class > 0:
            new = new[j + 1:] + new[:j + 1]
        else:
            return None             # a class-0 walk would turn the knot around
    return GaussDiagram(new, g.signs)


def exchange_pair(events, slot):
    """The two crossings at slot, if they act on disjoint strand pairs."""
    if not 0 <= slot <= len(events) - 2:
        return None
    a, b = events[slot], events[slot + 1]
    if a.kind != 'X' or b.kind != 'X' or abs(a.pos - b.pos) < 2:
        return None
    return a, b


@dataclass(frozen=True)
class Exchange(Move):
    """Swap two adjacent crossing events acting on disjoint strand pairs.

    A special case of Rearrange with a constant-time validity check, used
    heavily by the transport planners.  Every strand still meets the
    same crossings in the same order, so the Gauss diagram is the
    parent's.
    """

    slot: int

    def check(self, diagram):
        pair = exchange_pair(diagram.events, self.slot)
        if pair is None:
            raise MoveError('E_EXCHANGE', f"no exchangeable pair at slot {self.slot}")
        return pair

    def apply(self, diagram):
        a, b = self.check(diagram)
        return diagram.spliced(self.slot, 2, (b, a))


def _crossings_only(events):
    return all(ev.kind == 'X' for ev in events)


def _far_commuted(old, new):
    """Do two crossing-only windows differ by far commutations alone,
    swaps of adjacent crossings two or more positions apart?

    They do exactly when, for every position i, the crossings at i and
    i + 1 appear as the same sequence of equal events in both (the
    projection lemma of partially commutative monoids, Cartier-Foata).
    """
    projections = []
    for events in (old, new):
        proj = defaultdict(list)
        for ev in events:
            proj[ev.pos - 1].append(ev)
            proj[ev.pos].append(ev)
        projections.append(proj)
    return projections[0] == projections[1]


@dataclass(frozen=True)
class Rearrange(Move):
    """Replace the count events at slot by events, keeping the marked
    Gauss diagram and w0.

    Any isotopy of the annulus that crosses no Reidemeister stratum and
    keeps the diagram transverse to the ray acts this way.  The window
    is checked first.  When the old and the new window hold crossings
    only, the new one must differ from the old by far commutations
    (_far_commuted): for every position i, the crossings at positions i
    and i + 1 appear as the same sequence of equal events in both.  Each
    strand then meets the same crossings in the same order, as after a
    run of Exchanges, and every slice keeps the window's width.  A
    window with a cup or a cap is swept instead: the new events must
    have the old boundary widths and fit their slices, and one sweep of
    each window (annular.window_strands) must join the same boundary
    ports by pieces that meet the same tokens (hence the same crossing
    ids) and give every crossing the same relative sign, with no closed
    component inside.  On either check the Gauss diagram is the
    parent's, and only the window's widths change.  A window that fails
    its check may still be planar through the rest of the word, so
    validity is then decided extensionally: the whole word is rebuilt
    and its Gauss data compared with the parent's.
    """

    slot: int
    count: int
    events: tuple

    def window_widths(self, diagram):
        """Widths of the slices before the new events when the window
        check accepts the edit, else None."""
        evs, w = diagram.events, diagram.widths()
        s, e = self.slot, self.slot + self.count
        new = [w[s] if s < len(evs) else diagram.w0]
        old = evs[s:e]
        if _crossings_only(old) and _crossings_only(self.events):
            return new * len(self.events) if _far_commuted(old, self.events) else None
        right = w[e] if e < len(evs) else diagram.w0
        for ev in self.events:
            if not fits(ev, new[-1]):
                return None
            new.append(new[-1] + ev.delta)
        if new[-1] != right:
            return None
        after = window_strands(self.events, new)
        if after is None or after != window_strands(old, w[s:e] + [right]):
            return None
        return new[:-1]

    def apply(self, diagram):
        evs = diagram.events
        s, e = self.slot, self.slot + self.count
        if s < 0 or not s <= e <= len(evs):
            raise MoveError('E_REARRANGE', "window out of range")
        widths = self.window_widths(diagram)
        if widths is not None:
            return diagram.spliced(s, self.count, self.events, widths=widths)
        full = AnnularDiagram(diagram.n, evs[:s] + list(self.events) + evs[e:],
                              w0=diagram.w0)
        g0, g1 = diagram.gauss(), full.gauss()
        if g0.canonical_tokens() != g1.canonical_tokens() or g0.signs != g1.signs:
            raise MoveError('E_PLANAR', "rearrangement changes the Gauss diagram")
        return full


# ---------------------------------------------------------------------------
# Movies

def canonical_gauss_key(gd):
    """Gauss data up to rotation and renaming of crossing ids.

    Minimises over the rotations that start at a ray passage only: two
    token lists are rotations of each other exactly when their sets of
    such rotations agree.
    """
    toks = gd.tokens
    m = len(toks)
    best = None
    for r in ray_starts(toks):
        names, seq = {}, []
        for i in range(m):
            kind, val = toks[(r + i) % m]
            if kind == 'r':
                seq.append(('r', val))
            else:
                if val not in names:
                    names[val] = len(names)
                seq.append((kind, names[val], gd.signs[val]))
        cand = tuple(seq)
        if best is None or cand < best:
            best = cand
    return best


def same_gauss(d1, d2):
    """Do two diagrams have the same Gauss data up to rotation and
    renaming of crossing ids?"""
    g1, g2 = d1.gauss(), d2.gauss()
    if g1.tokens == g2.tokens and g1.signs == g2.signs:
        return True
    return canonical_gauss_key(g1) == canonical_gauss_key(g2)


def _invert(mv, state_before):
    if isinstance(mv, R1Create):
        return R1Delete(mv.slot)
    if isinstance(mv, R1Delete):
        u, x, a = state_before.events[mv.slot:mv.slot + 3]
        variant = 'above' if a.pos == u.pos - 1 else 'below'
        pos = x.pos - 1 if variant == 'above' else x.pos
        return R1Create(mv.slot, pos, x.over, variant, x.cid)
    if isinstance(mv, R2Create):
        return R2Delete(mv.slot)
    if isinstance(mv, R2Delete):
        a, b = state_before.events[mv.slot:mv.slot + 2]
        return R2Create(mv.slot, a.pos, a.over, a.cid, b.cid)
    if isinstance(mv, R3):
        return R3(mv.slot)
    if isinstance(mv, Exchange):
        return Exchange(mv.slot)
    if isinstance(mv, RayShift):
        return RayShift(-mv.direction)
    if isinstance(mv, Rearrange):
        old = state_before.events[mv.slot:mv.slot + mv.count]
        return Rearrange(mv.slot, len(mv.events), tuple(old))
    raise MoveError('E_INVERT', f"cannot invert {mv!r}")


def verify_movie(movie):
    """Check that a movie stays inside the moduli space.

    Checks per state: homology class n, no loop of negative winding (each
    state is a single knot already: the movie's moves built it).  Kink
    crossings must have marking 0 (the semi-regular condition), and the
    movie must return to its start.  Raises MoveError on the first
    violation, returns the number of states otherwise.
    """
    n = movie.start.n

    def check_state(st, where):
        g = st.gauss()
        if g.homology_class != n:
            raise MoveError('E_CLASS', f"class {g.homology_class} != {n} {where}")
        ok, witness = st.check_no_negative_loops()
        if not ok:
            raise MoveError('E_NEGLOOP', f"negative loop {witness} {where}")

    check_state(movie.start, "at start")
    for k, (before, mv, after) in enumerate(movie.steps(), 1):
        if isinstance(mv, R1Create):
            mark = after.gauss().marking(mv.created_cid(before))
            if mark != 0:
                raise MoveError('E_KINK', f"kink of marking {mark} after move {k}")
        if isinstance(mv, R1Delete):
            mark = before.gauss().marking(mv.check(before))
            if mark != 0:
                raise MoveError('E_KINK', f"kink of marking {mark} at move {k}")
        check_state(after, f"after move {k}")
    if not movie.is_closed():
        raise MoveError('E_CLOSED', "movie does not return to its start diagram")
    return len(movie.moves) + 1
