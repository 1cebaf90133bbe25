"""Cables of long knot words and the tangles that close them.

A long knot is given as a Morse word with a single strand entering and
leaving at position 1 (class-1 when closed around the annulus by the
ray).  Its n-cable replaces every strand by a bundle of n parallel
strands: crossings become n*n crossing blocks, cups and caps become
concentric families.  Closing the cable with an n-strand tangle that
joins the copies into one component produces the class-n knots the
cocycle machinery evaluates on.
"""

from __future__ import annotations

from .annular import AnnularDiagram, MorseEvent, parse_events, parse_morse
from .gauss import w1
from .moves import R1Create


def braid_events(word):
    """Crossing events for a braid word of signed generator indices:
    +i is X+ at position i, -i is X- at position i."""
    return [MorseEvent('X', abs(g), '+' if g > 0 else '-', cid)
            for cid, g in enumerate(word, 1)]


def full_twist_word(n):
    """Braid word of the full twist on n strands."""
    return [i for _ in range(n) for i in range(1, n)]


def bundle_swap_rows(p, n):
    """Crossing positions that carry a bundle of n strands starting at p
    across the next bundle, row by row."""
    return [[(p - 1) + r + k for k in range(n)] for r in range(n, 0, -1)]


def n_cable(events, n):
    """n-cable of a Morse word: each crossing becomes its n*n block in
    word order, with ids numbered from one above the word's largest."""
    out = []
    nxt = max([e.cid for e in events if e.kind == 'X'], default=0) + 1
    for ev in events:
        q = n * (ev.pos - 1) + 1
        if ev.kind == 'U':
            out.extend(MorseEvent('U', q + k) for k in range(n))
        elif ev.kind == 'A':
            out.extend(MorseEvent('A', q + n - 1 - k) for k in range(n))
        else:
            for row in bundle_swap_rows(q, n):
                for pos in row:
                    out.append(MorseEvent('X', pos, ev.over, nxt))
                    nxt += 1
    return out


def renumber(events):
    """Fresh consecutive crossing ids in word order."""
    out = []
    nxt = 1
    for ev in events:
        if ev.kind == 'X':
            out.append(MorseEvent('X', ev.pos, ev.over, nxt))
            nxt += 1
        else:
            out.append(ev)
    return out


def closed_cable(tangle_events, long_events, n):
    """Class-n diagram [ray][tangle][n-cable of the long knot word]."""
    events = renumber(list(tangle_events) + n_cable(long_events, n))
    return AnnularDiagram(n, events, w0=n)


def n_curl(n):
    """n-cable of a single positive kink looping above the base strand:
    the curl every strand of the diagram gets dragged through in the
    rotation loop."""
    return n_cable(R1Create(0, 1, '+', 'above', cid=1).kink_events(), n)


# ---------------------------------------------------------------------------
# Long knot fixtures, as Morse word text

LONG_UNKNOT = ""
LONG_TREFOIL = "U 2 ; X+ 1 ; X+ 1 ; X+ 1 ; A 2"
LONG_TORUS25 = "U 2 ; X+ 1 ; X+ 1 ; X+ 1 ; X+ 1 ; X+ 1 ; A 2"
LONG_TORUS27 = "U 2 ; " + " ; ".join(["X+ 1"] * 7) + " ; A 2"
LONG_FIG8 = "U 2 ; X+ 1 ; X- 2 ; X+ 1 ; X- 2 ; A 1"
LONG_MIRROR_TREFOIL = "U 2 ; X- 1 ; X- 1 ; X- 1 ; A 2"
# figure eight with the framing brought to -1 by one extra kink
LONG_FIG8_W1 = LONG_FIG8 + " ; U 2 ; X+ 2 ; A 1"


def long_w1(text):
    """The degree-one invariant (the framing) of a long knot word; blank
    text is the bare ring, with w1 = 0."""
    return w1(parse_morse(text).gauss())


def framed_word(text, cur, target):
    """The long knot word text, whose framing (degree-one invariant) is
    cur, framed to target by |cur - target| marking-1 kinks appended."""
    # the kink looping above with X+ is negative, the one below with X- positive
    over, variant = ('+', 'above') if cur > target else ('-', 'below')
    piece = " ; ".join(ev.text() for ev in R1Create(0, 1, over, variant).kink_events())
    return " ; ".join(([text] if text.strip() else []) + [piece] * abs(cur - target))


def normalize_w1(text, target):
    """The long knot word text framed to target by marking-1 kinks."""
    return framed_word(text, long_w1(text), target)


# The events of a long knot word, read but not validated: a planner or
# closed_cable checks them once, as part of the diagram it builds from
# them, and a malformed word makes a malformed diagram of the same kind.
long_events = parse_events
