"""Test loops around the discriminant: quadruple point meridians, edge
loops of self-tangency-plus-triple strata, commutation loops, and random
contractible loops.

A quadruple point of four positive branches unfolds into eight triple
point moves.  Its meridian walks the octagon of commutation classes of
reduced words of the half twist on four strands; the walk below was
computed once from that graph and ships as data.

Hosts for the meridians are synthesized from the abstract closure data:
the cyclic order in which the knot visits the four branches, and the
number of times each connecting arc winds around the annulus.
"""

from __future__ import annotations

import itertools
import random

from .annular import AnnularDiagram, DiagramError, MorseEvent
from .cocycle import Movie
from .gauss import GaussDiagram
from .moves import (Exchange, MoveError, R2Create, R2Delete, R3, _invert,
                    _other, cancelling_pair, exchange_pair, r3_triple)

# half twist word the meridian starts from, and the walk around the
# octagon: ('B', k) is a triple point move at word offset k, ('C', k) a
# commutation exchange
HALF_TWIST_WORD = (1, 2, 1, 3, 2, 1)
MERIDIAN_WALK = (
    ('B', 0), ('B', 2), ('C', 1), ('C', 4), ('B', 2), ('B', 0), ('C', 2),
    ('B', 3), ('B', 1), ('C', 0), ('C', 3), ('B', 1), ('B', 3), ('C', 2),
)

# the six cyclic orders in which a knot can run through four branches
GLOBAL_TYPES = {
    1: (1, 2, 3, 4), 2: (1, 2, 4, 3), 3: (1, 3, 2, 4),
    4: (1, 3, 4, 2), 5: (1, 4, 2, 3), 6: (1, 4, 3, 2),
}


class HostError(ValueError):
    pass


def _perm_braid(occupants, target_of, cid, out):
    """Sort strands to their target positions by adjacent transpositions,
    emitting positive crossings.  occupants is a list of ids bottom up."""
    want = sorted(occupants, key=lambda s: target_of[s])
    k = len(occupants)
    for goal in range(k):
        sid = want[goal]
        at = occupants.index(sid)
        while at > goal:
            occupants[at], occupants[at - 1] = occupants[at - 1], occupants[at]
            out.append(MorseEvent('X', at, '+', cid))
            cid += 1
            at -= 1
    return cid


def quad_host(order, windings, n):
    """Class-n diagram with a positive quadruple point site.

    order: the four block entry ports in the cyclic order the knot
    visits them.  windings: ray passages of the four connecting arcs, in
    the same order, summing to n.  Returns (diagram, block_slot); the
    six block crossings sit at slots block_slot .. block_slot+5.
    """
    block = [(g, '+') for g in HALF_TWIST_WORD]
    # the half twist reverses the four lowest strands
    return _site_host(order, windings, n, block, (3, 2, 1, 0))


def tangency_host(order, windings, flags, n):
    """Class-n diagram whose site is a self-tangency pair next to a
    triangle: crossings u ubar y z at positions 1 1 2 1, where (u, ubar)
    is the tangency pair and the triangle through u involves y and z.

    order: the three entry ports in visit order.  windings: ray
    passages of the three connecting arcs, summing to n.  flags: the
    over flags (o, f, g) of u, y and z.
    """
    o, f, g = flags
    block = [(1, o), (1, _other(o)), (2, f), (1, g)]
    # net permutation of u ubar y z: a cycle moving the top strand down
    return _site_host(order, windings, n, block, (2, 0, 1))


def tangency_hosts(order, windings, n):
    """The eight flag variants (flags, host, block_slot) of one tangency
    site, in itertools.product('+-', repeat=3) order.

    Only the all-'+' host is built and validated: a flag changes no
    strand's path, so flipping it swaps the 'h'/'f' ends of its
    crossing's two tokens and negates the sign, and every other variant
    is derived with that Gauss data.  The call raises HostError, before
    any variant.
    """
    base, slot = tangency_host(order, windings, ('+', '+', '+'), n)
    return ((flags, _reflagged(base, slot, flags), slot)
            for flags in itertools.product('+-', repeat=3))


def _reflagged(base, slot, flags):
    o, f, g = flags
    block = base.events[slot:slot + 4]
    new = [MorseEvent('X', ev.pos, flag, ev.cid)
           for ev, flag in zip(block, (o, _other(o), f, g))]
    flipped = {ev.cid for ev, nv in zip(block, new) if ev.over != nv.over}
    if not flipped:
        return base
    bg = base.gauss()
    tokens = [(('f' if k == 'h' else 'h'), v) if k != 'r' and v in flipped
              else (k, v) for k, v in bg.tokens]
    signs = {cid: -s if cid in flipped else s for cid, s in bg.signs.items()}
    return base.spliced(slot, 4, new, GaussDiagram(tokens, signs))


def _site_host(order, windings, n, block, perm):
    k = len(order)
    if n < 1:
        raise HostError(f"class n must be at least 1, got {n}")
    if sorted(order) != list(range(1, k + 1)):
        raise HostError(f"order must arrange the {k} entry ports")
    if len(windings) != k or any(w < 0 for w in windings) or sum(windings) != n:
        raise HostError(f"windings must be nonnegative and sum to {n}")
    # start the circuit on a branch that follows a winding arc
    s = next(i for i in range(k) if windings[i - 1] >= 1)
    order = order[s:] + order[:s]
    windings = windings[s:] + windings[:s]

    chains = [[] for _ in range(n)]
    cur = 0
    chains[0].append(order[0])
    for b, w in zip(order[1:], windings[:k - 1]):
        cur = (cur + w) % n
        chains[cur].append(b)

    empty = [t for t in range(n) if not chains[t]]
    joins = []
    for ch in chains:
        joins.extend(zip(ch, ch[1:]))
    e = len(empty)

    # strand ids: ('p', t) piece strands, ('f', j) join feeders, ('b', j)
    # bridges over the block
    events = []
    cid = 1
    occupants = [('p', t) for t in range(n)]
    for j in range(len(joins)):
        events.append(MorseEvent('U', len(occupants) + 1))
        occupants.extend([('f', j), ('b', j)])

    target = {}
    for t in range(n):
        if chains[t]:
            target[('p', t)] = chains[t][0]
    for p, t in enumerate(empty):
        target[('p', t)] = k + 1 + p
    for j, (x, y) in enumerate(joins):
        target[('f', j)] = y
        target[('b', j)] = k + 1 + e + j
    cid = _perm_braid(occupants, target, cid, events)

    block_slot = len(events)
    for pos, flag in block:
        events.append(MorseEvent('X', pos, flag, cid))
        cid += 1
    occupants[0:k] = [occupants[p] for p in perm]

    for j, (x, y) in enumerate(joins):
        exit_id = None
        for sid in occupants:
            if sid[0] != 'b' and target.get(sid) == x:
                exit_id = sid
        bridge = ('b', j)
        at_b = occupants.index(bridge)
        at_x = occupants.index(exit_id)
        if at_b < at_x:
            raise HostError("bridge below its exit strand")
        while at_b > at_x + 1:
            occupants[at_b], occupants[at_b - 1] = occupants[at_b - 1], occupants[at_b]
            events.append(MorseEvent('X', at_b, '+', cid))
            cid += 1
            at_b -= 1
        events.append(MorseEvent('A', at_x + 1))
        del occupants[at_x:at_x + 2]

    # close up: piece t hands over to piece t+1
    final = {}
    for t in range(n):
        final[_piece_end(t, chains, joins)] = ((t + 1) % n) + 1
    cid = _perm_braid(occupants, final, cid, events)

    return AnnularDiagram(n, events, w0=n), block_slot


def _piece_end(t, chains, joins):
    """Strand id that carries piece t at the word end."""
    if not chains[t]:
        return ('p', t)
    last = chains[t][-1]
    if last == chains[t][0]:
        return ('p', t)
    for j, (x, y) in enumerate(joins):
        if y == last:
            return ('f', j)
    raise HostError("broken chain bookkeeping")


def meridian_loop(host, block_slot):
    """The eight-move loop around the quadruple point of the host."""
    moves = []
    for kind, k in MERIDIAN_WALK:
        if kind == 'B':
            moves.append(R3(block_slot + k))
        else:
            moves.append(Exchange(block_slot + k))
    return Movie(host, moves)


def tangency_loop(host, block_slot, over):
    """Loop around a triple point two of whose branches are tangent.

    The transverse strand slides across the tangency bigon: one triple
    move through each crossing of the pair, then the pair is cancelled
    and recreated on the far side under its own ids, so the loop ends on
    the start's Gauss data, not a renaming of it.  The two triple moves
    use the same two outer crossings but opposite partners from the
    pair.  over is the flag of the leading pair crossing, as built by
    tangency_host.
    """
    s = block_slot
    pair = host.events[s].cid, host.events[s + 1].cid
    moves = [R3(s + 1), R3(s), R2Delete(s + 2), R2Create(s, 1, over, *pair)]
    return Movie(host, moves)


def embedded_tangency_loops(diagram, over):
    """Closed tangency loops grafted next to each adjacent crossing pair
    of a diagram.

    The synthesized hosts exercise every marking pattern but carry no
    weight pairs; grafting the bigon into a cable diagram instead makes
    the two triple moves contribute nonzero, cancelling amounts.  Yields
    (host, movie) for every graft site that admits the slide.
    """
    evs = diagram.events
    for s in range(len(evs) - 1):
        a, b = evs[s], evs[s + 1]
        if a.kind != 'X' or b.kind != 'X':
            continue
        if b.pos == a.pos + 1:
            create = R2Create(s + 2, a.pos, over)
            moves = [R3(s), R3(s + 1), R2Delete(s), create]
        elif a.pos == b.pos + 1:
            create = R2Create(s, b.pos, over)
            moves = [R3(s + 1), R3(s), R2Delete(s + 2), create]
        else:
            continue
        try:
            host = create.apply(diagram)
            if not host.check_no_negative_loops()[0]:
                continue
            movie = Movie(host, moves)
        except (MoveError, DiagramError):
            continue
        yield host, movie


def commutation_loop(host, r3_slot, far_slot, pos, over):
    """Perform a triple move and a distant tangency move in both orders.

    The far R2 pair appears at far_slot before the triple move is
    undone, so the second R3 classifies in its presence.
    """
    s2 = r3_slot + (2 if far_slot <= r3_slot else 0)
    moves = [R3(r3_slot), R2Create(far_slot, pos, over),
             R3(s2), R2Delete(far_slot)]
    return Movie(host, moves)


def random_contractible_loop(host, length, seed):
    """Random applicable word of moves followed by its reverse inverse."""
    rng = random.Random(seed)
    movie, back = Movie(host), []
    for _ in range(length):
        options = _applicable_moves(movie.final(), rng)
        if not options:
            break
        mv = rng.choice(options)
        back.append(_invert(mv, movie.final()))
        movie.append(mv)
    for mv in reversed(back):
        movie.append(mv)
    return movie


def _applicable_moves(d, rng):
    """Every R3, then Exchange and R2Delete at each slot, then four random
    R2Creates, kept where they apply.  One pass over the slots builds a
    move only where its pattern function matches; R3's height rule and
    the R2Creates' whole rule are left to check."""
    evs = d.events
    r3s, pairs = [], []
    for s in range(len(evs) - 1):
        if r3_triple(evs, s) and _applies(R3(s), d):
            r3s.append(R3(s))
        if exchange_pair(evs, s):
            pairs.append(Exchange(s))
        if cancelling_pair(evs, s):
            pairs.append(R2Delete(s))
    # a couple of random creations rather than the full slot * position
    # grid, to keep the option list balanced
    creates = [R2Create(rng.randrange(len(evs) + 1), rng.randrange(1, 5),
                        rng.choice('+-')) for _ in range(4)]
    return r3s + pairs + [mv for mv in creates if _applies(mv, d)]


def _applies(mv, d):
    try:
        mv.check(d)
    except (MoveError, DiagramError):
        return False
    return True
