"""Property suites: the discriminant identities, scan invariance, the
cover lift, and the skein oracle, run over a small fixture corpus.

Each suite instantiates loops (or pairs of values) and checks exact
integer identities.  Reports collect counterexamples instead of
raising, so a failing suite can be replayed from the CLI.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .annular import DiagramError, MorseEvent, parse_morse
from .cabling import (LONG_FIG8, LONG_MIRROR_TREFOIL, LONG_TORUS25,
                      LONG_TREFOIL, braid_events, closed_cable, long_events,
                      normalize_w1)
# evaluate stays bound here: perfbench/selftest.py traces it through verify
from .cocycle import evaluate, evaluate_all  # noqa: F401
from .discriminant import (GLOBAL_TYPES, commutation_loop,
                           embedded_tangency_loops, meridian_loop, quad_host,
                           random_contractible_loop, tangency_hosts,
                           tangency_loop)
from .gauss import c2k, lift_to_cover, v2
from .loops import push_loop, scan_path
from .moves import MoveError, R1Create, _other, r3_triple
from .oracle import conway


@dataclass
class Failure:
    suite: str
    case: str
    detail: str
    movie: object = None


@dataclass
class SuiteReport:
    name: str
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures

    def summary(self):
        state = "pass" if self.passed else "FAIL"
        return f"{self.name}: {state} ({self.checks} checks, {len(self.failures)} failures)"


# ---------------------------------------------------------------------------
# Fixture corpus

CABLE_FIXTURES = (
    ("trefoil", [1], normalize_w1(LONG_TREFOIL, 1), 2),
    ("torus25", [1], normalize_w1(LONG_TORUS25, 2), 2),
    ("fig8", [1], normalize_w1(LONG_FIG8, -1), 2),
    ("trefoil3", [1, 2], normalize_w1(LONG_TREFOIL, 1), 3),
)

# closures of long words as ordinary knots, for the skein oracle
KNOT_FIXTURES = (
    ("unknot", ""),
    ("curl", "U 1 ; X+ 1 ; A 2"),
    ("trefoil", LONG_TREFOIL),
    ("mirror-trefoil", LONG_MIRROR_TREFOIL),
    ("fig8", LONG_FIG8),
    ("torus25", LONG_TORUS25),
    ("trefoil-curl", normalize_w1(LONG_TREFOIL, 4)),
    ("fig8-curl", normalize_w1(LONG_FIG8, 1)),
    ("granny", LONG_TREFOIL + " ; " + LONG_TREFOIL),
    ("square", LONG_TREFOIL + " ; " + LONG_MIRROR_TREFOIL),
    ("torus25-mirror", "U 2 ; X- 1 ; X- 1 ; X- 1 ; X- 1 ; X- 1 ; A 2"),
)


def corpus_diagrams():
    out = []
    for name, tangle, text, n in CABLE_FIXTURES:
        d = closed_cable(braid_events(tangle), long_events(text), n)
        out.append((name, d))
    return out


# ---------------------------------------------------------------------------
# Suite bodies

def _check_loop_zero(rep, movie, case):
    """Check that the loop closes, then that it vanishes at every a."""
    if not movie.is_closed():
        rep.failures.append(Failure(rep.name, case, "loop does not close", movie))
        return
    for a, val in evaluate_all(movie).items():
        rep.checks += 1
        if val != 0:
            rep.failures.append(
                Failure(rep.name, case, f"value {val} at a={a}", movie))


def _windings(k, n):
    for ws in itertools.product(range(n + 1), repeat=k - 1):
        if sum(ws) <= n:
            yield ws + (n - sum(ws),)


def suite_tetrahedron(params=None):
    params = params or {}
    rep = SuiteReport("tetrahedron")
    for n in params.get("ns", (2, 3, 4)):
        for gt, order in GLOBAL_TYPES.items():
            for ws in _windings(4, n):
                host, slot = quad_host(order, ws, n)
                movie = meridian_loop(host, slot)
                _check_loop_zero(rep, movie, f"type {gt} n={n} w={ws}")
    return rep


def suite_cube(params=None):
    params = params or {}
    rep = SuiteReport("cube")
    for n in params.get("ns", (2, 3)):
        for order in itertools.permutations((1, 2, 3)):
            for ws in _windings(3, n):
                for flags, host, slot in tangency_hosts(order, ws, n):
                    try:
                        movie = tangency_loop(host, slot, flags[0])
                    except MoveError as exc:
                        # cyclic height combinations have no planar stratum
                        if exc.code != 'E_R3' or 'cyclic' not in str(exc):
                            raise
                        continue
                    _check_loop_zero(rep, movie, f"site {order} n={n} w={ws} f={flags}")
    # tangency sites embedded in the cable fixtures carry real weights
    for name, d in corpus_diagrams():
        for over in "+-":
            for host, movie in embedded_tangency_loops(d, over):
                _check_loop_zero(rep, movie, f"embedded {name} over={over}")
    return rep


def _push_states():
    for name, tangle, text, n in CABLE_FIXTURES[:2]:
        movie = push_loop(tangle, text, n)
        states = itertools.chain([movie.start], (after for *_, after in movie.steps()))
        for i, d in itertools.islice(enumerate(states), 0, None, 7):
            yield f"{name}[{i}]", d


def suite_commutation(params=None):
    params = params or {}
    rep = SuiteReport("commutation")
    budget = params.get("budget", 120)
    for label, d in _push_states():
        evs = d.events
        for s in range(len(evs) - 2):
            if not r3_triple(evs, s):
                continue
            for far in (0, len(evs) - 1):
                for pos in (1, 2):
                    for over in "+-":
                        if budget <= 0:
                            return rep
                        try:
                            movie = commutation_loop(d, s, far, pos, over)
                        except (MoveError, DiagramError):
                            continue
                        budget -= 1
                        _check_loop_zero(rep, movie, f"{label} s={s} far={far}")
    return rep


def suite_contractible(params=None):
    params = params or {}
    rep = SuiteReport("contractible")
    seeds = params.get("seeds", range(100))
    hosts = corpus_diagrams()
    for seed in seeds:
        name, d = hosts[seed % len(hosts)]
        movie = random_contractible_loop(d, 6, seed)
        _check_loop_zero(rep, movie, f"{name} seed={seed}")
    return rep


# ---------------------------------------------------------------------------
# Scan invariance under semi-regular modification of the input

def semi_regular_variant(tangle_word, long_text, seed):
    """One seeded semi-regular change of the scan input: a cancelling
    generator pair in the closing tangle, a distant crossing pair, or a
    balanced pair of opposite curls in the long word."""
    rng = random.Random(seed)
    tangle = list(tangle_word)
    word = parse_morse(long_text, n=1)
    evs, widths = list(word.events), word.widths() + [1]
    slots = [i for i, w in enumerate(widths) if w >= 2]
    kind = rng.choice(('tangle', 'pair', 'curls'))
    if kind == 'tangle' and tangle:
        i = rng.randrange(len(tangle) + 1)
        g = rng.choice(tangle)
        tangle[i:i] = [g, -g]
    elif kind == 'pair' and slots:
        i = rng.choice(slots)
        p = rng.randrange(1, widths[i])
        o = rng.choice('+-')
        evs[i:i] = [MorseEvent('X', p, o), MorseEvent('X', p, _other(o))]
    else:
        i = rng.randrange(len(evs) + 1)
        p = rng.randrange(1, widths[i] + 1)
        # a Whitney pair: opposite kinks on opposite sides, both marking 0
        evs[i:i] = (R1Create(i, p, '+', 'below').kink_events()
                    + R1Create(i, p, '-', 'above').kink_events())
    return tangle, " ; ".join(ev.text() for ev in evs)


def suite_scan_invariance(params=None):
    rep = SuiteReport("scan-invariance")
    for name, tangle, text, n in CABLE_FIXTURES[:3]:
        base = evaluate_all(scan_path(tangle, text, n))
        for seed in range(20):
            t2, x2 = semi_regular_variant(tangle, text, seed * 31 + 7)
            got = evaluate_all(scan_path(t2, x2, n))
            rep.checks += 1
            if got != base:
                rep.failures.append(Failure(
                    rep.name, f"{name} seed={seed}", f"{got} != {base}"))
    return rep


# ---------------------------------------------------------------------------
# Lift consistency and the skein oracle

def suite_prop1(params=None):
    rep = SuiteReport("prop1")
    for name, d in corpus_diagrams():
        g = d.gauss()
        lifted = lift_to_cover(g)
        rep.checks += 1
        a, b = v2(g), v2(lifted)
        if a != b:
            rep.failures.append(Failure(
                rep.name, f"{name}/v2", f"{a} != {b} after lift"))
    return rep


def suite_ckr_oracle(params=None):
    rep = SuiteReport("ckr-oracle")
    for name, text in KNOT_FIXTURES:
        d = closed_cable([], long_events(text), 1)
        poly = conway(d)
        g = d.gauss()
        pairs = ((v2(g), poly.get(2, 0)), (c2k(g, 2), poly.get(4, 0)))
        for (got, want), label in zip(pairs, ("z2", "z4")):
            rep.checks += 1
            if got != want:
                rep.failures.append(Failure(
                    rep.name, f"{name}/{label}", f"{got} != conway {want}"))
    return rep


# the suites that read params['ns'], the class n of their loops
SUITES_WITH_N = ("tetrahedron", "cube")

SUITES = {
    "tetrahedron": suite_tetrahedron,
    "cube": suite_cube,
    "commutation": suite_commutation,
    "contractible": suite_contractible,
    "scan-invariance": suite_scan_invariance,
    "prop1": suite_prop1,
    "ckr-oracle": suite_ckr_oracle,
}


def run_suite(name, params=None):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choices: {sorted(SUITES)}")
    return SUITES[name](params)
