"""The benchmark's workloads, built from a seed, with their pinned values.

A workload is a list of units.  A unit runs one piece of work through
cocycle_lab's public functions and checks its outputs exactly against
values pinned here.  Loops are timed one by one through a LoopClock: a
loop is build + evaluation at every a + interpolation or check.  Inside
the verify suites the loop boundary is `verify._check_loop_zero`, which
checks one loop per call; a loop's time there runs from the end of the
previous loop, so it includes building this loop's host.

Importing this module imports the library, so the time to import it is
part of the benchmark's set-up time.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from cocycle_lab import cabling, cocycle, loops, verify

WORKLOADS = ("transport-grid", "suites-discriminant", "suites-random")

KNOTS = {"trefoil": cabling.LONG_TREFOIL, "torus25": cabling.LONG_TORUS25,
         "torus27": cabling.LONG_TORUS27, "fig8": cabling.LONG_FIG8}

PLANNERS = {"push": "push_loop", "rotation": "rotation_loop",
            "scan": "scan_path", "full-twist": "push_full_twist_loop"}

# transport-grid: (loop, knot, w1, n) -> (values at every a, text of the
# interpolation polynomial).  The tangle is sigma_1 ... sigma_{n-1}.
# Paper values: push trefoil = 1, push torus25 = 9, rotation = scan = -2
# (trefoil) and -6 (fig8), rotation + full-twist push = 0.  The rest were
# pinned from the seed code.  Every value is constant in a, so each
# polynomial is that constant.  Push torus27 at n=4 ({1: 42, 2: 42,
# 3: 42}) is left out: one 8 s loop cannot be timed steadily within a
# run, see README.md.
GRID = {
    ("push", "trefoil", 1, 2): ({1: 1}, "1"),
    ("push", "trefoil", 1, 3): ({1: 2, 2: 2}, "2"),
    ("push", "trefoil", 1, 4): ({1: 3, 2: 3, 3: 3}, "3"),
    ("push", "torus27", 2, 2): ({1: 18}, "18"),
    ("push", "torus27", 2, 3): ({1: 30, 2: 30}, "30"),
    ("push", "torus25", 2, 2): ({1: 9}, "9"),
    ("rotation", "trefoil", 1, 2): ({1: -2}, "-2"),
    ("scan", "trefoil", 1, 2): ({1: -2}, "-2"),
    ("full-twist", "trefoil", 1, 2): ({1: 2}, "2"),
    ("rotation", "fig8", -1, 2): ({1: -6}, "-6"),
    ("scan", "fig8", -1, 2): ({1: -6}, "-6"),
    ("full-twist", "fig8", -1, 2): ({1: 6}, "6"),
}
GRID_SMOKE = (("push", "trefoil", 1, 2), ("rotation", "trefoil", 1, 2))

# verify suite -> (params, checks per run).  cube and commutation run at
# their defaults; tetrahedron leaves out n=4 (630 of its 930 checks, 4 s),
# so that a run repeats each loop seven or more times, see README.md
DISCRIMINANT_SUITES = {"tetrahedron": ({"ns": (2, 3)}, 300),
                       "cube": (None, 1064), "commutation": (None, 90)}
DISCRIMINANT_SMOKE = {"tetrahedron": ({"ns": (2,)}, 60),
                      "commutation": ({"budget": 10}, 10)}

# suites-random: scan value of the first three cable fixtures (pinned from
# the seed code); every semi-regular variant must reproduce it exactly
SCAN_BASE = {"trefoil": {1: -2}, "torus25": {1: -18}, "fig8": {1: -6}}
ORACLE_SUITES = {"prop1": 4, "ckr-oracle": 22}
# 64 walks, not the verify default of 100, so that a run repeats each loop
# five or more times; the 20 variants per fixture are the scan-invariance
# suite's own, see README.md
RANDOM_SIZE = {"walks": 64, "variants": 20}
RANDOM_SMOKE = {"walks": 4, "variants": 1}


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    checks: int = 0           # checks counted by verify's suite reports
    problems: list = field(default_factory=list)


@dataclass
class Unit:
    label: str
    run: object               # callable(LoopClock) -> Outcome
    attempted: int            # what a unit that raises counts as failed


class LoopClock:
    """Per-loop samples (label, seconds, moves) of the current pass, and
    the machine-speed calibrations taken between loops.

    `calibrate()` runs at a unit start or loop end whenever `every_s`
    seconds have passed since the last one, so that the calibrations
    sample the whole run however its units are cut.  Its time is left out
    of every sample and added up in `paused_s`.
    """

    def __init__(self, calibrate, every_s):
        self.samples = []
        self.cal_s = []
        self.paused_s = 0.0
        self.missing = []
        self._calibrate = calibrate
        self._every_s = every_s
        self._last_cal = float("-inf")
        self._t = time.perf_counter()
        self._original = None

    def _resume_at(self, t):
        """Calibrate if one is due; the time to restart the loop timer at."""
        if t - self._last_cal < self._every_s:
            return t
        self.cal_s.append(self._calibrate())
        self._last_cal = time.perf_counter()
        self.paused_s += self._last_cal - t
        return self._last_cal

    def start(self):
        self._t = self._resume_at(time.perf_counter())

    def loop_done(self, label, moves):
        t = time.perf_counter()
        self.samples.append((label, t - self._t, moves))
        self._t = self._resume_at(t)

    def install(self):
        """Mark loop ends inside the verify suites."""
        fn = getattr(verify, "_check_loop_zero", None)
        if fn is None:
            self.missing.append("cocycle_lab.verify._check_loop_zero")
            return self

        def check_loop_zero(rep, movie, case):
            try:
                return fn(rep, movie, case)
            finally:
                self.loop_done(rep.name, len(movie.moves))

        self._original = fn
        verify._check_loop_zero = check_loop_zero
        return self

    def uninstall(self):
        if self._original is not None:
            verify._check_loop_zero = self._original
            self._original = None


def _values_problem(label, got, want):
    return None if got == want else f"{label}: {got} != pinned {want}"


def _grid_unit(key, words):
    kind, knot, w1, n = key
    label = f"{kind} {knot} w1={w1} n={n}"
    want, want_poly = GRID[key]
    tangle = list(range(1, n))

    def run(clock):
        movie = getattr(loops, PLANNERS[kind])(tangle, words[knot, w1], n)
        values = cocycle.evaluate_all(movie)
        poly = cocycle.polynomial_text(cocycle.interpolation_polynomial(values))
        clock.loop_done(label, len(movie.moves))
        out = Outcome(attempted=1)
        problem = (_values_problem(label, values, want)
                   or _values_problem(label + " polynomial", poly, want_poly))
        if problem:
            out.failed, out.problems = 1, [problem]
        return out

    return Unit(label, run, 1)


def _suite_unit(name, expected, params=None):
    def run(clock):
        before = len(clock.samples)
        rep = verify.run_suite(name, params=params)
        if len(clock.samples) == before and clock.missing:
            clock.loop_done(f"suite {name}", 0)   # no loop boundary hook
        out = Outcome(attempted=expected, checks=rep.checks)
        out.problems = [f"{name}: {f.case}: {f.detail}" for f in rep.failures]
        if rep.checks != expected:
            out.problems.append(f"{name}: {rep.checks} checks != pinned {expected}")
        out.failed = min(expected, len(rep.failures) + abs(rep.checks - expected))
        return out

    return Unit(f"suite {name}", run, expected)


def _scan_unit(fixture, variant_seed):
    name, tangle, text, n = fixture
    want = SCAN_BASE[name]
    label = f"scan {name}" + ("" if variant_seed is None else f" variant={variant_seed}")

    def run(clock):
        t2, x2 = tangle, text
        if variant_seed is not None:
            t2, x2 = verify.semi_regular_variant(tangle, text, variant_seed)
        movie = loops.scan_path(t2, x2, n)
        values = cocycle.evaluate_all(movie)
        clock.loop_done(label, len(movie.moves))
        problem = _values_problem(label, values, want)
        return Outcome(attempted=1, failed=int(bool(problem)),
                       problems=[problem] if problem else [])

    return Unit(label, run, 1)


def make_units(workload, seed, smoke=False):
    """The workload's units, in the order the seed gives them.

    The same seed gives the same units.  transport-grid and
    suites-discriminant have fixed inputs, so there the seed only sets the
    order; suites-random derives its walk seeds from it.
    smoke=True is the reduced size of the benchmark's own tests.
    """
    rng = random.Random(seed)
    if workload == "transport-grid":
        keys = GRID_SMOKE if smoke else tuple(GRID)
        words = {(k, w1): cabling.normalize_w1(KNOTS[k], w1)
                 for _, k, w1, _ in keys}
        units = [_grid_unit(key, words) for key in keys]
    elif workload == "suites-discriminant":
        suites = DISCRIMINANT_SMOKE if smoke else DISCRIMINANT_SUITES
        units = [_suite_unit(name, expected, params)
                 for name, (params, expected) in suites.items()]
    elif workload == "suites-random":
        size = RANDOM_SMOKE if smoke else RANDOM_SIZE
        hosts = verify.corpus_diagrams()
        # the suite walks on host seed % len(hosts): take every host equally
        walks = [len(hosts) * rng.randrange(2 ** 28) + i % len(hosts)
                 for i in range(size["walks"])]
        expected = sum(hosts[s % len(hosts)][1].n - 1 for s in walks)
        units = [_suite_unit("contractible", expected, {"seeds": walks})]
        for fixture in verify.CABLE_FIXTURES[:3]:
            units.append(_scan_unit(fixture, None))
            # the scan-invariance suite's variant seeds; seed-drawn
            # variants vary so much in size that loop_tail_ms followed
            # the workload seed (spread 0.23 over ten seeds)
            units += [_scan_unit(fixture, s * 31 + 7)
                      for s in range(size["variants"])]
        units += [_suite_unit(name, expected)
                  for name, expected in ORACLE_SUITES.items()]
    else:
        raise ValueError(f"unknown workload {workload!r}; choices: {WORKLOADS}")
    rng.shuffle(units)
    return units

