"""cocycle-lab benchmark: one entry command for every workload.

    python3 perfbench/run.py --workload transport-grid --seed 0 --seconds 40 --trace 0

--seconds defaults to `run_seconds` in BENCHMARK.json.  Run it from
anywhere; it finds the library under `src/` next to this
directory and fails with exit status 2, printing no result, when the
source is missing.  With --trace 0 it measures the end-to-end metrics:
set-up time in fresh processes, then whole passes of the workload until
the next one would end past --seconds (at least one).  With --trace 1 it
alternates untraced and traced passes for --seconds and reports the
per-layer metrics; the spans go to .perfbench/ in the checkout.  Every
metric is printed by name with its unit, and the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Outputs that differ from the pinned values make the exit status 1.

Times are reported at a reference speed: each is scaled by CAL_REF_S over
the time of a fixed calibration kernel run alongside it (`speed_scale`),
so that the machine's changes of speed cancel out.  The measured wall
time and the scale are printed as `info` lines.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 5
CAL_REF_S = 0.005     # the calibration kernel's time at the reference speed
CAL_REPEATS = 3
CAL_EVERY_S = 0.2     # least time between two calibrations within a pass
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "moves_per_s": "1/s",
                    "loop_p50_ms": "ms", "loop_tail_ms": "ms",
                    "peak_rss_mb": "MB"}


@dataclass
class PassResult:
    unit_s: list = field(default_factory=list)    # seconds per unit
    rest_s: list = field(default_factory=list)    # unit time outside loops
    samples: list = field(default_factory=list)   # (label, seconds, moves)
    attempted: int = 0
    failed: int = 0
    checks: int = 0
    problems: list = field(default_factory=list)
    cal_s: list = field(default_factory=list)     # calibrations in the pass


def _kernel():
    """Fixed pure-Python work of the library's kind (tuples, dicts,
    integer arithmetic) that calls nothing in the library.  Its dict stays
    small, so that it does not raise the process's peak memory."""
    counts = {}
    acc = 0
    for i in range(20000):
        key = (i & 63, i * 7 % 13)
        counts[key] = counts.get(key, 0) + 1
        acc += len(counts) & 3
    return acc


def calibrate():
    """The kernel's best time over CAL_REPEATS runs: the speed of the
    machine at this moment."""
    best = float("inf")
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def speed_scale(cal_s, passes):
    """Factor from measured seconds to seconds at the reference speed.

    The machine's speed moves by up to 2x in phases of seconds to minutes,
    which best-of timings within one run cannot remove.  A loop's best of
    `passes` times lies near the 1/(passes + 1) quantile of its times, so
    the calibration is read at that same quantile of the run's calibration
    times: both then see the same share of the machine's fast moments.
    The kernel does not depend on the library, so a change in the library
    shows in full."""
    return CAL_REF_S / sorted(cal_s)[int(len(cal_s) / (passes + 1))]


def _setup(workload, seed, smoke=False):
    """Import the library and build the workload's inputs: the set-up."""
    import workloads
    return workloads.make_units(workload, seed, smoke)


def run_pass(units, clock):
    """Run every unit once; a full collection before each one, untimed, so
    each starts from the same heap state.  The clock calibrates between
    loops; that time is left out of the unit's time."""
    import workloads
    res = PassResult()
    clock.samples, clock.cal_s = res.samples, res.cal_s
    for unit in units:
        gc.collect()
        clock.start()
        t0 = time.perf_counter()
        paused = clock.paused_s
        first = len(res.samples)
        try:
            out = unit.run(clock)
        except Exception as exc:  # a failing unit is counted, the pass goes on
            out = workloads.Outcome(attempted=unit.attempted,
                                    failed=unit.attempted,
                                    problems=[f"{unit.label}: {exc!r}"])
        res.unit_s.append(time.perf_counter() - t0 - (clock.paused_s - paused))
        res.rest_s.append(res.unit_s[-1] - sum(t for _, t, _ in res.samples[first:]))
        res.attempted += out.attempted
        res.failed += out.failed
        res.checks += out.checks
        res.problems += out.problems
    return res


def best_of(passes, per_pass):
    """Each item's best time over the passes: the machine's speed also
    changes within seconds, and the fastest repeat is the one least
    disturbed by that."""
    return [min(ts) for ts in zip(*(per_pass(p) for p in passes))]


def _percentile(sorted_values, p):
    """Nearest-rank percentile."""
    k = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(k) - 1]


def loop_tail(passes, loop_s):
    """(milliseconds, label): the highest percentile with at least ten
    loops beyond it, or the slowest loop when there are too few loops."""
    times = sorted(loop_s)
    for pct in TAIL_PERCENTILES:
        if len(times) * (100 - pct) / 100 >= 10:
            return (_percentile(times, pct) * 1000,
                    f"p{pct:g} of {len(times)} loops, best of {len(passes)} passes")
    slowest = max(range(len(loop_s)), key=loop_s.__getitem__)
    return (loop_s[slowest] * 1000,
            f"slowest loop ({passes[0].samples[slowest][0]}), "
            f"best of {len(passes)} passes")


def setup_probe(workload, seed):
    """Set-up time (import + inputs) of one fresh process, at the
    reference speed as that process measured it just before."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    setup_s, cal_s = map(float, proc.stdout.split())
    return setup_s * CAL_REF_S / cal_s


def run_metadata(workload, seed, trace):
    """Facts printed with the metrics; `src_loc` is informational only."""
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as f:
            ref = f.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_file):
                with open(ref_file) as f:
                    commit = f.read().strip()
    src_loc = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "cocycle_lab")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as f:
                    src_loc += sum(1 for _ in f)
    return {"workload": workload, "seed": seed, "trace": trace,
            "commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "src_loc": src_loc}


def measure(workload, seed, seconds, trace, smoke=False):
    """Run the benchmark in this process; returns (result, info).

    result holds the keys of the printed JSON line; info holds what is
    printed only as text (metadata, failed_frac, labels, missing hooks).
    smoke=True, the reduced size of the benchmark's own tests, also takes
    a single set-up probe.
    """
    import workloads
    info = {"meta": run_metadata(workload, seed, trace)}
    units = _setup(workload, seed, smoke)
    clock = workloads.LoopClock(calibrate, CAL_EVERY_S).install()
    try:
        if trace:
            passes, metrics = _traced(units, clock, workload, seed, seconds,
                                      info)
        else:
            passes, metrics = _timed(units, clock, workload, seed, seconds,
                                     1 if smoke else SETUP_PROBES, info)
    finally:
        clock.uninstall()
    info["missing_hooks"] = info.get("missing_hooks", []) + clock.missing
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    info["passes"] = len(passes)
    info["failed_frac"] = failed / attempted if attempted else 1.0
    info["problems"] = [q for p in passes for q in p.problems]
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, info


def _timed(units, clock, workload, seed, seconds, probes, info):
    """Whole passes until the next one would end past `seconds`.  Set-up
    probes run before the first pass and one after each further pass, so
    their median spans the run."""
    setup = [setup_probe(workload, seed) for _ in range(probes)]
    passes = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(units, clock))
        spent = time.perf_counter() - t0
        if time.perf_counter() - t_start + spent > seconds:
            break
        setup.append(setup_probe(workload, seed))
    info["setup_samples_s"] = setup
    return passes, _end_to_end(passes, statistics.median(setup), info)


def pass_wall(passes):
    """One full pass from the best times: each loop's best over the
    passes, plus the best time each unit spends outside its loops."""
    loop_s = best_of(passes, lambda p: [t for _, t, _ in p.samples])
    return sum(loop_s) + sum(best_of(passes, lambda p: p.rest_s))


def _end_to_end(passes, setup_s, info):
    """End-to-end values from the passes, at the reference speed; loop
    percentiles are over each loop's best time."""
    scale = speed_scale([c for p in passes for c in p.cal_s], len(passes))
    loop_s = [t * scale for t in
              best_of(passes, lambda p: [t for _, t, _ in p.samples])]
    wall = pass_wall(passes) * scale
    info["speed_scale"] = scale
    info["measured_wall_s"] = pass_wall(passes)
    moves = sum(m for _, _, m in passes[0].samples)
    tail_ms, info["loop_tail"] = loop_tail(passes, loop_s)
    info["pass_wall_s"] = [sum(p.unit_s) for p in passes]
    info["loops_per_pass"] = len(loop_s)
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "moves_per_s": moves / wall,
        "loop_p50_ms": statistics.median(loop_s) * 1000,
        "loop_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _traced(units, clock, workload, seed, seconds, info):
    """Untraced and traced passes in turn until the next pair would end
    past `seconds` (at least one pair).  Counts come from the first traced
    pass and repeat exactly in the others; self times are each layer's
    best over the traced passes; the overhead compares the two kinds of
    pass, each summed from best times as for `wall_s`.  Times are at the
    reference speed."""
    import tracing
    untraced, traced, layer_values = [], [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.append(run_pass(units, clock))
        tracer = tracing.Tracer().install()
        try:
            traced.append(run_pass(units, clock))
        finally:
            tracer.uninstall()
        layer_values.append(tracer.layer_metrics())
        if len(traced) == 1:
            first = tracer
        spent = time.perf_counter() - t0
        if time.perf_counter() - t_start + spent > seconds:
            break
    scale = speed_scale([c for p in untraced + traced for c in p.cal_s],
                        len(traced))
    values = dict(layer_values[0])
    for name in values:
        if name.endswith(".self_s"):
            values[name] = min(v[name] for v in layer_values) * scale
    values["verify.checks"] = traced[0].checks
    values["trace_overhead_s"] = (pass_wall(traced) - pass_wall(untraced)) * scale
    counts = [{k: v for k, v in lv.items() if not k.endswith(".self_s")}
              for lv in layer_values]
    info["counts_repeat"] = all(c == counts[0] for c in counts)
    info["speed_scale"] = scale
    info["untraced_wall_s"] = pass_wall(untraced) * scale
    info["traced_wall_s"] = pass_wall(traced) * scale
    info["missing_hooks"] = list(first.missing)
    info["uncalled_hooks"] = first.uncalled()
    info["spans"] = len(first.spans)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json.gz")
    first.dump(path)
    info["trace_file"] = os.path.relpath(path, ROOT)
    metrics = {k: {"value": values.get(k, 0), "unit": u}
               for k, u in tracing.per_layer_units().items()}
    return untraced + traced, metrics


def _print_report(result, info):
    print(f"meta {json.dumps(info['meta'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    for key in ("passes", "failed_frac", "loop_tail", "loops_per_pass",
                "speed_scale", "measured_wall_s", "pass_wall_s",
                "setup_samples_s", "untraced_wall_s", "traced_wall_s",
                "counts_repeat", "spans", "trace_file", "missing_hooks",
                "uncalled_hooks"):
        if key in info:
            print(f"info {key} = {json.dumps(info[key])}")
    for problem in info["problems"]:
        print(f"MISMATCH {problem}")


def _run_seconds():
    """The run length set in BENCHMARK.json, the default for --seconds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return float(json.load(f)["run_seconds"])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=_run_seconds())
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "cocycle_lab")):
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        cal_s = calibrate()
        t0 = time.perf_counter()
        _setup(args.workload, args.seed)
        print(repr(time.perf_counter() - t0), repr(cal_s))
        return 0
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choices: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    result, info = measure(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    _print_report(result, info)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
