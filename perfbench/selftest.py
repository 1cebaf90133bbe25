"""The benchmark's own tests, run at the reduced smoke size.

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default pytest run.  The
smoke size exists only here; reported numbers always use the full size.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run        # noqa: E402
import tracing    # noqa: E402
import workloads  # noqa: E402

from cocycle_lab import cocycle, verify  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _counters(result):
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] == "count"}


def test_traced_counts_repeat_at_the_same_seed():
    for w in workloads.WORKLOADS:
        first, _ = run.measure(w, 7, 1, True, smoke=True)
        second, _ = run.measure(w, 7, 1, True, smoke=True)
        assert first["correct"] and second["correct"], w
        assert _counters(first) == _counters(second), w
        assert first["metrics"]["moves.apply.calls"]["value"] > 0, w


def test_untraced_run_reports_every_end_to_end_metric():
    spec = _spec()
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in workloads.WORKLOADS:
        result, info = run.measure(w, 3, 1, False, smoke=True)
        assert result["correct"], info["problems"]
        assert result["failed"] == 0 and result["attempted"] > 0
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        assert got == want, w
        assert all(m["value"] > 0 for m in result["metrics"].values()), w
        wall = info["measured_wall_s"] * info["speed_scale"]
        assert abs(result["metrics"]["wall_s"]["value"] - wall) <= 1e-9 * wall, w


def test_traced_run_reports_every_per_layer_metric():
    want = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert want == tracing.per_layer_units()
    result, info = run.measure("suites-random", 3, 1, True, smoke=True)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert info["missing_hooks"] == []


def _run_with_pinned(key, pinned):
    original = workloads.GRID[key]
    workloads.GRID[key] = pinned
    try:
        return run.measure("transport-grid", 0, 1, False, smoke=True)
    finally:
        workloads.GRID[key] = original


def test_a_wrong_value_fails_the_run():
    key = ("push", "trefoil", 1, 2)
    values, poly = workloads.GRID[key]
    result, info = _run_with_pinned(key, ({1: values[1] + 1}, poly))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("push trefoil" in p for p in info["problems"])


def test_a_wrong_polynomial_fails_the_run():
    key = ("push", "trefoil", 1, 2)
    values, _ = workloads.GRID[key]
    result, info = _run_with_pinned(key, (values, "a"))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("push trefoil" in p and "polynomial" in p
               for p in info["problems"])


def test_imported_names_are_patched_and_restored():
    original = cocycle.evaluate
    tracer = tracing.Tracer().install()
    try:
        assert verify.evaluate is cocycle.evaluate is not original
        assert cocycle.evaluate.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert verify.evaluate is cocycle.evaluate is original


def test_missing_hook_is_reported_not_raised():
    hooks = (("cocycle.gone", "cocycle_lab.cocycle", "no_such_function"),
             ("annular.gone", "cocycle_lab.annular", "NoSuchClass.validate"),
             ("nowhere.gone", "cocycle_lab.no_such_module", "f"))
    tracer = tracing.Tracer(hooks=hooks).install()
    tracer.uninstall()
    assert tracer.missing == ["cocycle_lab.cocycle.no_such_function",
                              "cocycle_lab.annular.NoSuchClass.validate",
                              "cocycle_lab.no_such_module.f"]
    assert tracer.layer_metrics()["cocycle.gone.calls"] == 0


def test_recorded_counts_cover_every_layer():
    with open(os.path.join(HERE, "counts-seed0.json")) as f:
        recorded = json.load(f)
    assert sorted(recorded) == sorted(workloads.WORKLOADS)
    for layer in tracing.LAYERS:
        assert any(counts[f"{layer}.calls"] > 0
                   for counts in recorded.values()), layer


def test_exits_nonzero_without_the_library():
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "transport-grid",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except Exception as exc:  # report every test, then fail overall
                failures += 1
                print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failures else 0)
