"""Span tracing of cocycle_lab's public functions, from outside the library.

A Tracer wraps each hooked function or method at its public call
boundary.  Every call records a span (layer, start, end, parent span);
the spans stay in memory until the run ends.  Per layer the tracer
reports calls, self time (span time minus the time of its child spans)
and, where the call can raise, failed calls.

Names bound with `from ... import` are patched in every importing
module too, so a call through `verify.evaluate` still reaches the
wrapper.  A hook whose target no longer exists is reported as missing
and skipped; it never raises.  Very hot leaf helpers such as
`GaussDiagram.in_open_arc` are deliberately left unwrapped, since the
wrapper's own cost would skew their callers' self times.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from array import array

MOVE_TYPES = ("R1Create", "R1Delete", "R2Create", "R2Delete", "R3",
              "Exchange", "RayShift", "Rearrange")

# (layer, module, attribute path); one layer may span several targets
HOOKS = (
    ("annular.validate", "cocycle_lab.annular", "AnnularDiagram.validate"),
    ("cocycle.evaluate", "cocycle_lab.cocycle", "evaluate"),
    ("cocycle.classify_r3", "cocycle_lab.cocycle", "classify_r3"),
    ("cocycle.counts", "cocycle_lab.cocycle", "w2_p"),
    ("cocycle.counts", "cocycle_lab.cocycle", "w2_hm"),
    ("cocycle.counts", "cocycle_lab.cocycle", "l_p"),
    ("cocycle.interpolation_polynomial", "cocycle_lab.cocycle",
     "interpolation_polynomial"),
    ("gauss.markings", "cocycle_lab.gauss", "GaussDiagram.markings"),
    ("gauss.match_n0_pairs", "cocycle_lab.gauss", "match_n0_pairs"),
    *(("moves.apply", "cocycle_lab.moves", f"{t}.apply") for t in MOVE_TYPES),
    ("moves.canonical_gauss_key", "cocycle_lab.moves", "canonical_gauss_key"),
    ("loops.plan", "cocycle_lab.loops", "push_loop"),
    ("loops.plan", "cocycle_lab.loops", "rotation_loop"),
    ("loops.plan", "cocycle_lab.loops", "push_full_twist_loop"),
    ("loops.plan", "cocycle_lab.loops", "scan_path"),
    ("discriminant.hosts", "cocycle_lab.discriminant", "quad_host"),
    ("discriminant.hosts", "cocycle_lab.discriminant", "tangency_host"),
    ("discriminant.hosts", "cocycle_lab.discriminant",
     "embedded_tangency_loops"),
    ("discriminant.random_contractible_loop", "cocycle_lab.discriminant",
     "random_contractible_loop"),
    ("oracle.conway", "cocycle_lab.oracle", "conway"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in HOOKS))

# layers whose calls raise on bad input; they also report `.failed`
RAISING = ("annular.validate", "cocycle.evaluate", "cocycle.classify_r3",
           "moves.apply", "loops.plan", "discriminant.hosts",
           "oracle.conway")


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = "count"
        out[f"{layer}.self_s"] = "s"
        if layer in RAISING:
            out[f"{layer}.failed"] = "count"
        if layer == "moves.apply":
            out["moves.apply.useful_ratio"] = "ratio"
            for t in MOVE_TYPES:
                out[f"moves.apply.calls.{t}"] = "count"
    out["verify.checks"] = "count"
    out["trace_overhead_s"] = "s"
    return out


def _resolve(module_name, path):
    """(owner, attribute name, original) or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, name = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not inspect.isclass(owner):
        fn = getattr(owner, name, None)
    else:
        fn = owner.__dict__.get(name)
    if not callable(fn):
        return None
    return owner, name, fn


class Tracer:
    """Collects spans and per-layer counters while installed."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.layer_ids = {}
        # spans as columns: layer id, start, end, parent span index (-1
        # at top level); arrays keep them out of the garbage collector's way
        self._columns = (array("i"), array("d"), array("d"), array("l"))
        self.calls = {}        # hooked target -> calls
        self.failed = {}       # hooked target -> calls that raised
        self.missing = []
        self._stack = []
        self._patched = []     # (owner, name, original)

    # -- installation ------------------------------------------------------

    def install(self):
        for layer, module_name, path in self.hooks:
            self.layer_ids.setdefault(layer, len(self.layer_ids))
            target = _resolve(module_name, path)
            if target is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            owner, name, fn = target
            wrapper = self._wrap(self.layer_ids[layer], f"{module_name}.{path}", fn)
            if inspect.isclass(owner):
                self._patch(owner, name, fn, wrapper)
            else:
                # the defining module and every module that imported the name
                for mod in self._modules():
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, attr, fn, wrapper)
        return self

    def uninstall(self):
        for owner, name, fn in reversed(self._patched):
            setattr(owner, name, fn)
        self._patched.clear()

    def _modules(self):
        return [mod for name, mod in list(sys.modules.items())
                if name == "cocycle_lab" or name.startswith("cocycle_lab.")]

    def _patch(self, owner, name, fn, wrapper):
        self._patched.append((owner, name, fn))
        setattr(owner, name, wrapper)

    def _wrap(self, layer_id, key, fn):
        ids, starts, ends, parents = self._columns
        stack = self._stack
        calls, failed = self.calls, self.failed
        calls[key] = failed[key] = 0
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # one call, one span per resumption of the generator
            def wrapper(*args, **kwargs):
                calls[key] += 1
                gen = fn(*args, **kwargs)
                while True:
                    idx = len(ids)
                    ids.append(layer_id)
                    parents.append(stack[-1] if stack else -1)
                    stack.append(idx)
                    starts.append(clock())
                    ends.append(0.0)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    except BaseException:
                        failed[key] += 1
                        raise
                    finally:
                        ends[idx] = clock()
                        stack.pop()
                    yield item
        else:
            def wrapper(*args, **kwargs):
                calls[key] += 1
                idx = len(ids)
                ids.append(layer_id)
                parents.append(stack[-1] if stack else -1)
                stack.append(idx)
                starts.append(clock())
                ends.append(0.0)
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    failed[key] += 1
                    raise
                finally:
                    ends[idx] = clock()
                    stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------

    @property
    def spans(self):
        """(layer id, start, end, parent span index) per span."""
        return list(zip(*self._columns))

    def self_times(self):
        """Self seconds per layer id: span time minus child span time."""
        ids, starts, ends, parents = self._columns
        total = [0.0] * len(self.layer_ids)
        for layer_id, t0, t1, parent in zip(ids, starts, ends, parents):
            dur = t1 - t0
            total[layer_id] += dur
            if parent >= 0:
                total[ids[parent]] -= dur
        return total

    def layer_metrics(self):
        """Per-layer values by metric name (without verify.checks and the
        tracing overhead, which the runner adds)."""
        self_s = self.self_times()
        calls, failed = {}, {}
        for layer, module_name, path in self.hooks:
            target = f"{module_name}.{path}"
            calls[layer] = calls.get(layer, 0) + self.calls.get(target, 0)
            failed[layer] = failed.get(layer, 0) + self.failed.get(target, 0)
        out = {}
        for layer, lid in self.layer_ids.items():
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[lid]
            if layer in RAISING:
                out[f"{layer}.failed"] = failed[layer]
            if layer == "moves.apply":
                n = calls[layer]
                out["moves.apply.useful_ratio"] = (n - failed[layer]) / n if n else 0.0
                for t in MOVE_TYPES:
                    out[f"moves.apply.calls.{t}"] = self.calls.get(
                        f"cocycle_lab.moves.{t}.apply", 0)
        return out

    def uncalled(self):
        """Hooked targets that no call reached."""
        return [target for target, n in self.calls.items() if n == 0]

    def dump(self, path):
        """Write every span, gzip-compressed JSON, for offline analysis."""
        names = sorted(self.layer_ids, key=self.layer_ids.get)
        spans = self.spans
        base = spans[0][1] if spans else 0.0
        payload = {
            "layers": names,
            "columns": ["layer", "start_s", "end_s", "parent"],
            "spans": [[lid, round(t0 - base, 7), round(t1 - base, 7), parent]
                      for lid, t0, t1, parent in spans],
            "missing": self.missing,
        }
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump(payload, f, separators=(",", ":"))
