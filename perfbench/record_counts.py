"""Record the traced per-layer counts of every workload at seed 0.

    python3 perfbench/record_counts.py

Writes perfbench/counts-seed0.json: for each workload, every
per-layer metric whose unit is a count, from one full-size traced pass.
The counts repeat exactly at a given seed, so a later change in work
done (validations per loop, moves attempted) shows as a diff of this
file.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run        # noqa: E402
import workloads  # noqa: E402


def main():
    out = {}
    for w in workloads.WORKLOADS:
        result, info = run.measure(w, 0, 1, True)
        if not result["correct"]:
            sys.exit(f"{w}: outputs differ from the pinned values: {info['problems']}")
        out[w] = {k: m["value"] for k, m in result["metrics"].items()
                  if m["unit"] == "count"}
    path = os.path.join(HERE, "counts-seed0.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print(path)


if __name__ == "__main__":
    main()
