#!/usr/bin/env python3
"""The benchmark's own test: peak RSS must not depend on run length.

    python3 perfbench/selfcheck.py

`build` and `fix` run every op under a fresh obs::Context, so nothing an op
records outlives it. This runs each of them for N and for 2N ops (default
seed) and requires peak_rss_mb to agree within its BENCHMARK.json bound, and
both runs to be correct. `query` is left out on purpose: serve keeps one
root span per batch in the process-wide collector, so its peak RSS grows
with the number of batches (see README.md, known gaps).
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

OPS = {"build": 10, "fix": 550}  # two passes of 5 images; ten passes of 55 objects


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "peak_rss_mb")
    command = spec["command"]
    ref_nominal_ms = command[command.index("--ref-nominal-ms") + 1]
    program, inputs = run.setup(2025, float(ref_nominal_ms))
    failures = 0
    for workload, n in OPS.items():
        rss = []
        for ops in (n, 2 * n):
            args = run.parse_args(["--workload", workload, "--seconds", "600",
                                   "--ref-nominal-ms", ref_nominal_ms])
            result = run.measure(program, inputs, args, ["--ops", str(ops)])
            if not result["correct"] or result["failed"] or result["attempted"] != ops:
                print("FAIL %s at %d ops: %s" % (workload, ops, json.dumps(result)))
                failures += 1
            rss.append(result["metrics"]["peak_rss_mb"]["value"])
        growth = (rss[1] - rss[0]) / rss[0]
        ok = abs(growth) <= bound
        failures += 0 if ok else 1
        print("%s %s: peak_rss_mb %.1f at %d ops, %.1f at %d ops (%+.1f%%, bound %.0f%%)"
              % ("ok  " if ok else "FAIL", workload, rss[0], n, rss[1], 2 * n,
                 100 * growth, 100 * bound))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
