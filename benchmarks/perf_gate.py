#!/usr/bin/env python3
"""Counter and wall-time gate on traced perfbench reports.

    python3 benchmarks/perf_gate.py \\
        .perfbench/report-table1-small-seed1-trace.json \\
        .perfbench/report-large-phased-seed1-trace.json

Each report must come from a traced run (``perfbench/run.py --trace 1``)
of a workload that ``benchmarks/perf_baseline.json`` covers.  The
baseline holds, per workload, ``counters`` and ``layers_s``:

* A deterministic counter (matches, unions, classes visited, peak
  nodes, emitted instructions, phase rounds ...) fails when it differs
  from its committed value.  These counts do not depend on the host,
  so any difference is a change in what the compiler did.  A report
  holds per-pass averages, so float rounding is tolerated.
* A layer time fails when it took more than 50 ms and more than twice
  its committed baseline, a baseline under 50 ms counting as 50 ms:
  shorter times are timing noise.  Layer times are raw wall times, so
  this rule is only a loose backstop against a slow host.

A baselined counter or layer the report lacks fails too.  Exits 1 on
any failure.
"""

import json
import math
import os
import sys

BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "perf_baseline.json")
#: Layer times at or under this many seconds never fail the gate.
FLOOR_S = 0.05
#: Largest tolerated ratio of a layer's time to its baseline.
MAX_SLOWDOWN = 2.0


def check(report, baseline):
    """One message per failure of ``report`` against ``baseline``
    (``{workload: {"counters": {name: count}, "layers_s": {layer:
    seconds}}}``); empty when the report passes."""
    workload = report.get("workload")
    if not report.get("trace"):
        return [f"{workload}: untraced report; gate a --trace 1 run"]
    if workload not in baseline:
        return [f"{workload}: no baseline for this workload"]
    layers = report.get("per_layer", {})
    failures = []
    for name, expected in sorted(baseline[workload]["counters"].items()):
        if name not in layers:
            failures.append(f"{workload}/{name}: missing from the report")
        elif not math.isclose(layers[name], expected, rel_tol=1e-9, abs_tol=1e-9):
            failures.append(f"{workload}/{name}: {layers[name]:g} differs from "
                            f"the committed {expected} (counters must match exactly)")
    for layer, base_s in sorted(baseline[workload]["layers_s"].items()):
        if layer not in layers:
            failures.append(f"{workload}/{layer}: missing from the report")
            continue
        seconds = layers[layer]
        slowdown = seconds / max(base_s, FLOOR_S)
        if seconds > FLOOR_S and slowdown > MAX_SLOWDOWN:
            failures.append(f"{workload}/{layer}: {seconds:.3f}s is {slowdown:.2f}x "
                            f"the baseline {base_s:.3f}s (limit {MAX_SLOWDOWN}x)")
    return failures


def main(paths):
    with open(BASELINE) as handle:
        baseline = json.load(handle)
    failures = [] if paths else ["no reports given"]
    for path in paths:
        with open(path) as handle:
            failures += check(json.load(handle), baseline)
    for message in failures:
        print(f"GATE FAIL: {message}", file=sys.stderr)
    if failures:
        return 1
    print(f"perf gate: ok ({len(paths)} reports)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
