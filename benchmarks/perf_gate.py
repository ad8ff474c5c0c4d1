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
  shorter times are timing noise.  Layer times are compared in
  reference seconds: each raw time is scaled by perfbench's
  ``REFERENCE_S`` over the median of the report's machine-speed probes
  (``notes.speed_probes_s``), as perfbench scales its end-to-end
  times, so a slow period on the host neither trips nor masks the
  rule.  A report without probes fails.

A baselined counter or layer the report lacks fails too.  Exits 1 on
any failure.
"""

import importlib.util
import json
import math
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(HERE, "perf_baseline.json")
_calibrate = importlib.util.spec_from_file_location(
    "calibrate", os.path.join(os.path.dirname(HERE), "perfbench", "calibrate.py"))
calibrate = importlib.util.module_from_spec(_calibrate)
_calibrate.loader.exec_module(calibrate)
#: Probe time that perfbench's scaled durations are expressed against.
REFERENCE_S = calibrate.REFERENCE_S
#: Layer times at or under this many seconds never fail the gate.
FLOOR_S = 0.05
#: Largest tolerated ratio of a layer's time to its baseline.
MAX_SLOWDOWN = 2.0


def check(report, baseline):
    """One message per failure of ``report`` against ``baseline``
    (``{workload: {"counters": {name: count}, "layers_s": {layer:
    reference seconds}}}``); empty when the report passes."""
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
    probes = report.get("notes", {}).get("speed_probes_s")
    if not probes:
        failures.append(f"{workload}: no machine-speed probes (notes.speed_probes_s), "
                        "so layer times cannot be scaled to reference seconds")
        return failures
    scale = REFERENCE_S / statistics.median(probes)
    for layer, base_s in sorted(baseline[workload]["layers_s"].items()):
        if layer not in layers:
            failures.append(f"{workload}/{layer}: missing from the report")
            continue
        seconds = layers[layer] * scale
        slowdown = seconds / max(base_s, FLOOR_S)
        if seconds > FLOOR_S and slowdown > MAX_SLOWDOWN:
            failures.append(f"{workload}/{layer}: {seconds:.3f} reference s is "
                            f"{slowdown:.2f}x the baseline {base_s:.3f}s "
                            f"(limit {MAX_SLOWDOWN}x)")
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
