#!/usr/bin/env python3
"""Benchmark of the Diospyros compiler as it is used.

    python3 perfbench/run.py --workload table1-small --seed 1 --seconds 25 --trace 0

Workloads (see ``perfbench/layers.json`` for why each was chosen and
which metric each layer should move):

* ``table1-small`` / ``large-phased``: one caller compiles a kernel
  list in process through ``compile_spec``, pass after pass;
* ``served-mix``: an open loop through the compile gateway, the forked
  compile service and the artifact cache.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run, and the spans go to ``.perfbench/spans-*.json``.  The
full report (per-kernel fingerprints, cycles, naive cycles, provenance)
goes to ``.perfbench/report-*.json``.  Every emitted program is
simulated on seeded inputs and compared with the kernel's Python
reference; a wrong, unvalidated or degraded program makes the command
exit with status 1.  Run it from the repository root; it reads and
writes only below that directory.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

from calibrate import REFERENCE_S, probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("table1-small", "large-phased", "served-mix")
#: Extra set-ups, each in a fresh interpreter, whose median with this
#: process's own set-up is reported as ``setup_s``; each is scaled by
#: the machine-speed probes taken just before and after it.
SETUP_REPEATS = 4


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="measure one set-up, print it as JSON, and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no compiler sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Worker stderr scratch files and cache temp files stay in the checkout.
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp

    probe_before = probe()
    import_start = time.perf_counter()
    import common
    import inprocess
    import served
    from spans import Tracer

    import_s = time.perf_counter() - import_start
    tracer = Tracer()

    def do_setup(traced: bool):
        span_tracer = tracer if traced else None
        if args.workload == "served-mix":
            return served.setup(args.seed, span_tracer)
        return inprocess.setup(inprocess.KERNELS[args.workload], args.seed, span_tracer)

    def scaled_setup(result) -> float:
        speed = (probe_before + probe()) / 2
        return (import_s + result.seconds) * REFERENCE_S / speed

    if args.setup_only:
        print(json.dumps({"setup_s": scaled_setup(do_setup(False))}))
        return 0

    setups = [_setup_in_subprocess(args) for _ in range(SETUP_REPEATS)]
    own = do_setup(bool(args.trace))
    setups.append(scaled_setup(own))

    if args.workload == "served-mix":
        outcome = served.run(args.seed, args.seconds, bool(args.trace), tracer, own, WORK)
    else:
        outcome = inprocess.run(inprocess.KERNELS[args.workload], args.seed,
                                args.seconds, bool(args.trace), tracer, own)

    layers = _load_layers()
    end_to_end = {
        "setup_s": statistics.median(setups),
        "suite_s": outcome.end_to_end["suite_s"],
        "compile_ms_geomean": outcome.end_to_end["compile_ms_geomean"],
        "speedup_geomean": common.speedup_geomean(outcome.kernels),
        "ok_frac": 1.0 - outcome.failed / max(1, outcome.attempted),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latency_p50_ms": common.percentile(outcome.samples_ms, 0.5),
        "latency_p90_ms": common.percentile(outcome.samples_ms, 0.9),
    }
    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": _provenance(args.seed),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "untrusted": outcome.untrusted,
        "failures": outcome.failures,
        "samples": len(outcome.samples_ms),
        "samples_beyond_p90": sum(1 for v in outcome.samples_ms
                                  if v > end_to_end["latency_p90_ms"]),
        "passes": outcome.passes,
        "setup_runs_s": setups,
        "kernels": outcome.kernels,
        "end_to_end": end_to_end,
        "per_layer": outcome.per_layer,
        "notes": outcome.notes,
        "map": layers,
    }
    with open(os.path.join(WORK, f"report-{tag}.json"), "w") as handle:
        json.dump(report, handle, indent=2, default=str)
        handle.write("\n")
    if args.trace:
        tracer.write(os.path.join(WORK, f"spans-{tag}.json"))

    _print_report(report)
    if args.trace:
        wanted = layers["per_layer"]
        metrics = {name: {"value": float(outcome.per_layer.get(name, 0.0)),
                          "unit": spec["unit"]} for name, spec in wanted.items()}
    else:
        wanted = layers["end_to_end"]
        metrics = {name: {"value": float(end_to_end[name]), "unit": spec["unit"]}
                   for name, spec in wanted.items()}
    # A metric that could not be measured (e.g. every compile of a kernel
    # raised) must not pass as a number.
    measured = all(math.isfinite(m["value"]) for m in metrics.values())
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = 0.0
    correct = outcome.untrusted == 0 and measured
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


def _setup_in_subprocess(args) -> float:
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up run failed: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _load_layers():
    with open(os.path.join(HERE, "layers.json")) as handle:
        return json.load(handle)


def _provenance(seed: int):
    from repro.service.cache import code_fingerprint

    try:
        # The ceiling keeps git from reporting an enclosing repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "git_commit": commit,
        "source_digest": code_fingerprint(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def _print_report(report) -> None:
    print(f"perfbench {report['workload']} seed {report['seed']} "
          f"({report['provenance']['python']}, nproc {report['provenance']['nproc']}, "
          f"commit {report['provenance']['git_commit'] or 'n/a'}, "
          f"source {report['provenance']['source_digest']})")
    for row in report["kernels"]:
        print(f"  {row['kernel']:<20} median {row['median_ms']:9.2f} ms  "
              f"cycles {row['cycles']}  naive {row['naive_cycles']}  "
              f"fingerprint {row['fingerprint']}  correct {row['correct']}")
    print(f"  {report['attempted']} attempted, {report['failed']} failed, "
          f"{report['samples']} latency samples ({report['samples_beyond_p90']} beyond p90), "
          f"{report['passes']} untraced passes, set-ups {[round(s, 3) for s in report['setup_runs_s']]}")
    for message in report["failures"]:
        print(f"  FAILED {message}")
    if "generator_lag_ms" in report["notes"]:
        lag = report["notes"]["generator_lag_ms"]
        print(f"  {report['notes']['arrival']}; generator late by p50 {lag['p50']:.2f} ms, "
              f"p90 {lag['p90']:.2f} ms, max {lag['max']:.2f} ms")
    for name, value in report["end_to_end"].items():
        print(f"  {name:<28} {value:.6g}")
    for name, value in sorted(report["per_layer"].items()):
        print(f"  {name:<28} {value:.6g}")


if __name__ == "__main__":
    sys.exit(main())
