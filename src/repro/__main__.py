"""Command-line interface for single-kernel and service workflows.

Examples::

    repro list
    repro compile matmul-2x3-3x3 --budget 10
    repro compile 2dconv-3x5-3x3 --emit-c conv.c
    repro run matmul-2x3-3x3 --impl nature
    repro serve --kernels matmul --jobs 4 --cache-dir .repro-cache
    repro conformance random --budget 200 --seed 1
    repro chaos --seed 0 --report chaos.json
    repro cache stats --dir .repro-cache
    repro cache fsck --dir .repro-cache --repair

(``repro`` is the installed console script; ``python -m repro`` works
identically without installation.  The evaluation harness has its own
CLI: ``python -m repro.evaluation``.)
"""

from __future__ import annotations

import argparse
import sys

from .baselines import BASELINES, baseline_program
from .compiler import CompileOptions, compile_spec
from .kernels import get_kernel, table1_kernels
from .machine import simulate


def _cmd_list(_args) -> int:
    print(f"{'name':<24}{'category':<10}{'size':<16}{'outputs':>8}")
    for kernel in table1_kernels():
        print(
            f"{kernel.name:<24}{kernel.category:<10}{kernel.size_label:<16}"
            f"{kernel.n_outputs:>8}"
        )
    return 0


def _cmd_compile(args) -> int:
    kernel = get_kernel(args.kernel)
    options = CompileOptions(
        time_limit=args.budget,
        node_limit=args.node_limit,
        validate=not args.no_validate,
        vector_width=args.width,
        select_best_candidate=args.select_best,
        phases=args.phases,
    )
    result = compile_spec(kernel.spec(), options)
    print(result.summary())
    if result.phases is not None:
        print(f"phases: {result.phases.summary()}")
    if result.validation is not None:
        verdict = "PASSED" if result.validated else "FAILED"
        print(f"translation validation: {verdict} ({result.validation.methods_used})")
    print(f"saturation: {result.report.summary()}")
    print(f"IR opcode histogram: {result.program.opcode_histogram()}")
    if args.emit_c:
        with open(args.emit_c, "w") as handle:
            handle.write(result.c_code)
        print(f"wrote C intrinsics to {args.emit_c}")
    elif args.show_c:
        print(result.c_code)
    return 0 if (result.validation is None or result.validated) else 1


def _cmd_run(args) -> int:
    kernel = get_kernel(args.kernel)
    if args.impl == "diospyros":
        options = CompileOptions(
            time_limit=args.budget, node_limit=args.node_limit, validate=False
        )
        program = compile_spec(kernel.spec(), options).program
    else:
        program = baseline_program(args.impl, kernel)
        if program is None:
            print(f"{args.impl} does not provide {kernel.name}", file=sys.stderr)
            return 2
    inputs = kernel.random_inputs(args.seed)
    result = simulate(program, inputs)
    reference = kernel.reference_outputs(inputs)
    produced = result.output("out")[: len(reference)]
    correct = all(
        abs(a - b) <= 1e-4 * max(1.0, abs(b)) for a, b in zip(produced, reference)
    )
    print(f"{kernel.name} [{args.impl}]: {result.cycles:.0f} cycles, "
          f"{result.instructions} instructions, correct={correct}")
    return 0 if correct else 1


def _make_service(args):
    from .service import ArtifactCache, CompileService

    cache = ArtifactCache(args.cache_dir) if args.cache_dir else None
    return CompileService(
        cache=cache,
        isolate=not getattr(args, "no_isolate", False),
        max_workers=getattr(args, "jobs", None),
    )


def _cmd_serve(args) -> int:
    """Batch-compile kernels through the sandboxed worker pool."""
    if args.bench:
        return _cmd_serve_bench(args)
    kernels = table1_kernels()
    if args.kernels:
        kernels = [k for k in kernels if args.kernels in k.name]
        if not kernels:
            print(f"no kernels match {args.kernels!r}", file=sys.stderr)
            return 2
    service = _make_service(args)
    # SIGTERM/SIGINT drain the pool instead of leaving zombie workers
    # and half-written scratch files behind.
    service.install_signal_handlers()
    options = CompileOptions(
        time_limit=args.budget,
        node_limit=args.node_limit,
        validate=not args.no_validate,
    )
    items = service.compile_many([k.spec() for k in kernels], options)
    failures = 0
    for item in items:
        if item.result is not None:
            marks = []
            if item.result.diagnostics.cache_hit:
                marks.append("cache")
            if item.result.diagnostics.attempts > 1:
                marks.append(f"attempt {item.result.diagnostics.attempts}")
            if item.result.degraded:
                marks.append("degraded")
            suffix = f" [{', '.join(marks)}]" if marks else ""
            print(f"{item.result.summary()}{suffix}")
        else:
            failures += 1
            print(f"{item.name}: FAILED after {item.elapsed:.2f}s -- "
                  f"{type(item.error).__name__}: {item.error}")
    print(service.stats.summary(), file=sys.stderr)
    if service.cache is not None:
        print(service.cache.stats.summary(), file=sys.stderr)
    return 1 if failures else 0


def _cmd_serve_bench(args) -> int:
    """Open-loop overload soak of the compile gateway (DESIGN.md §12).

    Drives the admission-controlled gateway through unloaded ->
    sustained -> 4x burst -> recovery phases and gates on the issue's
    acceptance criteria: typed sheds only, bounded queue, admitted p99
    within factor of unloaded p99, >=90% single-flight collapse."""
    import json

    from .service import (
        SoakConfig,
        default_chaos_plan,
        render_soak_report,
        run_soak_sync,
    )

    config = SoakConfig(seed=args.seed)
    chaos = default_chaos_plan(args.seed) if args.chaos else None
    report = run_soak_sync(
        config, chaos=chaos, scratch_dir=args.cache_dir or None
    )
    print(render_soak_report(report))
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote soak report to {args.report}", file=sys.stderr)
    return 0 if report["ok"] else 1


def _cmd_conformance(args) -> int:
    """Conformance subsystem: guided fuzzing, golden corpus,
    metamorphic checks, repro replay/shrink."""
    import json as _json

    from . import conformance as conf

    service = (
        _make_service(args)
        if (getattr(args, "isolate", False) or getattr(args, "cache_dir", None))
        else None
    )

    if args.action in ("guided", "random"):
        report = conf.run_campaign(
            budget=args.budget,
            seed=args.seed,
            mode=args.action,
            corpus_dir=args.corpus_dir,
            service=service,
            trials=args.trials,
            time_budget=args.time_budget,
        )
        print(conf.render_campaign_report(report, verbose=args.verbose))
        if args.out:
            from .conformance.fuzzer import write_campaign_json

            write_campaign_json(report, args.out)
            print(f"campaign report written to {args.out}", file=sys.stderr)
        if report.divergent and args.shrink_divergences:
            options = conf.conformance_options(args.seed)
            predicate = conf.divergence_predicate(options, seed=args.seed)
            for spec, _ in report.divergent:
                shrunk = conf.shrink(spec, predicate)
                payload = conf.repro_payload(
                    shrunk.minimized, options, seed=args.seed
                )
                json_path, test_path = conf.write_repro(payload)
                print(
                    f"shrunk {spec.name}: size {shrunk.original_size} -> "
                    f"{shrunk.minimized_size}; wrote {json_path}, {test_path}"
                )
        return 0 if report.ok else 1

    if args.action == "bless":
        path = conf.bless(path=args.corpus, service=service)
        print(f"golden corpus blessed: {path}")
        return 0

    if args.action == "check":
        report = conf.check(path=args.corpus, service=service)
        print(report.render())
        return 0 if report.ok else 1

    if args.action == "metamorphic":
        from .validation.fuzz import random_spec
        from .seeding import stable_rng

        rng = stable_rng(args.seed, "cli-metamorphic")
        specs = [random_spec(rng, i) for i in range(args.count)]
        outcomes = conf.run_metamorphic(
            specs,
            conf.conformance_options(args.seed),
            seed=args.seed,
            trials=args.trials,
        )
        print(conf.render_outcomes(outcomes))
        return 0 if all(o.ok for o in outcomes) else 1

    if args.action == "replay":
        failures = 0
        for path in args.files:
            with open(path) as handle:
                payload = _json.load(handle)
            report = conf.replay_repro(payload)
            print(report.render())
            failures += 0 if report.ok else 1
        return 1 if failures else 0

    raise SystemExit(f"unknown conformance action {args.action!r}")


def _cmd_trace(args) -> int:
    """Compile one kernel with full observability and write the trace
    bundle: Chrome trace, raw spans, Prometheus + JSON metrics, flight
    recorder dump, and an HTML report.  A failed compile still dumps
    whatever the flight recorder captured (the post-mortem path)."""
    import json
    import os

    from .errors import CompileError
    from .observability import (
        Observability,
        render_html,
        render_text,
        validate_chrome_trace,
    )

    kernel = get_kernel(args.kernel)
    out_dir = args.out or os.path.join("trace-out", kernel.name)
    os.makedirs(out_dir, exist_ok=True)
    obs = Observability.on(
        recorder_capacity=args.recorder_capacity,
        postmortem_dir=out_dir,
    )
    options = CompileOptions(
        time_limit=args.budget,
        node_limit=args.node_limit,
        validate=not args.no_validate,
        vector_width=args.width,
        observability=obs,
    )

    result = None
    error = None
    try:
        result = compile_spec(kernel.spec(), options)
        data = result.observability
    except CompileError as exc:
        error = exc
        data = exc.partial.get("observability")
    if data is None:
        print(f"{kernel.name}: compile failed before any observability "
              f"data was captured: {error}", file=sys.stderr)
        return 1

    def _write(name: str, payload) -> str:
        path = os.path.join(out_dir, name)
        with open(path, "w") as handle:
            if isinstance(payload, str):
                handle.write(payload)
            else:
                json.dump(payload, handle, indent=2)
                handle.write("\n")
        return path

    written = [
        _write("trace.json", data.chrome_trace()),
        _write("spans.json", data.trace_json()),
        _write("metrics.prom", data.prometheus),
        _write("metrics.json", data.metrics),
        _write("recorder.json", data.recorder),
        _write("report.html", render_html(data, kernel=kernel.name)),
    ]
    events = validate_chrome_trace(data.chrome_trace())

    print(render_text(data, kernel=kernel.name))
    print(f"chrome trace: {events} events (schema valid)")
    for path in written:
        print(f"wrote {path}")
    if error is not None:
        print(f"compile FAILED: {type(error).__name__}: {error}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_chaos(args) -> int:
    """Chaos campaign: sweep the fault matrix x kernel grid under a
    pinned seed and fail on any invariant violation (DESIGN.md §11)."""
    import json

    from .chaos.campaign import (
        default_kernels,
        default_matrix,
        run_campaign,
        smoke_matrix,
    )

    matrix = smoke_matrix() if args.smoke else default_matrix()
    if args.filter:
        matrix = [c for c in matrix if args.filter in c.name]
        if not matrix:
            print(f"no matrix cells match {args.filter!r}", file=sys.stderr)
            return 2
    kernels = default_kernels()
    if args.kernels:
        kernels = [k for k in kernels if args.kernels in k.name]
        if not kernels:
            print(f"no chaos kernels match {args.kernels!r}", file=sys.stderr)
            return 2
    report = run_campaign(
        seed=args.seed,
        kernels=kernels,
        matrix=matrix,
        cell_budget=args.cell_budget,
    )
    print(report.summary())
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"campaign report written to {args.report}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_cache(args) -> int:
    """Inspect, verify, or clear the on-disk artifact cache."""
    from .service import ArtifactCache, code_fingerprint

    cache = ArtifactCache(args.dir)
    if args.action == "stats":
        entries = cache.entries()
        total = sum(e.size_bytes for e in entries)
        print(f"cache dir: {cache.root}")
        print(f"code version: {code_fingerprint()}")
        print(f"entries: {len(entries)} ({total / 1e6:.2f} MB)")
        stale = sum(1 for e in entries if e.code_version != cache.code_version)
        if stale:
            print(f"stale (old code version, will re-miss): {stale}")
        return 0
    if args.action == "list":
        for entry in cache.entries():
            print(
                f"{entry.key[:16]}  {entry.kernel:<24} "
                f"{entry.size_bytes:>8} B  code={entry.code_version}"
            )
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} files from {cache.root}")
        return 0
    if args.action == "fsck":
        report = cache.fsck(repair=args.repair)
        print(report.summary())
        return 0 if report.clean or args.repair else 1
    raise SystemExit(f"unknown cache action {args.action!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the Table 1 benchmark kernels")

    p_compile = sub.add_parser("compile", help="compile one kernel")
    p_compile.add_argument("kernel")
    p_compile.add_argument("--budget", type=float, default=10.0)
    p_compile.add_argument("--node-limit", type=int, default=150_000)
    p_compile.add_argument("--width", type=int, default=4)
    p_compile.add_argument("--no-validate", action="store_true")
    p_compile.add_argument("--select-best", action="store_true")
    p_compile.add_argument("--emit-c", metavar="FILE")
    p_compile.add_argument("--show-c", action="store_true")
    p_compile.add_argument(
        "--phases",
        default="auto",
        choices=["auto", "on", "off"],
        help="phased saturation: auto engages the default plan for "
        "kernels past the size threshold (DESIGN.md §13)",
    )

    p_run = sub.add_parser("run", help="simulate one implementation")
    p_run.add_argument("kernel")
    p_run.add_argument(
        "--impl", default="diospyros", choices=["diospyros", *BASELINES]
    )
    p_run.add_argument("--budget", type=float, default=10.0)
    p_run.add_argument("--node-limit", type=int, default=150_000)
    p_run.add_argument("--seed", type=int, default=0)

    p_serve = sub.add_parser(
        "serve",
        help="batch-compile kernels in sandboxed workers with the "
        "artifact cache",
    )
    p_serve.add_argument(
        "--kernels", default="", help="substring filter on kernel names"
    )
    p_serve.add_argument("--budget", type=float, default=10.0)
    p_serve.add_argument("--node-limit", type=int, default=150_000)
    p_serve.add_argument("--no-validate", action="store_true")
    p_serve.add_argument("--jobs", type=int, default=None)
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR")
    p_serve.add_argument(
        "--no-isolate",
        action="store_true",
        help="compile in-process (keeps cache/retries, drops sandboxing)",
    )
    p_serve.add_argument(
        "--bench",
        action="store_true",
        help="run the open-loop overload soak against the async gateway "
        "instead of a batch compile (DESIGN.md §12)",
    )
    p_serve.add_argument(
        "--seed", type=int, default=0, help="soak schedule seed (--bench)"
    )
    p_serve.add_argument(
        "--chaos",
        action="store_true",
        help="inject the default gateway chaos plan during the soak "
        "(flood bursts, slow-loris clients, enqueue stalls)",
    )
    p_serve.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="write the full JSON soak report (--bench)",
    )

    p_conf = sub.add_parser(
        "conformance",
        help="conformance subsystem: coverage-guided fuzzing, golden "
        "kernel corpus, metamorphic checks, repro replay",
    )
    p_conf.add_argument(
        "action",
        choices=["guided", "random", "bless", "check", "metamorphic", "replay"],
        help="guided/random: fuzz campaign (random = blind differential "
        "fuzzing, also the guided mode's ablation baseline); "
        "bless/check: golden corpus; metamorphic: transform oracles; "
        "replay: re-run packaged repro JSON files",
    )
    p_conf.add_argument("files", nargs="*", help="repro JSON files (replay)")
    p_conf.add_argument("--budget", type=int, default=100,
                        help="campaign size in kernels")
    p_conf.add_argument("--seed", type=int, default=0)
    p_conf.add_argument("--trials", type=int, default=3)
    p_conf.add_argument("--count", type=int, default=5,
                        help="kernels for the metamorphic sweep")
    p_conf.add_argument("--corpus-dir", default=None, metavar="DIR",
                        help="persistent fuzz seed corpus directory")
    p_conf.add_argument("--corpus", default=None, metavar="FILE",
                        help="golden corpus path (default tests/golden/corpus.json)")
    p_conf.add_argument("--out", default=None, metavar="FILE",
                        help="write the campaign report JSON here")
    p_conf.add_argument("--time-budget", type=float, default=None,
                        help="truncate the campaign after this many seconds")
    p_conf.add_argument("--shrink-divergences", action="store_true",
                        help="shrink each divergent kernel and write a repro "
                        "under tests/repros/")
    p_conf.add_argument("--isolate", action="store_true")
    p_conf.add_argument("--jobs", type=int, default=None)
    p_conf.add_argument("--cache-dir", default=None, metavar="DIR")
    p_conf.add_argument("--verbose", action="store_true")

    p_trace = sub.add_parser(
        "trace",
        help="compile one kernel with full observability and write the "
        "trace bundle (Chrome trace, metrics, flight recorder, HTML "
        "report)",
    )
    p_trace.add_argument("kernel")
    p_trace.add_argument("--budget", type=float, default=10.0)
    p_trace.add_argument("--node-limit", type=int, default=150_000)
    p_trace.add_argument("--width", type=int, default=4)
    p_trace.add_argument("--no-validate", action="store_true")
    p_trace.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="output directory (default: trace-out/<kernel>)",
    )
    p_trace.add_argument("--recorder-capacity", type=int, default=128)

    p_chaos = sub.add_parser(
        "chaos",
        help="deterministic fault-injection campaign over the service "
        "stack; fails on any invariant violation",
    )
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke mode: one cell per fault family",
    )
    p_chaos.add_argument(
        "--filter", default="", metavar="SUBSTR",
        help="substring filter on matrix cells (site:action)",
    )
    p_chaos.add_argument(
        "--kernels", default="", help="substring filter on chaos kernels"
    )
    p_chaos.add_argument(
        "--cell-budget", type=float, default=60.0,
        help="bounded-wallclock invariant: per-cell ceiling in seconds",
    )
    p_chaos.add_argument(
        "--report", default=None, metavar="FILE",
        help="write the campaign report JSON here",
    )

    p_cache = sub.add_parser(
        "cache", help="inspect/verify/clear the artifact cache"
    )
    p_cache.add_argument("action", choices=["stats", "list", "clear", "fsck"])
    p_cache.add_argument("--dir", default=".repro-cache", metavar="DIR")
    p_cache.add_argument(
        "--repair",
        action="store_true",
        help="fsck: delete corrupt/stale entries, temp litter, and "
        "quarantine debris",
    )

    args = parser.parse_args(argv)
    return {
        "list": _cmd_list,
        "compile": _cmd_compile,
        "run": _cmd_run,
        "serve": _cmd_serve,
        "conformance": _cmd_conformance,
        "trace": _cmd_trace,
        "chaos": _cmd_chaos,
        "cache": _cmd_cache,
    }[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
