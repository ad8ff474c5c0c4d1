"""The counter and wall-time gate on traced perfbench reports
(``benchmarks/perf_gate.py``): its rules on synthetic reports, its exit
status, and the shape of the committed baseline.  Synthetic reports
carry machine-speed probes at the reference speed unless a test says
otherwise, so their layer times are reference seconds."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE = os.path.join(REPO, "benchmarks", "perf_gate.py")

_spec = importlib.util.spec_from_file_location("perf_gate", GATE)
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

BASELINE = {
    "table1-small": {
        "counters": {"egraph.matches": 35761, "phases.rounds": 0},
        "layers_s": {
            "egraph.saturate_s": 0.9,
            "egraph.extract_s": 0.1,
            "backend.lower_s": 0.01,
        },
    }
}


def _per_layer(entry):
    """A report's ``per_layer`` map equal to a baseline entry."""
    return dict(entry["counters"], **entry["layers_s"])


def _notes(speed=1.0):
    """Report notes whose probes ran ``speed`` times the reference."""
    return {"speed_probes_s": [speed * perf_gate.REFERENCE_S] * 3}


def _report(workload="table1-small", trace=1, **overrides):
    entry = BASELINE.get(workload)
    layers = dict(_per_layer(entry) if entry else {}, **overrides)
    return {"workload": workload, "trace": trace, "per_layer": layers, "notes": _notes()}


def test_report_equal_to_its_baseline_passes():
    assert perf_gate.check(_report(), BASELINE) == []


def test_slowdown_past_twice_the_baseline_fails_and_names_the_layer():
    failures = perf_gate.check(_report(**{"egraph.extract_s": 0.21}), BASELINE)
    assert len(failures) == 1
    assert "table1-small/egraph.extract_s" in failures[0]
    assert "2.10x" in failures[0]


def test_slow_host_is_scaled_back_to_reference_seconds():
    """Raw layer times 2.2x the baseline pass when the probes ran 2.2x
    slow too: the host got slower, not the compiler."""
    times = BASELINE["table1-small"]["layers_s"]
    report = _report(**{layer: 2.2 * s for layer, s in times.items()})
    report["notes"] = _notes(speed=2.2)
    assert perf_gate.check(report, BASELINE) == []


def test_threefold_regression_at_reference_speed_fails():
    failures = perf_gate.check(_report(**{"egraph.saturate_s": 2.7}), BASELINE)
    assert len(failures) == 1
    assert "table1-small/egraph.saturate_s" in failures[0]
    assert "3.00x" in failures[0]


def test_fast_host_does_not_mask_a_regression():
    """A layer 2.2x slower on a host twice as fast reads 1.1x raw and
    still fails."""
    report = _report(**{"egraph.saturate_s": 1.1 * 0.9})
    report["notes"] = _notes(speed=0.5)
    (failure,) = perf_gate.check(report, BASELINE)
    assert "table1-small/egraph.saturate_s" in failure
    assert "2.20x" in failure


def test_report_without_probes_fails():
    report = _report()
    del report["notes"]
    (failure,) = perf_gate.check(report, BASELINE)
    assert "table1-small: no machine-speed probes" in failure


def test_slowdown_under_the_floor_passes():
    """A layer that stays under 50 ms never fails, however large its
    relative slowdown."""
    baseline = {"table1-small": {"counters": {},
                                 "layers_s": {"backend.lower_s": 0.001}}}
    assert perf_gate.check(_report(**{"backend.lower_s": 0.03}), baseline) == []


def test_counter_mismatch_fails_and_names_the_counter():
    """One match more is a different compile, however fast."""
    failures = perf_gate.check(_report(**{"egraph.matches": 35762.0}), BASELINE)
    assert len(failures) == 1
    assert "table1-small/egraph.matches: 35762 differs" in failures[0]


def test_counter_as_a_per_pass_average_passes():
    """Reports average counters over passes in floats."""
    report = _report(**{"egraph.matches": 35761 * (1 + 1e-12)})
    assert perf_gate.check(report, BASELINE) == []


def test_missing_counter_fails():
    report = _report()
    del report["per_layer"]["phases.rounds"]
    (failure,) = perf_gate.check(report, BASELINE)
    assert "table1-small/phases.rounds: missing" in failure


@pytest.mark.parametrize(
    "report, message",
    [
        (_report(trace=0), "untraced"),
        (_report(workload="served-mix"), "no baseline"),
    ],
    ids=["untraced", "unknown-workload"],
)
def test_untraced_report_and_unknown_workload_fail(report, message):
    (failure,) = perf_gate.check(report, BASELINE)
    assert message in failure


def test_missing_layer_fails():
    report = _report()
    del report["per_layer"]["egraph.saturate_s"]
    (failure,) = perf_gate.check(report, BASELINE)
    assert "table1-small/egraph.saturate_s: missing" in failure


def _run_gate(tmp_path, workload, layers):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(
        {"workload": workload, "trace": 1, "per_layer": layers, "notes": _notes()}
    ))
    return subprocess.run([sys.executable, GATE, str(path)],
                          capture_output=True, text=True, timeout=60)


def test_script_exits_zero_on_pass_and_one_on_failure(tmp_path):
    """Against the committed baseline: a report equal to it passes, and
    one with its slowest layer tripled fails."""
    with open(perf_gate.BASELINE) as handle:
        baseline = json.load(handle)
    workload, entry = sorted(baseline.items())[0]
    layers = _per_layer(entry)

    passed = _run_gate(tmp_path, workload, layers)
    assert passed.returncode == 0, passed.stderr
    assert "perf gate: ok" in passed.stdout

    times = entry["layers_s"]
    slowest = max(times, key=times.get)
    tripled = dict(layers, **{slowest: 3 * layers[slowest]})
    failed = _run_gate(tmp_path, workload, tripled)
    assert failed.returncode == 1
    assert f"{workload}/{slowest}" in failed.stderr


COUNTERS = {
    "egraph.classes_visited", "egraph.matches", "egraph.unions",
    "egraph.iterations", "egraph.peak_nodes", "backend.ir_instrs",
    "phases.rounds",
}


def test_committed_baseline_covers_compile_path_layers():
    """The in-process workloads, each with the seven deterministic
    counters as integers and positive times of traced perfbench layers
    only; the set-up layer and the tracing overhead (a difference of
    medians) are not gated."""
    with open(perf_gate.BASELINE) as handle:
        baseline = json.load(handle)
    with open(os.path.join(REPO, "perfbench", "layers.json")) as handle:
        known = set(json.load(handle)["per_layer"])
    assert sorted(baseline) == ["large-phased", "table1-small"]
    for entry in baseline.values():
        assert sorted(entry) == ["counters", "layers_s"]
        assert set(entry["counters"]) == COUNTERS <= known
        assert all(type(n) is int and n >= 0 for n in entry["counters"].values())
        layers = entry["layers_s"]
        assert set(layers) <= known - {"frontend.lift_s", "trace.overhead_s"}
        assert all(name.endswith("_s") and s > 0 for name, s in layers.items())
