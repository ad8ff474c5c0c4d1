"""Tests of the benchmark itself.

    python -m pytest perfbench/test_perfbench.py -q

They run the benchmark for about a second per workload, so they are
kept out of the repository's tier-1 suite (``testpaths = ["tests"]``).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import Span, self_times  # noqa: E402


def _run(workload, seed, hashseed, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


def _report(workload, seed):
    with open(os.path.join(ROOT, ".perfbench", f"report-{workload}-seed{seed}.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", ["table1-small", "large-phased", "served-mix"])
def test_outputs_repeat_across_hash_seeds(workload):
    """Fingerprints, cycle counts and speedup_geomean do not depend on
    PYTHONHASHSEED."""
    seen = []
    seed = 11
    for hashseed in (0, 1):
        done = _run(workload, seed, hashseed)
        assert done.returncode == 0, done.stderr[-2000:]
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        rows = _report(workload, seed)["kernels"]
        seen.append((
            result["metrics"]["speedup_geomean"]["value"],
            [(r["kernel"], r["fingerprint"], r["cycles"], r["naive_cycles"]) for r in rows],
        ))
    assert seen[0] == seen[1]


def test_benchmark_json_matches_layer_map():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    with open(os.path.join(HERE, "layers.json")) as handle:
        layers = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(layers["workloads"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        name: spec["unit"] for name, spec in layers["end_to_end"].items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: (spec["unit"], spec["better"]) for name, spec in layers["per_layer"].items()}


def test_fails_without_compiler_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run("table1-small", 1, 0, cwd=tmp_path,
                script=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_self_time_subtracts_children():
    spans = [
        Span(1, "compile", 0.0, 10.0, None, "r"),
        Span(2, "egraph.saturate", 1.0, 7.0, 1, "r"),
        Span(3, "egraph.extract", 7.0, 9.0, 1, "r"),
        Span(4, "rules.build", 1.0, 2.0, 2, "r"),
    ]
    assert self_times(spans) == {1: 2.0, 2: 5.0, 3: 2.0, 4: 1.0}
