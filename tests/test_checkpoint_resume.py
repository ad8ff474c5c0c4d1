"""Persistent saturation checkpoints and crash-recoverable resume.

The tentpole guarantee under test: a worker SIGKILLed mid-saturation
resumes from its persisted end-of-iteration checkpoint on the service
retry, skips the completed iterations, and produces a byte-identical
extraction (term and generated C) to an uninterrupted run.
"""

import dataclasses
import glob
import os

import pytest

from repro.chaos import FaultPlan, FaultSpec, active_plan, clear_plan
from repro.compiler import CompileOptions, compile_spec
from repro.frontend.lift import lift
from repro.service import (
    CheckpointStore,
    CompileService,
    FileCheckpointer,
    RetryPolicy,
    SaturationState,
    WorkerLimits,
    saturation_key,
)


@pytest.fixture(autouse=True)
def _no_ambient_plan():
    clear_plan()
    yield
    clear_plan()


def _axpy2():
    def axpy2(a, b, out):
        for i in range(2):
            out[i] = a[i] * b[i] + a[i]

    return lift("axpy2", axpy2, [("a", 2), ("b", 2)], [("out", 2)])


#: Per-iteration checkpoints so a kill at any iteration has a fresh one.
OPTS = CompileOptions(
    time_limit=5.0,
    node_limit=20_000,
    iter_limit=8,
    validate=False,
    checkpoint_stride=1,
)


# ------------------------------------------------------- FileCheckpointer


def _state(n=3):
    return SaturationState(
        next_iteration=n,
        egraph={"nodes": list(range(10))},
        applied_keys={("rule", 1), ("rule", 2)},
        rule_stats={"mul-comm": {"matches": 4}},
        iterations=[{"iteration": i} for i in range(n)],
    )


def test_checkpointer_round_trip(tmp_path):
    ckpt = FileCheckpointer(str(tmp_path / "k.satckpt"), key="k")
    assert ckpt.load() is None  # miss, not an error
    assert ckpt.save(_state()) is True
    assert ckpt.exists()
    loaded = ckpt.load()
    assert loaded is not None
    assert loaded.next_iteration == 3
    assert loaded.egraph == {"nodes": list(range(10))}
    assert loaded.applied_keys == {("rule", 1), ("rule", 2)}
    assert len(loaded.iterations) == 3
    ckpt.delete()
    assert not ckpt.exists()
    assert ckpt.stats.saves == 1 and ckpt.stats.loads == 1
    assert ckpt.stats.deletes == 1


def test_checkpointer_quarantines_corruption(tmp_path):
    path = str(tmp_path / "k.satckpt")
    ckpt = FileCheckpointer(path, key="k")
    ckpt.save(_state())
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(blob))
    assert ckpt.load() is None
    assert ckpt.stats.corrupt == 1
    assert not os.path.exists(path), "corrupt checkpoint must be moved aside"
    assert os.path.exists(path + ".corrupt")


def test_checkpointer_rejects_wrong_key(tmp_path):
    path = str(tmp_path / "k.satckpt")
    FileCheckpointer(path, key="other").save(_state())
    ckpt = FileCheckpointer(path, key="k")
    assert ckpt.load() is None
    assert ckpt.stats.corrupt == 1


def test_saturation_key_ignores_shrinkable_budgets():
    """Retries run at shrunk node/time budgets and shifted seeds; the
    checkpoint key must not move, or the retry could never find the
    dead attempt's checkpoint."""
    spec = _axpy2()
    base = saturation_key(spec, OPTS)
    for change in (
        {"node_limit": 5_000},
        {"time_limit": 1.25},
        {"seed": 99},
        {"checkpoint_dir": "/elsewhere"},
    ):
        assert saturation_key(spec, dataclasses.replace(OPTS, **change)) == base

    # ...but anything that changes what is compiled must move the key.
    assert saturation_key(spec, dataclasses.replace(OPTS, vector_width=8)) != base

    def other(a, b, out):
        out[0] = a[0] + b[0]

    other_spec = lift("other", other, [("a", 2), ("b", 2)], [("out", 1)])
    assert saturation_key(other_spec, OPTS) != base


def test_checkpoint_stride_paces_persisted_checkpoints():
    """The runner persists every ``checkpoint_stride``-th end-of-iteration
    state, and only those."""
    from repro.egraph import EGraph, Runner
    from repro.kernels import get_kernel
    from repro.rules import build_ruleset

    class Recorder:
        def __init__(self):
            self.saved = []

        def load(self):
            return None

        def save(self, state):
            self.saved.append(state.next_iteration)
            return True

        def delete(self):
            pass

    egraph = EGraph()
    egraph.add_term(get_kernel("matmul-2x2-2x2").spec().term)
    persist = Recorder()
    report = Runner(
        build_ruleset(4), iter_limit=8, checkpoint_stride=3, persist=persist
    ).run(egraph)
    assert len(report.iterations) >= 6
    assert persist.saved == list(range(3, len(report.iterations) + 1, 3))


def test_checkpoint_store_entries_and_clear(tmp_path):
    store = CheckpointStore(str(tmp_path))
    ckpt = store.checkpointer_for(_axpy2(), OPTS)
    ckpt.save(_state())
    assert len(store.entries()) == 1
    assert store.clear() == 1
    assert store.entries() == []


# ---------------------------------------------------- end-to-end resume


def test_uninterrupted_run_consumes_its_checkpoint(tmp_path):
    options = dataclasses.replace(OPTS, checkpoint_dir=str(tmp_path))
    result = compile_spec(_axpy2(), options)
    assert result.report.resumed_from is None
    assert glob.glob(str(tmp_path / "*.satckpt")) == [], (
        "a completed run must delete its checkpoint"
    )


def test_sigkilled_worker_resumes_byte_identical(tmp_path):
    """The acceptance scenario: attempt 0's worker is SIGKILLed at the
    start of saturation iteration 2 (after checkpoints for iterations
    0 and 1 were persisted); the retry resumes from iteration 2 and the
    final extraction is byte-identical to an uninterrupted compile."""
    spec = _axpy2()
    baseline = compile_spec(spec, OPTS)
    assert len(baseline.report.iterations) >= 3, (
        "kernel too small to exercise mid-run kill"
    )

    service = CompileService(
        cache=None,
        policy=RetryPolicy(
            max_attempts=3,
            backoff_base=0.01,
            backoff_jitter=0.0,
            # Identical budgets across attempts: the resumed run must
            # match the baseline exactly, not a shrunk variant of it.
            shrink_factor=1.0,
        ),
        isolate=True,
        limits=WorkerLimits(kill_timeout=60.0),
        checkpoint_dir=str(tmp_path),
    )
    plan = FaultPlan(
        [FaultSpec("runner.iteration", "sigkill", nth=3, attempts=(0,))],
        seed=3,
    )
    with active_plan(plan):
        result = service.compile_spec(spec, OPTS)

    assert result.diagnostics.attempts == 2
    assert service.stats.worker_crashes == 1
    # Completed iterations were skipped, not re-run: the retry resumed
    # at the iteration the checkpoint recorded (kill at hit 3 = start of
    # iteration index 2, so iterations 0 and 1 were already done).
    assert result.report.resumed_from == 2
    # The restored history plus the live iterations equal the baseline's.
    assert len(result.report.iterations) == len(baseline.report.iterations)
    assert result.report.stop_reason == baseline.report.stop_reason

    # Byte-identical extraction: same optimized term, same generated C.
    assert str(result.optimized) == str(baseline.optimized)
    assert result.c_code == baseline.c_code
    assert result.cost == baseline.cost

    # Recovery left no scratch state behind.
    assert glob.glob(str(tmp_path / "*")) == []


def test_resume_survives_corrupt_checkpoint(tmp_path):
    """Compound fault: the worker is SIGKILLed, then the retry reads a
    corrupted checkpoint.  Recovery must degrade to a cold start (no
    resume) and still produce the baseline artifacts."""
    spec = _axpy2()
    baseline = compile_spec(spec, OPTS)
    service = CompileService(
        cache=None,
        policy=RetryPolicy(
            max_attempts=3,
            backoff_base=0.01,
            backoff_jitter=0.0,
            shrink_factor=1.0,
        ),
        isolate=True,
        limits=WorkerLimits(kill_timeout=60.0),
        checkpoint_dir=str(tmp_path),
    )
    plan = FaultPlan(
        [
            FaultSpec("runner.iteration", "sigkill", nth=3, attempts=(0,)),
            FaultSpec("checkpoint.read", "corrupt"),
        ],
        seed=3,
    )
    with active_plan(plan):
        result = service.compile_spec(spec, OPTS)
    assert result.diagnostics.attempts == 2
    assert result.report.resumed_from is None
    assert result.c_code == baseline.c_code
