"""Shared fixtures and helpers for the test suite."""

import random

import pytest

from repro.chaos import FaultSpec
from repro.compiler import CompileOptions
from repro.dsl import evaluate_output
from repro.machine import simulate


def approx_list(actual, expected, rel=1e-6, abs_tol=1e-9):
    """Element-wise approximate comparison for float lists."""
    assert len(actual) >= len(expected), (len(actual), len(expected))
    for i, (a, b) in enumerate(zip(actual, expected)):
        scale = max(1.0, abs(b))
        assert abs(a - b) <= rel * scale + abs_tol, (
            f"lane {i}: {a} != {b} (rel {rel})"
        )


def run_and_compare(kernel, program, seed=0, rel=1e-4):
    """Simulate an IR program for ``kernel`` and compare against the
    trusted reference on the same random inputs."""
    inputs = kernel.random_inputs(seed)
    result = simulate(program, inputs)
    reference = kernel.reference_outputs(inputs)
    approx_list(result.output("out"), reference, rel=rel)
    return result


#: A ``worker.start`` sleep this long outlasts every kill-timeout the
#: tests set, so the worker hangs until the supervisor kills it.
HANG_SECONDS = 600.0


def worker_fault(action, attempts=(0,), **fields):
    """A chaos fault at ``worker.start`` that fires on every listed
    service attempt (of one kernel's compiles with ``kernel=``)."""
    return FaultSpec(
        "worker.start", action, probability=1.0, max_fires=None,
        attempts=attempts, **fields,
    )


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture
def fast_options():
    """Compile options for unit tests: small budgets, no validation."""
    return CompileOptions(
        time_limit=5.0, node_limit=30_000, iter_limit=25, validate=False
    )


@pytest.fixture
def validated_options():
    return CompileOptions(
        time_limit=5.0, node_limit=30_000, iter_limit=25, validate=True
    )
