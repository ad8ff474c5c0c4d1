"""Fault-injection tests for the degradation ladder and sweep resilience.

Each test breaks one pipeline stage on purpose -- a crashing rewrite
rule, a lowering backend that rejects vector terms, a validator that
raises -- and asserts the compiler still produces a runnable (and
correct) kernel, with the failure recorded in the diagnostics instead
of silently swallowed or fatally raised.
"""

import dataclasses
import math
import tracemalloc

import pytest

from tests.conftest import run_and_compare
from repro.compiler import CompileOptions, compile_spec
from repro.costs import DiospyrosCostModel
from repro.egraph import CustomRewrite, Match
from repro.errors import LoweringError, SaturationError
from repro.evaluation.common import (
    Budget,
    SweepError,
    compile_kernel_resilient,
)
from repro.evaluation.figure5 import render_figure5, run_figure5
from repro.kernels import make_matmul, table1_kernels
from repro.validation.validate import validate as real_validate

FAST = CompileOptions(time_limit=5.0, node_limit=30_000, iter_limit=25, validate=False)


@pytest.fixture(scope="module")
def kernel():
    return make_matmul(2, 2, 2)


def _options(**overrides):
    return dataclasses.replace(FAST, **overrides)


def _crash_on_second_search():
    """A rule whose searcher lets iteration 0 proceed, then raises --
    so the crash hits an e-graph that already holds useful rewrites."""
    calls = {"n": 0}

    def searcher(eg):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise RuntimeError("injected searcher crash")
        return iter(())

    return CustomRewrite("inject-search-crash", searcher)


def _crashing_applier():
    def bad_build(e):
        raise RuntimeError("injected applier crash")

    def searcher(eg):
        for cid in list(eg.classes_with_op("+"))[:1]:
            yield Match(cid, bad_build)

    return CustomRewrite("inject-apply-crash", searcher)


def _has_vec(term):
    return term.op.startswith("Vec") or any(_has_vec(a) for a in term.args)


# ----------------------------------------------------------------------
# Rung 1: saturation crashes
# ----------------------------------------------------------------------


class TestSaturationCrash:
    def test_searcher_crash_yields_correct_kernel(self, kernel):
        options = _options(extra_rules=(_crash_on_second_search(),))
        result = compile_spec(kernel.spec(), options)
        assert result.degraded
        assert result.report.errored
        assert result.report.failed_rule == "inject-search-crash"
        assert [d.stage for d in result.diagnostics.degradations] == ["saturation"]
        run_and_compare(kernel, result.program)

    def test_applier_crash_yields_correct_kernel(self, kernel):
        options = _options(extra_rules=(_crashing_applier(),))
        result = compile_spec(kernel.spec(), options)
        assert result.degraded and result.report.errored
        assert result.report.failed_rule == "inject-apply-crash"
        run_and_compare(kernel, result.program)

    def test_tracemalloc_stopped_when_stage_raises(self, kernel):
        """The seed leaked the tracemalloc trace on any stage failure."""
        options = _options(phases="bogus", track_memory=True)
        with pytest.raises(SaturationError):
            compile_spec(kernel.spec(), options)
        assert not tracemalloc.is_tracing()


# ----------------------------------------------------------------------
# Rungs 2/3: extraction and lowering fallbacks
# ----------------------------------------------------------------------


class TestLoweringFallback:
    def test_vector_lowering_failure_falls_back_to_scalar(self, kernel, monkeypatch):
        """A backend that rejects vector terms forfeits vectorization
        but still emits a correct scalar kernel."""
        import repro.compiler as compiler_mod
        real_lower = compiler_mod.lower_spec_program

        def flaky_lower(spec, term, *args, **kwargs):
            if _has_vec(term):
                raise RuntimeError("injected vector lowering failure")
            return real_lower(spec, term, *args, **kwargs)

        monkeypatch.setattr(compiler_mod, "lower_spec_program", flaky_lower)
        result = compile_spec(kernel.spec(), _options())
        assert result.degraded
        assert "lowering" in [d.stage for d in result.diagnostics.degradations]
        assert not _has_vec(result.optimized)
        run_and_compare(kernel, result.program)

    def test_total_lowering_failure_uses_spec_term(self, kernel, monkeypatch):
        """Only the unrewritten spec term lowers: the last rung still
        produces runnable IR, flagged degraded with infinite cost."""
        import repro.compiler as compiler_mod
        spec = kernel.spec()
        real_lower = compiler_mod.lower_spec_program

        def only_spec_lowers(spec_arg, term, *args, **kwargs):
            if term is not spec.term:
                raise RuntimeError("injected lowering failure")
            return real_lower(spec_arg, term, *args, **kwargs)

        monkeypatch.setattr(compiler_mod, "lower_spec_program", only_spec_lowers)
        result = compile_spec(spec, _options())
        assert result.degraded
        assert result.optimized is spec.term
        assert math.isinf(result.cost)
        run_and_compare(kernel, result.program)

    def test_unloweable_spec_always_raises(self, kernel, monkeypatch):
        """When even the spec term cannot lower there is nothing to
        degrade to: LoweringError propagates despite fault tolerance."""
        import repro.compiler as compiler_mod

        def never_lowers(*args, **kwargs):
            raise RuntimeError("injected lowering failure")

        monkeypatch.setattr(compiler_mod, "lower_spec_program", never_lowers)
        with pytest.raises(LoweringError) as exc_info:
            compile_spec(kernel.spec(), _options())
        assert exc_info.value.stage == "lowering"


class TestExtractionFallback:
    def test_vector_cost_failure_falls_back_to_scalar_model(self, kernel, monkeypatch):
        import repro.compiler as compiler_mod
        real_extractor = compiler_mod.Extractor

        class FlakyExtractor:
            def __init__(self, egraph, cost_model):
                if isinstance(cost_model, DiospyrosCostModel):
                    raise RuntimeError("injected extraction failure")
                self._inner = real_extractor(egraph, cost_model)

            def extract(self, root):
                return self._inner.extract(root)

        monkeypatch.setattr(compiler_mod, "Extractor", FlakyExtractor)
        result = compile_spec(kernel.spec(), _options())
        assert result.degraded
        stages = [d.stage for d in result.diagnostics.degradations]
        assert "extraction" in stages
        assert not _has_vec(result.optimized)
        run_and_compare(kernel, result.program)


class TestCandidateSelection:
    def test_forfeiting_candidate_is_recorded_not_silent(self, kernel, monkeypatch):
        """Satellite fix: _pick_candidate swallows ONLY lowering-stage
        failures, and records them in the diagnostics."""
        import repro.compiler as compiler_mod
        real_lower = compiler_mod.lower_spec_program

        def scalar_candidates_fail(spec, term, *args, **kwargs):
            if not _has_vec(term):
                raise RuntimeError("injected scalar candidate failure")
            return real_lower(spec, term, *args, **kwargs)

        monkeypatch.setattr(compiler_mod, "lower_spec_program", scalar_candidates_fail)
        result = compile_spec(kernel.spec(), _options(select_best_candidate=True))
        # The scalar alternative forfeited; the vector extraction won.
        assert _has_vec(result.optimized)
        assert any(
            "candidate selection" in s for s in result.diagnostics.swallowed
        )
        assert not result.degraded  # a forfeit is not a degradation
        run_and_compare(kernel, result.program)

    def test_non_lowering_failure_degrades_instead(self, kernel, monkeypatch):
        """A cost-model crash inside candidate selection is NOT a
        forfeit: it degrades."""
        import repro.machine.config as machine_config

        def broken_cycles(program):
            raise RuntimeError("injected cost-model crash")

        monkeypatch.setattr(machine_config, "static_cycles", broken_cycles)
        result = compile_spec(kernel.spec(), _options(select_best_candidate=True))
        assert result.degraded
        assert any(
            "candidate selection failed" in d.reason
            for d in result.diagnostics.degradations
        )
        run_and_compare(kernel, result.program)


# ----------------------------------------------------------------------
# Rung 4: validation crashes
# ----------------------------------------------------------------------


class TestValidationCrash:
    def test_persistent_crash_degrades_unvalidated(self, kernel, monkeypatch):
        import repro.compiler as compiler_mod

        def always_crashes(spec, term, **kwargs):
            raise RuntimeError("injected validation crash")

        monkeypatch.setattr(compiler_mod, "validate", always_crashes)
        result = compile_spec(kernel.spec(), _options(validate=True))
        assert result.validation is None
        assert result.diagnostics.unvalidated
        assert result.diagnostics.retries.get("validation") == 1
        assert result.degraded
        run_and_compare(kernel, result.program)

    def test_retry_with_escalated_budget_succeeds(self, kernel, monkeypatch):
        import repro.compiler as compiler_mod
        calls = {"n": 0}

        def flaky_validate(spec, term, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected transient validation crash")
            return real_validate(spec, term, **kwargs)

        monkeypatch.setattr(compiler_mod, "validate", flaky_validate)
        options = _options(validate=True)
        result = compile_spec(kernel.spec(), options)
        assert result.validation is not None
        assert result.validated
        assert result.diagnostics.retries.get("validation") == 1
        assert not result.diagnostics.unvalidated
        assert not result.degraded


# ----------------------------------------------------------------------
# Sweep resilience
# ----------------------------------------------------------------------

TINY_BUDGET = Budget(paper_seconds=180, seconds=2.0, node_limit=20_000, iter_limit=15)


@pytest.fixture(scope="module")
def cached_result(kernel):
    """One real, cheap compilation reused by the sweep fakes."""
    return compile_spec(kernel.spec(), FAST)


class TestCompileKernelResilient:
    def test_resource_failure_retried_at_halved_budget(
        self, kernel, cached_result, monkeypatch
    ):
        import repro.evaluation.common as common_mod
        budgets = []

        def fake(kernel_arg, budget=TINY_BUDGET, **overrides):
            budgets.append(budget.node_limit)
            if len(budgets) == 1:
                raise MemoryError("out of memory")
            return cached_result

        monkeypatch.setattr(common_mod, "compile_kernel_with_budget", fake)
        errors = []
        result = compile_kernel_resilient(kernel, TINY_BUDGET, errors=errors)
        assert result is cached_result
        assert errors == []
        assert budgets == [20_000, 10_000]

    def test_node_limit_text_counts_as_resource_failure(
        self, kernel, monkeypatch
    ):
        import repro.evaluation.common as common_mod
        calls = {"n": 0}

        def fake(kernel_arg, budget=TINY_BUDGET, **overrides):
            calls["n"] += 1
            raise SaturationError("node limit exceeded", kernel=kernel_arg.name)

        monkeypatch.setattr(common_mod, "compile_kernel_with_budget", fake)
        errors = []
        assert compile_kernel_resilient(kernel, TINY_BUDGET, errors=errors) is None
        assert calls["n"] == 2  # one retry
        assert len(errors) == 1
        assert errors[0].retried
        assert errors[0].stage == "saturation"

    def test_logic_failure_not_retried(self, kernel, monkeypatch):
        import repro.evaluation.common as common_mod
        calls = {"n": 0}

        def fake(kernel_arg, budget=TINY_BUDGET, **overrides):
            calls["n"] += 1
            raise ValueError("a logic bug")

        monkeypatch.setattr(common_mod, "compile_kernel_with_budget", fake)
        errors = []
        assert compile_kernel_resilient(kernel, TINY_BUDGET, errors=errors) is None
        assert calls["n"] == 1
        assert len(errors) == 1
        assert not errors[0].retried
        assert errors[0].stage == "compile"
        assert "ValueError" in errors[0].error


class TestSweepWithInjectedFailures:
    #: Three of the 21 kernels fail; the sweep must survive all three.
    FAILING = ("matmul-4x4-4x4", "2dconv-3x3-3x3", "qrdecomp-3x3")

    def test_figure5_sweep_survives_and_aggregates(
        self, cached_result, monkeypatch
    ):
        import repro.evaluation.common as common_mod
        import repro.evaluation.figure5 as figure5_mod

        def fake_compile(kernel_arg, budget=TINY_BUDGET, **overrides):
            if kernel_arg.name in self.FAILING:
                raise SaturationError(
                    "injected saturation crash", kernel=kernel_arg.name
                )
            return cached_result

        monkeypatch.setattr(common_mod, "compile_kernel_with_budget", fake_compile)
        monkeypatch.setattr(
            figure5_mod, "measure", lambda program, kernel, seed=0: (100.0, True)
        )

        kernels = table1_kernels()
        assert len(kernels) == 21
        result = run_figure5(TINY_BUDGET, kernels)

        assert len(result.rows) == len(kernels) - len(self.FAILING)
        assert len(result.errors) == 3
        assert sorted(e.kernel for e in result.errors) == sorted(self.FAILING)
        assert all(e.stage == "saturation" for e in result.errors)
        assert math.isfinite(result.geomean_vs_best)

        rendered = render_figure5(result, TINY_BUDGET)
        assert "surviving kernel(s)" in rendered
        assert "Failed kernels (3):" in rendered
        for name in self.FAILING:
            assert name in rendered

    def test_sweep_error_rendering(self):
        error = SweepError(
            kernel="matmul-4x4-4x4",
            stage="saturation",
            error="SaturationError: boom",
            elapsed=1.5,
            retried=True,
        )
        text = str(error)
        assert "matmul-4x4-4x4" in text
        assert "saturation" in text
        assert "halved-budget retry" in text
