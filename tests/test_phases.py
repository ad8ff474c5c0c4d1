"""Phased saturation: the sketch DSL, phase plans, rule tagging, and
phase-boundary determinism (DESIGN.md §13).

The determinism contract under test: a phase boundary is a pure
function of its input term -- extracting after phase N and re-seeding
yields the same final program as a fresh run of phases N+1.. from that
term, and none of it depends on PYTHONHASHSEED.
"""

import os
import subprocess
import sys
import time

import pytest

from repro.baselines import baseline_program
from repro.compiler import CompileOptions, _selected_plan, compile_spec
from repro.dsl.ast import Term
from repro.egraph.egraph import EGraph
from repro.egraph.rewrite import CustomRewrite
from repro.evaluation.common import measure
from repro.kernels import get_kernel
from repro.observability import Observability
from repro.phases import (
    ON_MISS_POLICIES,
    All,
    Contains,
    NoneOf,
    Not,
    Phase,
    PhasePlan,
    default_plan,
    execute_plan,
    op_counts,
)
from repro.rules import build_ruleset

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _num(v):
    return Term("Num", value=v)


def _sym(s):
    return Term("Symbol", value=s)


#: Concat(Vec(1, 2), Vec(a, 4)) -- a vectorized shape.
VEC_TERM = Term(
    "Concat",
    (
        Term("Vec", (_num(1), _num(2))),
        Term("Vec", (_sym("a"), _num(4))),
    ),
)
#: List(a + b * 2) -- a scalar shape with one + and one *.
SCALAR_TERM = Term(
    "List", (Term("+", (_sym("a"), Term("*", (_sym("b"), _num(2))))),)
)
#: The operator histograms sketches score (one count per phase round).
VEC = op_counts(VEC_TERM)
SCALAR = op_counts(SCALAR_TERM)


# ------------------------------------------------------------- sketches


def test_contains_and_count():
    assert VEC == {"Concat": 1, "Vec": 2, "Num": 3, "Symbol": 1}
    # Unique subterms, not tree occurrences.
    a = _sym("a")
    assert op_counts(Term("+", (a, a))) == {"+": 1, "Symbol": 1}
    assert Contains("Vec").satisfied(VEC)
    assert not Contains("Vec").satisfied(SCALAR)
    assert Contains("Vec").score(SCALAR) == 0.0


def test_none_of_scores_decay_with_violations():
    sketch = NoneOf(("*", "+"))
    assert sketch.satisfied(VEC)
    # SCALAR_TERM has one + and one * -> 2 violations.
    assert sketch.score(SCALAR) == pytest.approx(1.0 / 3.0)
    assert not sketch.satisfied(SCALAR)


def test_not_and_junctions():
    assert Not(Contains("List")).satisfied(VEC)
    assert not Not(Contains("List")).satisfied(SCALAR)
    both = All(Contains("Concat"), Contains("Vec"))
    assert both.satisfied(VEC)
    assert both.score(SCALAR) == 0.0
    assert both.score({"Vec": 1}) == 0.5


def test_bias_hints_required_and_forbidden():
    layout_goal = All(
        Contains("Concat"), Contains("Vec"), Not(Contains("List"))
    )
    assert layout_goal.required_ops() == frozenset({"Concat", "Vec"})
    # Not() swaps sides: the inner Contains' requirement becomes a
    # forbidden op, which the executor turns into an extraction penalty.
    assert layout_goal.forbidden_ops() == frozenset({"List"})
    assert NoneOf(("*",)).forbidden_ops() == frozenset({"*"})


# ---------------------------------------------------------------- plans


def test_plan_fingerprint_is_stable_and_content_bearing():
    assert default_plan(4).fingerprint() == default_plan(4).fingerprint()
    assert default_plan(4).fingerprint() != default_plan(8).fingerprint()
    plan = default_plan(4)
    edited = PhasePlan(
        plan.name,
        (plan.phases[0],) + tuple(
            Phase(
                name=p.name,
                rule_tags=p.rule_tags,
                iter_limit=p.iter_limit + 1,
                sketch=p.sketch,
                on_miss=p.on_miss,
                extend_limit=p.extend_limit,
            )
            for p in plan.phases[1:]
        ),
    )
    assert edited.fingerprint() != plan.fingerprint()


def test_plan_validation():
    assert ON_MISS_POLICIES == ("extend", "skip")
    for policy in ("explode", "fail"):
        with pytest.raises(ValueError):
            Phase(name="x", on_miss=policy)
    with pytest.raises(ValueError):
        Phase(name="x", extend_limit=0)
    with pytest.raises(ValueError):
        PhasePlan("empty", ())
    # Tag order is canonicalized so it cannot move the fingerprint.
    assert Phase(name="x", rule_tags=("b", "a")) == Phase(
        name="x", rule_tags=("a", "b")
    )


def test_rule_tag_filtering():
    everything = {r.name for r in build_ruleset()}
    split_only = {r.name for r in build_ruleset(only_tags=("split",))}
    mac_only = {r.name for r in build_ruleset(only_tags=("mac",))}
    assert split_only and split_only < everything
    assert any(name.startswith("list-split") for name in split_only)
    assert any(name.startswith("vec-mac") for name in mac_only)
    assert not any(name.startswith("vec-mac") for name in split_only)
    # Untagged rules survive every filter by design (a project-local
    # extra rule should not silently vanish from phased compiles)...
    from repro.egraph.rewrite import rewrite

    extra = rewrite("extra-untagged", "(+ ?a 0)", "?a")
    assert not extra.tags
    filtered = {
        r.name
        for r in build_ruleset(only_tags=("mac",), extra_rules=[extra])
    }
    assert "extra-untagged" in filtered
    # ...and a filter matching nothing is a loud error, not a silent
    # empty saturation.
    with pytest.raises(ValueError):
        build_ruleset(only_tags=("no-such-tag",))


# ------------------------------------------------------- auto selection


def test_auto_selection_thresholds():
    small = get_kernel("matmul-2x2-2x2").spec()
    large = get_kernel("2dconv-8x8-4x4").spec()
    assert _selected_plan(small, CompileOptions(phases="auto")) is None
    assert _selected_plan(large, CompileOptions(phases="auto")) == default_plan(4)
    assert _selected_plan(small, CompileOptions(phases="on")) == default_plan(4)
    assert _selected_plan(large, CompileOptions(phases="off")) is None

    from repro.errors import SaturationError

    with pytest.raises(SaturationError):
        _selected_plan(small, CompileOptions(phases="maybe"))


def test_auto_is_byte_identical_to_off_below_threshold():
    """Existing quick kernels must be untouched by the phasing knob:
    auto stays monolithic below the threshold."""
    spec = get_kernel("2dconv-3x3-2x2").spec()
    options = CompileOptions(time_limit=None, validate=False, seed=0)
    auto = compile_spec(spec, options)
    off = compile_spec(
        spec, CompileOptions(time_limit=None, validate=False, seed=0,
                             phases="off")
    )
    assert auto.phases is None and off.phases is None
    assert auto.program.fingerprint() == off.program.fingerprint()
    assert auto.c_code == off.c_code
    assert auto.cost == off.cost


# ------------------------------------------- phase-boundary determinism


class _BoundarySpec:
    """Spec stand-in seeding a plan run from a phase-boundary term."""

    def __init__(self, name, term):
        self.name = name
        self.term = term


def test_phase_boundary_is_a_pure_function_of_its_term():
    """Extract after phase N + re-seed == fresh run of phases N+1..
    from that term."""
    spec = get_kernel("2dconv-3x3-2x2").spec()
    options = CompileOptions(time_limit=None, validate=False, phases="on",
                             seed=0)
    plan = default_plan(options.vector_width)

    full = execute_plan(spec, options, plan)
    assert full.plan_report.completed

    prefix = PhasePlan("prefix", plan.phases[:1])
    suffix = PhasePlan("suffix", plan.phases[1:])
    boundary = execute_plan(spec, options, prefix)
    assert not boundary.failed
    resumed = execute_plan(
        _BoundarySpec(spec.name, boundary.term), options, suffix
    )
    assert not resumed.failed
    assert resumed.term == full.term


_HASHSEED_SCRIPT = """
import json
from repro.compiler import CompileOptions, compile_spec
from repro.kernels import get_kernel

kernel = get_kernel("matmul-2x2-2x2")
options = CompileOptions(time_limit=None, validate=False, phases="on", seed=0)
result = compile_spec(kernel.spec(), options)
print(json.dumps({
    "fingerprint": result.program.fingerprint(),
    "cost": result.cost,
    "plan": result.phases.summary(),
    "rounds": [len(p.rounds) for p in result.phases.phases],
}, sort_keys=True))
"""


def _run_hashseed(hashseed: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.run(
        [sys.executable, "-c", _HASHSEED_SCRIPT],
        capture_output=True,
        env=env,
        cwd=REPO,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_phased_compile_is_hashseed_independent():
    assert _run_hashseed("1") == _run_hashseed("2"), (
        "phased compilation output depends on PYTHONHASHSEED; phase "
        "checkpoints would not resume across machines"
    )


def test_phase_rounds_keep_dirty_set_matching():
    """Each round's scheduler searches incrementally, like a monolithic
    run: a full rescan every iteration would emit the same program, so
    only the matcher counters can tell."""
    spec = get_kernel("2dconv-3x3-2x2").spec()
    options = CompileOptions(time_limit=None, validate=False, phases="on",
                             seed=0)
    report = compile_spec(spec, options).report
    assert sum(s.classes_skipped for s in report.rule_stats.values()) > 0


def test_phased_compile_seeds_once_per_round(monkeypatch):
    """Every ``add_term`` of a phased compile seeds one round's graph:
    the spec is seeded once, by phase 1's first round, and the plan's
    ``seed_version`` is that round's."""
    seeds = []
    add_term = EGraph.add_term

    def counting(self, term):
        seeds.append(term)
        return add_term(self, term)

    monkeypatch.setattr(EGraph, "add_term", counting)
    spec = get_kernel("2dconv-3x3-2x2").spec()
    options = CompileOptions(time_limit=None, validate=False, phases="on",
                             seed=0)
    result = compile_spec(spec, options)
    rounds = [r for phase in result.phases.phases for r in phase.rounds]
    assert len(seeds) == len(rounds) > 1
    assert seeds[0] is spec.term
    fresh = EGraph()
    add_term(fresh, spec.term)
    assert result.report.seed_version == rounds[0].seed_version == fresh.version


def test_phase_start_logs_the_seed_node_count():
    """The flight recorder's ``phase_start`` reports the size of the
    graph the phase is seeded with, not the root's arity."""
    spec = get_kernel("2dconv-3x3-2x2").spec()
    options = CompileOptions(time_limit=None, validate=False, phases="on",
                             seed=0, observability=Observability.on())
    result = compile_spec(spec, options)
    logged = [
        e["details"]["seed_size"]
        for e in result.observability.recorder["events"]
        if e["kind"] == "phase_start"
    ]
    seeded = [phase.rounds[0].seed_version for phase in result.phases.phases]
    assert len(seeded) > 1
    assert logged == seeded


def test_plan_cut_before_phase_one_extracts_the_spec():
    """A deadline already gone when the plan starts runs no phase; the
    executor seeds the spec into a graph of its own for extraction."""
    spec = get_kernel("2dconv-3x3-2x2").spec()
    options = CompileOptions(time_limit=None, validate=False, phases="on",
                             seed=0, deadline=time.time() - 1.0)
    execution = execute_plan(spec, options, default_plan(options.vector_width))
    assert execution.plan_report.phases == []
    assert execution.report.stop_reason == "time_limit"
    assert execution.term is spec.term
    assert execution.egraph.lookup_term(spec.term) == execution.root
    assert execution.report.seed_version == execution.egraph.version > 0


@pytest.mark.parametrize(
    "name",
    [
        "2dconv-8x8-4x4",
        pytest.param("matmul-16x16-16x16", marks=pytest.mark.slow),
    ],
)
def test_phased_beats_monolithic_at_the_same_node_budget(name):
    """The default plan reaches vector code at a node budget where one
    monolithic saturation cannot: the phased compile completes its plan,
    validates and beats the naive program's cycles (1,059 against 24,553
    on the 2DConv, 1,472 against 40,632 on the MatMul).  A monolithic
    run capped at the largest node limit any phase round used (4,000
    and 13,249) stops on that limit with a slower program (1,561 and
    4,473 cycles)."""
    kernel = get_kernel(name)
    spec = kernel.spec()
    phased = compile_spec(
        spec,
        CompileOptions(time_limit=None, validate=True, phases="on", seed=0),
    )
    assert phased.phases.completed
    assert phased.validated and not phased.degraded
    cycles, correct = measure(phased.program, kernel, 0)
    naive_cycles, _ = measure(baseline_program("naive", kernel), kernel, 0)
    assert correct
    assert cycles < naive_cycles

    budget = max(r.node_limit for p in phased.phases.phases for r in p.rounds)
    monolithic = compile_spec(
        spec,
        CompileOptions(time_limit=None, node_limit=budget, validate=False,
                       phases="off", seed=0),
    )
    assert monolithic.report.stop_reason == "node_limit"
    monolithic_cycles, monolithic_correct = measure(monolithic.program, kernel, 0)
    assert monolithic_correct
    assert cycles < monolithic_cycles


def test_phase_rounds_respect_the_compile_node_limit():
    """A shrunk ``node_limit`` (supervisor retry, gateway brownout,
    ``repro compile --node-limit``) caps every phase round: 2DConv
    8x8/4x4 rounds otherwise resolve 4,000 nodes from the phase floor.
    The capped compile still emits a correct program."""
    kernel = get_kernel("2dconv-8x8-4x4")
    result = compile_spec(
        kernel.spec(),
        CompileOptions(time_limit=None, node_limit=2_000, validate=True,
                       seed=0),
    )
    limits = [r.node_limit for p in result.phases.phases for r in p.rounds]
    assert limits and max(limits) <= 2_000
    assert result.validated
    _, correct = measure(result.program, kernel, 0)
    assert correct


def _crashing_rule(tag):
    def searcher(egraph):
        raise RuntimeError("injected searcher crash")

    return CustomRewrite(f"crash-in-{tag}", searcher, tags=(tag,))


@pytest.mark.parametrize(
    "tag, failed_phase, action",
    [
        ("vectorize", "vectorize",
         "falling back to the last successful phase's extracted term"),
        ("split", "layout", "extracting from the failed phase's e-graph"),
    ],
    ids=["vectorize", "split"],
)
def test_crashed_phase_round_takes_the_ladder_rung(tag, failed_phase, action):
    """A rule that crashes inside a phase fails the plan.  Past phase
    one the compile extracts from the last successful phase's term; in
    phase one it extracts from the failed phase's own graph.  Either
    way the program validates and runs correctly."""
    kernel = get_kernel("2dconv-8x8-4x4")
    result = compile_spec(
        kernel.spec(),
        CompileOptions(time_limit=None, validate=True, phases="on", seed=0,
                       extra_rules=(_crashing_rule(tag),)),
    )
    assert result.degraded
    assert [(d.stage, d.action) for d in result.diagnostics.degradations] == [
        ("saturation", action)
    ]
    assert not result.phases.completed
    assert result.phases.failed_phase == failed_phase
    assert result.phases.phases[-1].outcome == "failed"
    assert result.validated
    _, correct = measure(result.program, kernel, 0)
    assert correct
