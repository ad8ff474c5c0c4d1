"""Guided-campaign acceptance: coverage superiority over the blind
random baseline at a fixed seed and budget, plus campaign determinism.

The campaigns are fully deterministic (stable RNG streams, no timing
features), so the pinned seed/budget below either always passes or
always fails -- there is no flake margin to tune.
"""

import pytest

from repro.conformance.fuzzer import conformance_options, run_campaign

BUDGET = 80
SEED = 1


@pytest.fixture(scope="module")
def campaigns(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("corpus")
    guided = run_campaign(
        BUDGET, seed=SEED, mode="guided", corpus_dir=str(corpus)
    )
    blind = run_campaign(BUDGET, seed=SEED, mode="random")
    return guided, blind


@pytest.mark.fuzz
@pytest.mark.slow
def test_guided_beats_random_at_same_budget(campaigns):
    """The tentpole acceptance criterion: at the same seed and budget,
    coverage guidance must reach strictly more behavior classes than
    blind random generation."""
    guided, blind = campaigns
    assert guided.executed == blind.executed == BUDGET
    assert guided.coverage.cardinality > blind.coverage.cardinality, (
        f"guided {guided.coverage.cardinality} <= "
        f"random {blind.coverage.cardinality}"
    )


@pytest.mark.fuzz
@pytest.mark.slow
def test_sound_compiler_has_no_divergences(campaigns):
    guided, blind = campaigns
    assert guided.ok, [d for _, d in guided.divergent]
    assert blind.ok, [d for _, d in blind.divergent]
    assert guided.compiled == blind.compiled == BUDGET


@pytest.mark.fuzz
@pytest.mark.slow
def test_guided_keeps_coverage_extending_seeds(campaigns):
    """Only the guided mode maintains a corpus; kept seeds are exactly
    the kernels that extended the coverage map."""
    guided, blind = campaigns
    assert guided.seeds_kept > 0
    assert guided.corpus_size >= guided.seeds_kept
    assert blind.seeds_kept == 0
    # The coverage curve is monotone and ends at the final cardinality.
    curve = guided.coverage_curve
    assert all(b >= a for a, b in zip(curve, curve[1:]))
    assert curve[-1] == guided.coverage.cardinality


@pytest.mark.fuzz
def test_campaign_is_deterministic():
    """Identical (seed, budget, mode) must reproduce the coverage map
    and its growth curve feature-for-feature -- the property the
    nightly deterministic-replay gate enforces across processes."""
    a = run_campaign(15, seed=4, mode="guided")
    b = run_campaign(15, seed=4, mode="guided")
    assert a.coverage.features() == b.coverage.features()
    assert a.coverage_curve == b.coverage_curve
    assert a.seeds_kept == b.seeds_kept


def test_conformance_options_are_replay_safe():
    """Campaign compiles must not depend on wall-clock deadlines; small
    fixed work budgets keep a 200-kernel smoke campaign short, and the
    oracle itself is the check, so validation is off."""
    options = conformance_options(seed=9)
    assert options.time_limit is None
    assert options.node_limit <= 8_000 and options.iter_limit <= 8
    assert options.seed == 9
    assert not options.validate
    assert options.track_memory is False
    assert options.observability is not None
