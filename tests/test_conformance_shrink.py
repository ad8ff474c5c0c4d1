"""Delta-debugging shrinker: a seeded divergent kernel reduces to a
minimal repro that replays deterministically.

The divergence is injected with an intentionally unsound rewrite rule,
``(* ?a 2) -> ?a``: the right-hand side is strictly cheaper, so
extraction always prefers it and every kernel containing a doubled
subterm miscompiles -- a reliable, hermetic stand-in for a real
compiler bug.
"""

import dataclasses
import json
import os

import pytest

from repro.compiler import CompileOptions
from repro.conformance.corpus import spec_key
from repro.conformance.replay import (
    options_from_json,
    options_to_json,
    replay_repro,
)
from repro.conformance.shrink import (
    divergence_predicate,
    repro_payload,
    shrink,
    spec_size,
    write_repro,
)
from repro.dsl.ast import Term, get, num
from repro.egraph.rewrite import rewrite
from repro.frontend.lift import ArrayDecl, Spec


def unsound_options() -> CompileOptions:
    bad = rewrite("unsound-mul2", "(* ?a 2)", "?a")
    return CompileOptions(
        time_limit=None,
        iter_limit=8,
        node_limit=4000,
        validate=False,
        track_memory=False,
        seed=0,
        extra_rules=(bad,),
    )


def ugly_spec() -> Spec:
    """Four outputs, two input arrays, one buried ``*2`` trigger."""
    a0, a1 = get("a", 0), get("a", 1)
    b0, b2 = get("b", 0), get("b", 2)
    elements = (
        Term("+", (a0, b0)),
        Term("*", (Term("+", (a1, num(1.0))), b2)),
        Term("-", (Term("*", (a1, num(2.0))), b0)),
        Term("*", (b2, num(0.5))),
    )
    return Spec(
        name="ugly-seeded-divergence",
        inputs=(ArrayDecl("a", 2), ArrayDecl("b", 3)),
        outputs=(ArrayDecl("out", len(elements)),),
        term=Term("List", elements),
    )


@pytest.fixture(scope="module")
def shrunk():
    options = unsound_options()
    predicate = divergence_predicate(options, seed=0)
    spec = ugly_spec()
    assert predicate(spec), "seeded divergence did not fire"
    return spec, options, predicate, shrink(spec, predicate)


def test_shrinker_reduces_to_minimal_repro(shrunk):
    spec, _, predicate, report = shrunk
    assert report.reduced
    assert report.minimized_size < report.original_size
    assert report.minimized_size <= 10, (
        f"minimal repro still large: {report.minimized.term.to_sexpr()}"
    )
    # The minimized kernel must still trigger the bug, and must keep
    # the *2 that the unsound rule rewrites.
    assert predicate(report.minimized)
    assert "*" in report.minimized.term.to_sexpr()


def test_shrinking_is_deterministic(shrunk):
    spec, _, predicate, report = shrunk
    again = shrink(spec, predicate)
    assert spec_key(again.minimized) == spec_key(report.minimized)
    assert again.steps == report.steps
    assert again.attempts == report.attempts


def test_minimal_repro_replays_deterministically(shrunk):
    _, options, _, report = shrunk
    payload = repro_payload(report.minimized, options, seed=0)
    # The divergence depends on the injected rule, which is not JSON
    # state -- replay with the live options object.
    first = replay_repro(payload, options=options)
    second = replay_repro(payload, options=options)
    assert not first.ok and not second.ok
    assert [str(d) for d in first.divergences] == [
        str(d) for d in second.divergences
    ]
    # Under the serialized (sound) options the divergence is gone: the
    # generated test goes green once the bug is fixed.
    clean = replay_repro(payload)
    assert clean.ok


def test_write_repro_emits_replayable_pytest_case(shrunk, tmp_path):
    _, options, _, report = shrunk
    payload = repro_payload(
        report.minimized, options, seed=0, note="seeded by unsound-mul2"
    )
    json_path, test_path = write_repro(payload, directory=str(tmp_path))
    assert os.path.exists(json_path) and os.path.exists(test_path)
    on_disk = json.load(open(json_path))
    assert on_disk == payload
    body = open(test_path).read()
    assert f"def test_repro_{payload['key']}()" in body
    assert "replay_repro" in body


def test_shrink_rejects_non_divergent_input():
    options = unsound_options()
    predicate = divergence_predicate(options, seed=0)
    benign = Spec(
        name="benign",
        inputs=(ArrayDecl("a", 2),),
        outputs=(ArrayDecl("out", 1),),
        term=Term("List", (get("a", 0),)),
    )
    assert spec_size(benign) > 0
    with pytest.raises(ValueError):
        shrink(benign, predicate)


def test_repro_options_round_trip_every_serialized_field():
    """A repro replays under the options it diverged under: every
    CompileOptions field except the non-JSON ``extra_rules`` and
    ``observability`` and the plumbing ``checkpoint_dir`` and
    ``deadline``, each set away from its default, survives the JSON
    round trip."""
    changed = {
        "vector_width": 8,
        "iter_limit": 7,
        "node_limit": 1234,
        "time_limit": None,
        "match_limit": 50,
        "enable_vector_rules": False,
        "validate": False,
        "track_memory": True,
        "select_best_candidate": True,
        "checkpoint_stride": 2,
        "seed": 99,
        "phases": "off",
    }
    skipped = {"extra_rules", "observability", "checkpoint_dir", "deadline"}
    names = {f.name for f in dataclasses.fields(CompileOptions)}
    assert set(changed) == names - skipped
    defaults = CompileOptions()
    for name, value in changed.items():
        assert value != getattr(defaults, name), name
    payload = json.loads(json.dumps(options_to_json(CompileOptions(**changed))))
    restored = options_from_json(payload)
    for name, value in changed.items():
        assert getattr(restored, name) == value, name


def test_repro_options_with_a_removed_field_still_load():
    """Repros written while ``fault_tolerance`` was a CompileOptions
    field still load: the removed key is ignored, the rest is read."""
    restored = options_from_json({"fault_tolerance": False, "iter_limit": 7})
    assert restored == CompileOptions(iter_limit=7)
