"""Delta-debugging shrinker: divergent kernel -> minimal repro.

A fuzz divergence usually arrives on an ugly kernel -- eight outputs,
grafted subtrees, three input arrays -- of which one two-node
expression actually triggers the bug.  The shrinker reduces the kernel
while a caller-supplied *predicate* ("still divergent?") keeps
holding, in the classic ddmin style: coarse structural deletions
first, then local simplifications, iterated to a fixpoint.

Reduction passes, in order:

1. **output removal** -- ddmin over the output list (halves, then
   single elements);
2. **subterm hoisting** -- replace an operator node by one of its
   children (the smallest semantic change that deletes structure);
3. **leaf collapsing** -- replace a subterm by ``0`` or ``1``;
4. **input pruning** -- drop arrays no Get references, then shrink
   each array to its highest referenced index + 1.

Everything is deterministic: passes enumerate candidates in a fixed
order and take the first reduction that keeps the predicate true, so
the same divergence shrinks to the same minimal repro on any machine.
The result is packaged as a JSON payload plus a generated pytest file
(see :mod:`repro.conformance.replay`) under ``tests/repros/``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..compiler import CompileOptions, compile_spec
from ..dsl.ast import Term, num
from ..frontend.lift import ArrayDecl, Spec
from ..seeding import stable_rng
from ..validation.fuzz import check_result
from .corpus import spec_key, spec_to_json
from .mutate import rebuild_spec
from .replay import REPRO_SCHEMA, options_to_json

__all__ = [
    "ShrinkReport",
    "divergence_predicate",
    "shrink",
    "spec_size",
    "repro_payload",
    "write_repro",
]

Predicate = Callable[[Spec], bool]


def spec_size(spec: Spec) -> int:
    """Reduction metric: total term nodes plus total input length."""

    def nodes(term: Term) -> int:
        return 1 + sum(nodes(a) for a in term.args)

    return nodes(spec.term) + sum(d.length for d in spec.inputs)


@dataclass
class ShrinkReport:
    """Outcome of one shrink run."""

    original: Spec
    minimized: Spec
    original_size: int
    minimized_size: int
    rounds: int
    #: Predicate evaluations spent (the shrinker's cost unit).
    attempts: int
    #: Human-readable log of accepted reductions, in order.
    steps: List[str] = field(default_factory=list)

    @property
    def reduced(self) -> bool:
        return self.minimized_size < self.original_size


def divergence_predicate(
    options: CompileOptions,
    seed: int = 0,
    trials: int = 3,
    tolerance: float = 1e-5,
) -> Predicate:
    """The canonical "still divergent?" predicate.

    Compiles the candidate under ``options`` and re-runs the
    differential oracle.  The check RNG derives from the candidate's
    *content*, so the same candidate always sees the same inputs --
    without that, shrinking chases a moving target and the "minimal"
    result depends on evaluation order.  A candidate whose compilation
    *raises* is rejected (that is a different bug class; shrinking must
    preserve the divergence, not trade it for a crash).
    """

    def predicate(candidate: Spec) -> bool:
        try:
            result = compile_spec(candidate, options)
        except Exception:  # noqa: BLE001 - crash != divergence
            return False
        rng = stable_rng(seed, "shrink-check", spec_key(candidate))
        return bool(check_result(candidate, result, rng, trials, tolerance))

    return predicate


# ----------------------------------------------------------------------
# Reduction passes.  Each yields candidate (spec, description) pairs in
# deterministic order; ``shrink`` accepts the first that satisfies the
# predicate and is strictly smaller.
# ----------------------------------------------------------------------


def _ddmin_chunks(n: int) -> List[Tuple[int, int]]:
    """(start, stop) removal windows: halves first, then singletons."""
    windows: List[Tuple[int, int]] = []
    size = n // 2
    while size >= 1:
        for start in range(0, n, size):
            windows.append((start, min(start + size, n)))
        if size == 1:
            break
        size //= 2
    # Dedup while preserving order (halving can repeat singletons).
    seen = set()
    out = []
    for w in windows:
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def _drop_outputs(spec: Spec):
    elements = list(spec.term.args)
    if len(elements) <= 1:
        return
    for start, stop in _ddmin_chunks(len(elements)):
        if stop - start >= len(elements):
            continue
        remaining = elements[:start] + elements[stop:]
        yield (
            rebuild_spec(spec.name, spec.inputs, remaining),
            f"drop outputs [{start}:{stop}]",
        )


def _subterm_paths(term: Term) -> List[Tuple[Tuple[int, ...], Term]]:
    out: List[Tuple[Tuple[int, ...], Term]] = []
    stack: List[Tuple[Tuple[int, ...], Term]] = [((), term)]
    while stack:
        path, node = stack.pop()
        out.append((path, node))
        if node.op == "Get":
            continue
        for i in range(len(node.args) - 1, -1, -1):
            stack.append((path + (i,), node.args[i]))
    return out


def _replace_path(term: Term, path: Tuple[int, ...], new: Term) -> Term:
    if not path:
        return new
    args = list(term.args)
    args[path[0]] = _replace_path(args[path[0]], path[1:], new)
    return Term(term.op, tuple(args), term.value)


def _hoist_children(spec: Spec):
    elements = list(spec.term.args)
    for i, element in enumerate(elements):
        for path, node in _subterm_paths(element):
            if node.op == "Get" or not node.args:
                continue
            for k, child in enumerate(node.args):
                reduced = list(elements)
                reduced[i] = _replace_path(element, path, child)
                yield (
                    rebuild_spec(spec.name, spec.inputs, reduced),
                    f"hoist child {k} of {node.op} in output {i}",
                )


def _collapse_leaves(spec: Spec):
    elements = list(spec.term.args)
    for i, element in enumerate(elements):
        for path, node in _subterm_paths(element):
            if node.op == "Num":
                continue
            for value in (0.0, 1.0):
                reduced = list(elements)
                reduced[i] = _replace_path(element, path, num(value))
                yield (
                    rebuild_spec(spec.name, spec.inputs, reduced),
                    f"collapse {node.op} in output {i} to {value}",
                )


def _prune_inputs(spec: Spec):
    used: Dict[str, int] = {}
    for _, node in _subterm_paths(spec.term):
        if node.op == "Get" and node.args[0].op == "Symbol":
            name = str(node.args[0].value)
            index = int(node.args[1].value)
            used[name] = max(used.get(name, -1), index)
    pruned = tuple(
        ArrayDecl(d.name, used[d.name] + 1)
        for d in spec.inputs
        if d.name in used
    ) or spec.inputs[:1]  # keep one array: zero-input specs are invalid
    if [(d.name, d.length) for d in pruned] != [
        (d.name, d.length) for d in spec.inputs
    ]:
        yield (
            rebuild_spec(spec.name, pruned, list(spec.term.args)),
            "prune/trim input arrays",
        )


_PASSES = (_drop_outputs, _hoist_children, _collapse_leaves, _prune_inputs)


def shrink(
    spec: Spec,
    predicate: Predicate,
    max_attempts: int = 2000,
) -> ShrinkReport:
    """Reduce ``spec`` while ``predicate`` holds; fixpoint ddmin.

    ``predicate(spec)`` must already be true (the caller observed the
    divergence); a ``ValueError`` is raised otherwise, since shrinking
    an unreproducible report would silently return garbage.
    """
    attempts = 1
    if not predicate(spec):
        raise ValueError(
            f"divergence does not reproduce on {spec.name!r}; refusing to "
            "shrink a non-failing kernel"
        )
    current = spec
    current_size = spec_size(spec)
    steps: List[str] = []
    rounds = 0
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        rounds += 1
        for reduction_pass in _PASSES:
            for candidate, description in reduction_pass(current):
                if attempts >= max_attempts:
                    break
                size = spec_size(candidate)
                if size >= current_size:
                    continue
                attempts += 1
                if predicate(candidate):
                    current, current_size = candidate, size
                    steps.append(f"{description} (size {size})")
                    progress = True
                    break  # restart pass on the smaller kernel
            if progress:
                break
    minimized = rebuild_spec(
        f"{spec.name}-min", current.inputs, list(current.term.args)
    )
    return ShrinkReport(
        original=spec,
        minimized=minimized,
        original_size=spec_size(spec),
        minimized_size=spec_size(minimized),
        rounds=rounds,
        attempts=attempts,
        steps=steps,
    )


# ----------------------------------------------------------------------
# Repro packaging
# ----------------------------------------------------------------------


def repro_payload(
    spec: Spec,
    options: CompileOptions,
    seed: int = 0,
    trials: int = 3,
    tolerance: float = 1e-5,
    note: str = "",
) -> Dict:
    """Self-contained JSON payload replayable by
    :func:`repro.conformance.replay.replay_repro`."""
    return {
        "schema": REPRO_SCHEMA,
        "key": spec_key(spec),
        "spec": spec_to_json(spec),
        "options": options_to_json(options),
        "seed": seed,
        "trials": trials,
        "tolerance": tolerance,
        "note": note,
    }


_TEST_TEMPLATE = '''"""Auto-generated minimal repro for a fuzz divergence.

Generated by ``repro conformance shrink``; do not edit by hand.  The
test replays the embedded kernel through the full pipeline and fails
while the divergence is still present -- once the underlying bug is
fixed it goes green and stays as a regression guard.

{note}"""

import json

from repro.conformance.replay import replay_repro

PAYLOAD = json.loads(r\'\'\'
{payload}
\'\'\')


def test_repro_{slug}():
    report = replay_repro(PAYLOAD)
    assert report.ok, "divergence reproduced:\\n" + report.render()
'''


def write_repro(
    payload: Dict,
    directory: str = os.path.join("tests", "repros"),
) -> Tuple[str, str]:
    """Write ``<key>.json`` plus a replayable ``test_repro_<key>.py``
    into ``directory``; returns (json_path, test_path)."""
    os.makedirs(directory, exist_ok=True)
    key = payload["key"]
    json_path = os.path.join(directory, f"{key}.json")
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    test_path = os.path.join(directory, f"test_repro_{key}.py")
    note = payload.get("note", "")
    body = _TEST_TEMPLATE.format(
        note=note + "\n" if note else "",
        payload=json.dumps(payload, indent=2, sort_keys=True),
        slug=key,
    )
    with open(test_path, "w") as handle:
        handle.write(body)
    return json_path, test_path
