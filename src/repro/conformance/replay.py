"""Deterministic replay of packaged divergence repros.

A repro payload (:func:`repro.conformance.shrink.repro_payload`) is a
self-contained JSON document: the minimal kernel, the scalar compile
options it diverged under, and the differential-check parameters.
``replay_repro`` runs the exact same compile + check and reports
whether the divergence still manifests -- byte-identically on any
machine, because every random stream derives from the payload content
via :mod:`repro.seeding` and compiles run without wall-clock limits.

The generated pytest files under ``tests/repros/`` are thin wrappers
around this module, so fixing a replay bug fixes every repro at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from ..compiler import CompileOptions, compile_spec
from ..frontend.lift import Spec
from ..seeding import stable_rng
from ..validation.fuzz import FuzzDivergence, check_result
from .corpus import spec_from_json, spec_key

__all__ = [
    "REPRO_SCHEMA",
    "options_to_json",
    "options_from_json",
    "ReplayReport",
    "replay_repro",
]

REPRO_SCHEMA = "conformance_repro/v1"

#: CompileOptions fields a repro serializes: every field but the ones
#: that are not plain JSON (``extra_rules``, ``observability``) or only
#: name plumbing (``checkpoint_dir``, ``deadline``) -- a repro must be a
#: plain-JSON artifact; divergences that depend on injected rules
#: replay by passing the same ``options`` object in-process.
_OPTION_FIELDS = tuple(
    f.name
    for f in fields(CompileOptions)
    if f.name
    not in ("extra_rules", "observability", "checkpoint_dir", "deadline")
)


def options_to_json(options: CompileOptions) -> Dict:
    return {name: getattr(options, name) for name in _OPTION_FIELDS}


def options_from_json(payload: Dict) -> CompileOptions:
    """Options from a repro payload.  Only listed names are read, so
    payloads written before a field was removed still load."""
    kwargs = {name: payload[name] for name in _OPTION_FIELDS if name in payload}
    return CompileOptions(**kwargs)


@dataclass
class ReplayReport:
    """Outcome of replaying one repro payload."""

    spec: Spec
    key: str
    divergences: List[FuzzDivergence] = field(default_factory=list)
    compile_error: str = ""

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.compile_error

    def render(self) -> str:
        lines = [f"repro {self.key} ({self.spec.name}):"]
        if self.compile_error:
            lines.append(f"  compile error: {self.compile_error}")
        for d in self.divergences:
            lines.append(f"  {d}")
        if self.ok:
            lines.append("  OK -- divergence no longer reproduces")
        return "\n".join(lines)


def replay_repro(
    payload: Dict,
    options: Optional[CompileOptions] = None,
) -> ReplayReport:
    """Re-run a packaged repro; ``options`` overrides the serialized
    ones (used when the original divergence depended on non-JSON state
    such as injected rules)."""
    if payload.get("schema") != REPRO_SCHEMA:
        raise ValueError(
            f"repro schema mismatch: {payload.get('schema')!r} != "
            f"{REPRO_SCHEMA!r}"
        )
    spec = spec_from_json(payload["spec"])
    key = payload.get("key") or spec_key(spec)
    if options is None:
        options = options_from_json(payload.get("options", {}))
    report = ReplayReport(spec=spec, key=key)
    try:
        result = compile_spec(spec, options)
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        report.compile_error = f"{type(exc).__name__}: {exc}"
        return report
    rng = stable_rng(int(payload.get("seed", 0)), "shrink-check", key)
    report.divergences = check_result(
        spec,
        result,
        rng,
        int(payload.get("trials", 3)),
        float(payload.get("tolerance", 1e-5)),
    )
    return report
