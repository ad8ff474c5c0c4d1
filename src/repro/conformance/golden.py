"""Golden regression corpus for the paper kernels.

Saturation-based compilers fail *quietly*: a rules tweak that costs
2DConv its shuffle trick doesn't break any test -- the output is still
correct, just slower.  The golden corpus pins, for a fixed set of
Table-1 kernels under fixed deterministic options, the exact VIR the
pipeline emits: a content fingerprint (sha256 of the canonical program
text), the extracted cost, and the opcode histogram.  CI then fails
loudly on any drift, and an intentional change is recorded by
re-blessing (``repro conformance bless``), which shows up in review as
a diff of this JSON file.

Entries are keyed by kernel name.  The check distinguishes three kinds
of drift -- fingerprint-only (instruction reordering / renaming), cost
(optimization quality), and opcode mix (vectorization shape) -- so a
reviewer can tell a cosmetic change from a regression at a glance.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..compiler import CompileOptions, CompileResult, compile_spec
from ..kernels import get_kernel, table1_kernels

__all__ = [
    "GOLDEN_SCHEMA",
    "GOLDEN_KERNELS",
    "default_corpus_path",
    "golden_options",
    "compute_entries",
    "bless",
    "check",
    "DriftReport",
]

GOLDEN_SCHEMA = "conformance_golden/v1"

#: Kernels small enough to compile deterministically in seconds yet
#: covering all four paper benchmark families.  ``qrdecomp-4x4`` is the
#: one monolithic Table 1 program decided by where ``node_limit`` cuts
#: saturation, so it pins the saturation trajectory itself.  The last
#: two are the phased-saturation showcases (DESIGN.md §13): large
#: enough that the default plan engages, so the corpus also pins the
#: phased pipeline's output and the nightly conformance campaign
#: mutates it.
GOLDEN_KERNELS = (
    "2dconv-3x3-2x2",
    "matmul-2x2-2x2",
    "matmul-2x3-3x3",
    "qprod-4-3-4-3",
    "qrdecomp-3x3",
    "qrdecomp-4x4",
    "2dconv-8x8-4x4",
    "matmul-16x16-16x16",
)


def default_corpus_path() -> str:
    return os.path.join("tests", "golden", "corpus.json")


def golden_options(seed: int = 1234) -> CompileOptions:
    """Fixed deterministic compile configuration for golden entries.

    ``time_limit=None`` is required: the corpus must fingerprint
    identically on a laptop and a loaded CI runner.  Budgets are sized
    so every golden kernel reaches its fixpoint or a deterministic
    iteration stop.  Validation is off -- the corpus pins *what* is
    emitted; correctness is the differential oracle's job.
    """
    return CompileOptions(
        time_limit=None,
        iter_limit=25,
        node_limit=30_000,
        validate=False,
        track_memory=False,
        seed=seed,
    )


def _kernel_specs(names: Sequence[str]):
    by_name = {k.name: k for k in table1_kernels()}
    pairs = []
    missing = []
    for name in names:
        kernel = by_name.get(name)
        if kernel is None:
            # Off-table sizes (the phased-saturation corpus entries)
            # resolve through the parametric naming scheme.
            try:
                kernel = get_kernel(name)
            except KeyError:
                missing.append(name)
                continue
        pairs.append((name, kernel.spec()))
    if missing:
        raise KeyError(f"unknown golden kernels: {missing}")
    return pairs


def _entry(result: CompileResult) -> Dict:
    return {
        "fingerprint": result.program.fingerprint(),
        "cost": round(result.cost, 6),
        "instructions": len(result.program.instructions),
        "opcodes": dict(sorted(result.program.opcode_histogram().items())),
        "stop_reason": result.report.stop_reason,
    }


def compute_entries(
    names: Sequence[str] = GOLDEN_KERNELS,
    options: Optional[CompileOptions] = None,
    service=None,
) -> Dict[str, Dict]:
    """Compile each golden kernel and fingerprint the result.

    ``service`` routes compiles through the parallel
    :class:`repro.service.CompileService` (same options; results are
    deterministic either way, the service is just faster and sandboxed).
    """
    options = options or golden_options()
    pairs = _kernel_specs(names)
    entries: Dict[str, Dict] = {}
    if service is not None:
        items = service.compile_many([spec for _, spec in pairs], options)
        for (name, _), item in zip(pairs, items):
            if item.error is not None:
                raise RuntimeError(
                    f"golden kernel {name} failed to compile: {item.error}"
                )
            entries[name] = _entry(item.result)
    else:
        for name, spec in pairs:
            entries[name] = _entry(compile_spec(spec, options))
    return entries


def bless(
    path: Optional[str] = None,
    names: Sequence[str] = GOLDEN_KERNELS,
    options: Optional[CompileOptions] = None,
    service=None,
) -> str:
    """Recompute the corpus and write it to ``path``; returns the path."""
    path = path or default_corpus_path()
    payload = {
        "schema": GOLDEN_SCHEMA,
        "options_seed": (options or golden_options()).seed,
        "entries": compute_entries(names, options, service),
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return path


@dataclass
class DriftReport:
    """Blessed-vs-current comparison."""

    checked: int = 0
    missing: List[str] = field(default_factory=list)  # blessed, not computed
    unblessed: List[str] = field(default_factory=list)  # computed, not blessed
    #: kernel -> list of human-readable field diffs.
    drifted: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.missing and not self.unblessed and not self.drifted

    def render(self) -> str:
        lines = [
            f"golden corpus: {self.checked} kernels checked, "
            f"{len(self.drifted)} drifted"
        ]
        for name in self.missing:
            lines.append(f"  MISSING {name} (blessed but not recomputed)")
        for name in self.unblessed:
            lines.append(f"  UNBLESSED {name} (no golden entry; re-bless)")
        for name, diffs in sorted(self.drifted.items()):
            lines.append(f"  DRIFT {name}:")
            lines.extend(f"    {d}" for d in diffs)
        lines.append("VERDICT: " + ("OK" if self.ok else "DRIFT DETECTED"))
        return "\n".join(lines)


def _diff_entry(blessed: Dict, current: Dict) -> List[str]:
    diffs: List[str] = []
    if blessed.get("fingerprint") != current.get("fingerprint"):
        diffs.append(
            f"fingerprint {blessed.get('fingerprint')} -> "
            f"{current.get('fingerprint')}"
        )
    if blessed.get("cost") != current.get("cost"):
        diffs.append(f"cost {blessed.get('cost')} -> {current.get('cost')}")
    if blessed.get("instructions") != current.get("instructions"):
        diffs.append(
            f"instructions {blessed.get('instructions')} -> "
            f"{current.get('instructions')}"
        )
    if blessed.get("opcodes") != current.get("opcodes"):
        old = blessed.get("opcodes") or {}
        new = current.get("opcodes") or {}
        for op in sorted(set(old) | set(new)):
            if old.get(op, 0) != new.get(op, 0):
                diffs.append(f"opcode {op}: {old.get(op, 0)} -> {new.get(op, 0)}")
    if blessed.get("stop_reason") != current.get("stop_reason"):
        diffs.append(
            f"stop_reason {blessed.get('stop_reason')} -> "
            f"{current.get('stop_reason')}"
        )
    return diffs


def check(
    path: Optional[str] = None,
    names: Optional[Sequence[str]] = None,
    options: Optional[CompileOptions] = None,
    service=None,
) -> DriftReport:
    """Recompute and diff against the blessed corpus at ``path``."""
    path = path or default_corpus_path()
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("schema") != GOLDEN_SCHEMA:
        raise ValueError(
            f"golden schema mismatch: {payload.get('schema')!r} != "
            f"{GOLDEN_SCHEMA!r}"
        )
    blessed: Dict[str, Dict] = payload.get("entries", {})
    names = list(names) if names is not None else sorted(blessed)
    current = compute_entries(names, options, service)
    report = DriftReport(checked=len(names))
    for name in names:
        if name not in blessed:
            report.unblessed.append(name)
            continue
        diffs = _diff_entry(blessed[name], current[name])
        if diffs:
            report.drifted[name] = diffs
    for name in blessed:
        if name not in names:
            report.missing.append(name)
    return report
