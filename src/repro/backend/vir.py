"""The machine-independent vector IR (paper Section 4).

"To capture the essence of vector computation with data movement, the
Diospyros backend defines a machine-independent vector intermediate
representation."  Ours is a small register machine:

* unlimited scalar (``s0, s1, ...``) and vector (``v0, v1, ...``)
  virtual registers;
* memory is a set of named arrays (kernel inputs and outputs);
* vector registers hold ``width`` lanes; ``vec-shuffle`` (one source
  register) and ``vec-select`` (two source registers) take an arbitrary
  immediate index vector, exactly the unrestricted-data-movement
  contract the paper's IR exposes;
* control flow (labels and conditional branches) exists so that the
  *baseline* loop-nest kernels are genuinely loops paying genuine
  branch and induction-variable costs -- Diospyros-generated kernels
  are straight-line.

The cycle-level simulator in :mod:`repro.machine.simulator` executes
this IR directly; :mod:`repro.backend.codegen` pretty-prints it as
Tensilica-style C++ intrinsics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

__all__ = [
    "Instr",
    "SConst",
    "SMove",
    "SBin",
    "SUn",
    "SLoad",
    "SLoadIdx",
    "SStore",
    "SStoreIdx",
    "VConst",
    "VLoad",
    "VLoadIdx",
    "VStore",
    "VStoreIdx",
    "VShuffle",
    "VSelect",
    "VBin",
    "VUn",
    "VMac",
    "VInsert",
    "VSplat",
    "Label",
    "Jump",
    "Branch",
    "Program",
]

Reg = str

#: Binary scalar/vector arithmetic operators the IR supports.
BIN_OPS = ("+", "-", "*", "/", "min", "max")
UN_OPS = ("neg", "sqrt", "sgn")
CMP_OPS = ("lt", "le", "eq", "ne", "ge", "gt")


class Instr:
    """Base class for IR instructions.

    ``opcode`` identifies the instruction for the machine cost table;
    ``defs()`` / ``uses()`` support LVN and dead-code elimination.
    """

    opcode: str = "instr"

    def defs(self) -> Tuple[Reg, ...]:
        return ()

    def uses(self) -> Tuple[Reg, ...]:
        return ()

    def is_pure(self) -> bool:
        """Pure instructions (no store, no control flow) are subject to
        value numbering and dead-code elimination."""
        return False


# ---------------------------------------------------------------------------
# Scalar instructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SConst(Instr):
    dst: Reg
    value: float
    opcode = "sconst"

    def defs(self):
        return (self.dst,)

    def is_pure(self):
        return True


@dataclass(frozen=True)
class SMove(Instr):
    dst: Reg
    src: Reg
    opcode = "smove"

    def defs(self):
        return (self.dst,)

    def uses(self):
        return (self.src,)

    def is_pure(self):
        return True


@dataclass(frozen=True)
class SBin(Instr):
    op: str
    dst: Reg
    a: Reg
    b: Reg

    def __post_init__(self):
        if self.op not in BIN_OPS:
            raise ValueError(f"unknown scalar binary op {self.op!r}")

    @property
    def opcode(self) -> str:  # type: ignore[override]
        return f"sbin.{self.op}"

    def defs(self):
        return (self.dst,)

    def uses(self):
        return (self.a, self.b)

    def is_pure(self):
        return True


@dataclass(frozen=True)
class SUn(Instr):
    op: str
    dst: Reg
    a: Reg

    def __post_init__(self):
        if self.op not in UN_OPS:
            raise ValueError(f"unknown scalar unary op {self.op!r}")

    @property
    def opcode(self) -> str:  # type: ignore[override]
        return f"sun.{self.op}"

    def defs(self):
        return (self.dst,)

    def uses(self):
        return (self.a,)

    def is_pure(self):
        return True


@dataclass(frozen=True)
class SLoad(Instr):
    """Scalar load from ``array[offset]`` (immediate address)."""

    dst: Reg
    array: str
    offset: int
    opcode = "sload"

    def defs(self):
        return (self.dst,)

    def is_pure(self):
        return True


@dataclass(frozen=True)
class SLoadIdx(Instr):
    """Scalar load from ``array[int(idx) + offset]`` (register address,
    used by loop-based baseline kernels)."""

    dst: Reg
    array: str
    idx: Reg
    offset: int = 0
    opcode = "sload.idx"

    def defs(self):
        return (self.dst,)

    def uses(self):
        return (self.idx,)

    # Register-addressed loads are pure per se, but value-numbering
    # them across loop iterations would be wrong; LVN only runs on
    # straight-line programs, which never contain them.
    def is_pure(self):
        return True


@dataclass(frozen=True)
class SStore(Instr):
    array: str
    offset: int
    src: Reg
    opcode = "sstore"

    def uses(self):
        return (self.src,)


@dataclass(frozen=True)
class SStoreIdx(Instr):
    array: str
    idx: Reg
    src: Reg
    offset: int = 0
    opcode = "sstore.idx"

    def uses(self):
        return (self.idx, self.src)


# ---------------------------------------------------------------------------
# Vector instructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VConst(Instr):
    dst: Reg
    values: Tuple[float, ...]
    opcode = "vconst"

    def defs(self):
        return (self.dst,)

    def is_pure(self):
        return True


@dataclass(frozen=True)
class VLoad(Instr):
    """Contiguous vector load of ``width`` lanes from
    ``array[offset ...]``."""

    dst: Reg
    array: str
    offset: int
    opcode = "vload"

    def defs(self):
        return (self.dst,)

    def is_pure(self):
        return True


@dataclass(frozen=True)
class VLoadIdx(Instr):
    dst: Reg
    array: str
    idx: Reg
    offset: int = 0
    opcode = "vload.idx"

    def defs(self):
        return (self.dst,)

    def uses(self):
        return (self.idx,)

    def is_pure(self):
        return True


@dataclass(frozen=True)
class VStore(Instr):
    """Store the first ``count`` lanes of ``src`` to
    ``array[offset ...]`` (partial stores model the predicated tail
    stores real DSPs provide)."""

    array: str
    offset: int
    src: Reg
    count: int
    opcode = "vstore"

    def uses(self):
        return (self.src,)


@dataclass(frozen=True)
class VStoreIdx(Instr):
    array: str
    idx: Reg
    src: Reg
    count: int
    offset: int = 0
    opcode = "vstore.idx"

    def uses(self):
        return (self.idx, self.src)


@dataclass(frozen=True)
class VShuffle(Instr):
    """``dst[i] = src[indices[i]]`` -- single-register permutation
    (lowered to PDX_SHFL_MX32 on the Fusion G3, paper Section 5.1)."""

    dst: Reg
    src: Reg
    indices: Tuple[int, ...]
    opcode = "vshuffle"

    def defs(self):
        return (self.dst,)

    def uses(self):
        return (self.src,)

    def is_pure(self):
        return True


@dataclass(frozen=True)
class VSelect(Instr):
    """``dst[i] = concat(a, b)[indices[i]]`` -- two-register select
    (PDX_SEL_MX32; arbitrary shuffles use nested selects)."""

    dst: Reg
    a: Reg
    b: Reg
    indices: Tuple[int, ...]
    opcode = "vselect"

    def defs(self):
        return (self.dst,)

    def uses(self):
        return (self.a, self.b)

    def is_pure(self):
        return True


@dataclass(frozen=True)
class VBin(Instr):
    op: str
    dst: Reg
    a: Reg
    b: Reg

    def __post_init__(self):
        if self.op not in ("+", "-", "*", "/"):
            raise ValueError(f"unknown vector binary op {self.op!r}")

    @property
    def opcode(self) -> str:  # type: ignore[override]
        return f"vbin.{self.op}"

    def defs(self):
        return (self.dst,)

    def uses(self):
        return (self.a, self.b)

    def is_pure(self):
        return True


@dataclass(frozen=True)
class VUn(Instr):
    op: str
    dst: Reg
    a: Reg

    def __post_init__(self):
        if self.op not in UN_OPS:
            raise ValueError(f"unknown vector unary op {self.op!r}")

    @property
    def opcode(self) -> str:  # type: ignore[override]
        return f"vun.{self.op}"

    def defs(self):
        return (self.dst,)

    def uses(self):
        return (self.a,)

    def is_pure(self):
        return True


@dataclass(frozen=True)
class VMac(Instr):
    """``dst = acc + a * b`` lanewise (PDX_MAC_MX32)."""

    dst: Reg
    acc: Reg
    a: Reg
    b: Reg
    opcode = "vmac"

    def defs(self):
        return (self.dst,)

    def uses(self):
        return (self.acc, self.a, self.b)

    def is_pure(self):
        return True


@dataclass(frozen=True)
class VInsert(Instr):
    """Insert a scalar register into one lane of a vector register."""

    dst: Reg
    src: Reg
    lane: int
    scalar: Reg
    opcode = "vinsert"

    def defs(self):
        return (self.dst,)

    def uses(self):
        return (self.src, self.scalar)

    def is_pure(self):
        return True


@dataclass(frozen=True)
class VSplat(Instr):
    """Broadcast a scalar register to every lane."""

    dst: Reg
    scalar: Reg
    opcode = "vsplat"

    def defs(self):
        return (self.dst,)

    def uses(self):
        return (self.scalar,)

    def is_pure(self):
        return True


# ---------------------------------------------------------------------------
# Control flow
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Label(Instr):
    name: str
    opcode = "label"


@dataclass(frozen=True)
class Jump(Instr):
    target: str
    opcode = "jump"


@dataclass(frozen=True)
class Branch(Instr):
    """Conditional branch: jump to ``target`` when ``a <cond> b``."""

    cond: str
    a: Reg
    b: Reg
    target: str
    opcode = "branch"

    def __post_init__(self):
        if self.cond not in CMP_OPS:
            raise ValueError(f"unknown branch condition {self.cond!r}")

    def uses(self):
        return (self.a, self.b)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


@dataclass
class Program:
    """A complete IR kernel: named input/output arrays plus code.

    ``outputs`` declares the flat length of each output buffer; kernels
    with several logical outputs (e.g. QR's Q and R) use one combined
    buffer, mirroring how Diospyros's lifted ``List`` concatenates all
    outputs.
    """

    name: str
    inputs: Dict[str, int]
    outputs: Dict[str, int]
    instructions: List[Instr] = field(default_factory=list)
    vector_width: int = 4

    def emit(self, instr: Instr) -> Instr:
        self.instructions.append(instr)
        return instr

    def extend(self, instrs: Iterable[Instr]) -> None:
        self.instructions.extend(instrs)

    def __len__(self) -> int:
        return len(self.instructions)

    def is_straight_line(self) -> bool:
        return not any(
            isinstance(i, (Label, Jump, Branch)) for i in self.instructions
        )

    def validate_labels(self) -> None:
        """Check that every jump/branch target exists exactly once."""
        labels = [i.name for i in self.instructions if isinstance(i, Label)]
        if len(labels) != len(set(labels)):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            raise ValueError(f"duplicate labels: {dupes}")
        defined = set(labels)
        for instr in self.instructions:
            target = getattr(instr, "target", None)
            if target is not None and target not in defined:
                raise ValueError(f"undefined label {target!r}")

    def opcode_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for instr in self.instructions:
            histogram[instr.opcode] = histogram.get(instr.opcode, 0) + 1
        return histogram

    def canonical_text(self) -> str:
        """A stable textual rendering for fingerprinting.

        One line per instruction (dataclass ``repr``, which is stable
        across runs and machines -- fields only, floats via ``repr``),
        preceded by the vector width and the sorted array declarations.
        The kernel *name* is deliberately excluded so two kernels with
        identical code share a fingerprint.
        """
        lines = [f"width {self.vector_width}"]
        lines.extend(f"in {a} {self.inputs[a]}" for a in sorted(self.inputs))
        lines.extend(f"out {a} {self.outputs[a]}" for a in sorted(self.outputs))
        lines.extend(repr(instr) for instr in self.instructions)
        return "\n".join(lines)

    def fingerprint(self) -> str:
        """Content checksum of the kernel (first 16 hex digits of the
        SHA-256 of :meth:`canonical_text`).  The golden regression
        corpus keys on this to detect backend drift."""
        import hashlib

        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()[:16]


class RegAllocator:
    """Mints fresh virtual register names."""

    def __init__(self) -> None:
        self._counts = {"s": 0, "v": 0}

    def scalar(self) -> Reg:
        self._counts["s"] += 1
        return f"s{self._counts['s'] - 1}"

    def vector(self) -> Reg:
        self._counts["v"] += 1
        return f"v{self._counts['v'] - 1}"
