"""C++ intrinsics code generation (paper Section 4, "Instruction
selection").

Diospyros delegates final compilation to the vendor toolchain by
emitting C++ with Tensilica intrinsics.  We cannot run that toolchain,
but the emitted artifact is still useful -- it is what a user would
paste into an Xtensa project -- so this module pretty-prints IR kernels
in the paper's style:

* ``vload``/``vstore``   -> ``PDX_LAV_MX32`` / ``PDX_SAV_MX32``
* ``vshuffle``           -> ``PDX_SHFL_MX32`` (single register)
* ``vselect``            -> ``PDX_SEL_MX32``  (two registers)
* arithmetic             -> ``PDX_ADD_MX32`` / ``PDX_MUL_MX32`` /
  ``PDX_MAC_MX32`` etc.
* scalar code and loop-based baselines -> plain C.

The text is deterministic, so tests assert on it; the line count is
also what the LVN ablation measures (the paper's "100,000 lines to
under 500" effect).
"""

from __future__ import annotations

from typing import List

from . import vir
from .vir import Program

__all__ = ["emit_c", "c_line_count"]

_VBIN_INTRINSIC = {
    "+": "PDX_ADD_MX32",
    "-": "PDX_SUB_MX32",
    "*": "PDX_MUL_MX32",
    "/": "PDX_DIV_MX32",
}
_VUN_INTRINSIC = {
    "neg": "PDX_NEG_MX32",
    "sqrt": "PDX_SQRT_MX32",
    "sgn": "PDX_SGN_MX32",
}


def _fmt_float(value: float) -> str:
    if float(value).is_integer():
        return f"{value:.1f}f"
    return f"{value!r}f"


def _indices(indices) -> str:
    return "{" + ", ".join(str(i) for i in indices) + "}"


def emit_c(program: Program) -> str:
    """Render an IR kernel as Tensilica-flavoured C++."""
    from ..observability import span

    with span("backend.codegen", instructions=len(program)):
        return _emit_c(program)


def _emit_c(program: Program) -> str:
    width = program.vector_width
    lines: List[str] = []
    args = ", ".join(
        [f"const float {name}[{length}]" for name, length in program.inputs.items()]
        + [f"float {name}[{length}]" for name, length in program.outputs.items()]
    )
    lines.append(f"// generated by diospyros-repro (vector width {width})")
    lines.append(f"void {_c_ident(program.name)}({args}) {{")
    indent = "  "
    for instr in program.instructions:
        text = _emit_instr(instr, width)
        if isinstance(instr, vir.Label):
            lines.append(text)
        else:
            lines.append(indent + text)
    lines.append("}")
    return "\n".join(lines) + "\n"


def c_line_count(program: Program) -> int:
    """Number of emitted C lines (the LVN ablation's metric)."""
    return emit_c(program).count("\n")


def _c_ident(name: str) -> str:
    ident = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if ident and ident[0].isdigit():
        ident = "k_" + ident
    return ident


def _emit_instr(instr: vir.Instr, width: int) -> str:
    if isinstance(instr, vir.SConst):
        return f"float {instr.dst} = {_fmt_float(instr.value)};"
    if isinstance(instr, vir.SMove):
        return f"float {instr.dst} = {instr.src};"
    if isinstance(instr, vir.SBin):
        if instr.op in ("min", "max"):
            return (
                f"float {instr.dst} = f{instr.op}f({instr.a}, {instr.b});"
            )
        return f"float {instr.dst} = {instr.a} {instr.op} {instr.b};"
    if isinstance(instr, vir.SUn):
        body = {
            "neg": f"-{instr.a}",
            "sqrt": f"sqrtf({instr.a})",
            "sgn": f"copysignf({instr.a} != 0.0f, {instr.a})",
        }[instr.op]
        return f"float {instr.dst} = {body};"
    if isinstance(instr, vir.SLoad):
        return f"float {instr.dst} = {instr.array}[{instr.offset}];"
    if isinstance(instr, vir.SLoadIdx):
        return f"float {instr.dst} = {instr.array}[(int){instr.idx} + {instr.offset}];"
    if isinstance(instr, vir.SStore):
        return f"{instr.array}[{instr.offset}] = {instr.src};"
    if isinstance(instr, vir.SStoreIdx):
        return f"{instr.array}[(int){instr.idx} + {instr.offset}] = {instr.src};"

    if isinstance(instr, vir.VConst):
        values = ", ".join(_fmt_float(v) for v in instr.values)
        return f"xb_vecMx32 {instr.dst} = PDX_MOV_MX32_FROM({{{values}}});"
    if isinstance(instr, vir.VLoad):
        return (
            f"xb_vecMx32 {instr.dst} = PDX_LAV_MX32(&{instr.array}[{instr.offset}]);"
        )
    if isinstance(instr, vir.VLoadIdx):
        return (
            f"xb_vecMx32 {instr.dst} = "
            f"PDX_LAV_MX32(&{instr.array}[(int){instr.idx} + {instr.offset}]);"
        )
    if isinstance(instr, vir.VStore):
        return (
            f"PDX_SAV_MX32({instr.src}, &{instr.array}[{instr.offset}], "
            f"{instr.count});"
        )
    if isinstance(instr, vir.VStoreIdx):
        return (
            f"PDX_SAV_MX32({instr.src}, &{instr.array}[(int){instr.idx} + "
            f"{instr.offset}], {instr.count});"
        )
    if isinstance(instr, vir.VShuffle):
        return (
            f"xb_vecMx32 {instr.dst} = PDX_SHFL_MX32({instr.src}, "
            f"{_indices(instr.indices)});"
        )
    if isinstance(instr, vir.VSelect):
        return (
            f"xb_vecMx32 {instr.dst} = PDX_SEL_MX32({instr.a}, {instr.b}, "
            f"{_indices(instr.indices)});"
        )
    if isinstance(instr, vir.VBin):
        return (
            f"xb_vecMx32 {instr.dst} = "
            f"{_VBIN_INTRINSIC[instr.op]}({instr.a}, {instr.b});"
        )
    if isinstance(instr, vir.VUn):
        return f"xb_vecMx32 {instr.dst} = {_VUN_INTRINSIC[instr.op]}({instr.a});"
    if isinstance(instr, vir.VMac):
        return (
            f"xb_vecMx32 {instr.dst} = PDX_MAC_MX32({instr.acc}, {instr.a}, "
            f"{instr.b});"
        )
    if isinstance(instr, vir.VInsert):
        return (
            f"xb_vecMx32 {instr.dst} = PDX_INSERT_MX32({instr.src}, {instr.lane}, "
            f"{instr.scalar});"
        )
    if isinstance(instr, vir.VSplat):
        return f"xb_vecMx32 {instr.dst} = PDX_REP_MX32({instr.scalar});"

    if isinstance(instr, vir.Label):
        return f"{instr.name}:"
    if isinstance(instr, vir.Jump):
        return f"goto {instr.target};"
    if isinstance(instr, vir.Branch):
        cmp = {"lt": "<", "le": "<=", "eq": "==", "ne": "!=", "ge": ">=", "gt": ">"}[
            instr.cond
        ]
        return f"if ({instr.a} {cmp} {instr.b}) goto {instr.target};"
    raise ValueError(f"unknown instruction {instr!r}")
