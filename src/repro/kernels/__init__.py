"""Benchmark kernels: the 21 Table-1 instances plus factories for
arbitrary sizes."""

from __future__ import annotations

from typing import Dict, List

from .base import Kernel
from .conv2d import make_conv2d
from .extra import (
    extra_kernels,
    make_batch_dot,
    make_correlate_valid,
    make_inverse2x2,
    make_matvec,
    make_normalize,
    make_quat_to_rot,
)
from .matmul import make_matmul
from .qprod import make_qprod
from .qr import make_qr

__all__ = [
    "Kernel",
    "extra_kernels",
    "make_batch_dot",
    "make_correlate_valid",
    "make_inverse2x2",
    "make_matvec",
    "make_normalize",
    "make_quat_to_rot",
    "make_conv2d",
    "make_matmul",
    "make_qprod",
    "make_qr",
    "table1_kernels",
    "get_kernel",
]

#: The exact Table 1 benchmark list: (category, constructor args).
_TABLE1 = [
    ("2DConv", (3, 3, 2, 2)),
    ("2DConv", (3, 3, 3, 3)),
    ("2DConv", (3, 5, 3, 3)),
    ("2DConv", (4, 4, 3, 3)),
    ("2DConv", (8, 8, 3, 3)),
    ("2DConv", (10, 10, 2, 2)),
    ("2DConv", (10, 10, 3, 3)),
    ("2DConv", (10, 10, 4, 4)),
    ("2DConv", (16, 16, 2, 2)),
    ("2DConv", (16, 16, 3, 3)),
    ("2DConv", (16, 16, 4, 4)),
    ("MatMul", (2, 2, 2)),
    ("MatMul", (2, 3, 3)),
    ("MatMul", (3, 3, 3)),
    ("MatMul", (4, 4, 4)),
    ("MatMul", (8, 8, 8)),
    ("MatMul", (10, 10, 10)),
    ("MatMul", (16, 16, 16)),
    ("QProd", ()),
    ("QRDecomp", (3,)),
    ("QRDecomp", (4,)),
]

_FACTORIES = {
    "2DConv": make_conv2d,
    "MatMul": make_matmul,
    "QProd": make_qprod,
    "QRDecomp": make_qr,
}


def table1_kernels() -> List[Kernel]:
    """Fresh instances of all 21 evaluation kernels, in Table 1 order."""
    return [_FACTORIES[category](*args) for category, args in _TABLE1]


def _parse_parametric(name: str) -> Kernel:
    """Build a 2DConv/MatMul kernel from a parametric registry name.

    The phased-saturation benchmarks use sizes beyond the Table 1 list
    (e.g. ``2dconv-8x8-4x4``); any ``2dconv-RxC-FRxFC`` /
    ``matmul-MxK-KxN`` name resolves through the same factories the
    table uses, so the conformance harness, perfbench and the tests can
    address them uniformly."""
    parts = name.split("-")
    dims = [tuple(int(d) for d in p.split("x")) for p in parts[1:]]
    if parts[0] == "2dconv" and len(dims) == 2 and all(len(d) == 2 for d in dims):
        return make_conv2d(dims[0][0], dims[0][1], dims[1][0], dims[1][1])
    if parts[0] == "matmul" and len(dims) == 2 and all(len(d) == 2 for d in dims):
        (a_rows, a_cols), (b_rows, b_cols) = dims
        if a_cols != b_rows:
            raise ValueError(f"matmul shape mismatch in {name!r}")
        return make_matmul(a_rows, a_cols, b_cols)
    raise ValueError(f"not a parametric kernel name: {name!r}")


def get_kernel(name: str) -> Kernel:
    """Look up a kernel by registry name: the Table 1 list first, then
    the parametric ``2dconv-*``/``matmul-*`` naming scheme."""
    for kernel in table1_kernels():
        if kernel.name == name:
            return kernel
    try:
        return _parse_parametric(name)
    except ValueError:
        pass
    raise KeyError(f"unknown kernel {name!r}")
