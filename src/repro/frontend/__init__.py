"""Frontend: scalar reference kernels and symbolic lifting
(paper Section 3.1).

* :mod:`repro.frontend.symbolic` -- symbolic scalars and arrays for
  tracing-based symbolic evaluation.
* :mod:`repro.frontend.lift`     -- :func:`lift` reference kernels into
  vector-DSL specs; concrete execution for testing.

Every kernel enters the compiler this way: the paper kernels, the
evaluation, the CLI and the examples lift traced Python functions, and
the fuzzers build :class:`Spec` terms directly.
"""

from .lift import ArrayDecl, Spec, lift, random_inputs, run_reference
from .symbolic import (
    OutputArray,
    Sym,
    SymbolicArray,
    sym_call,
    sym_sgn,
    sym_sqrt,
    wrap,
)

__all__ = [
    "ArrayDecl",
    "Spec",
    "lift",
    "random_inputs",
    "run_reference",
    "OutputArray",
    "Sym",
    "SymbolicArray",
    "sym_call",
    "sym_sgn",
    "sym_sqrt",
    "wrap",
]
