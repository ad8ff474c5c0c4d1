"""Kernel definitions shared by the evaluation harness.

A :class:`Kernel` bundles a reference implementation (one Python
function that runs both symbolically and concretely), its array
declarations, and bookkeeping for the evaluation tables (category and
the paper's size label).  The registry of the paper's 21 Table-1
kernels lives in :mod:`repro.kernels` (``TABLE1_KERNELS``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..frontend.lift import Shape, Spec, lift, random_inputs, run_reference

__all__ = ["Kernel"]


@dataclass
class Kernel:
    """One benchmark kernel instance (a function at a fixed size)."""

    name: str
    category: str  # "2DConv" | "MatMul" | "QProd" | "QRDecomp"
    size_label: str  # e.g. "3x3, 2x2" -- matches Table 1's Size column
    reference: Callable[..., None]
    inputs: Tuple[Tuple[str, Shape], ...]
    outputs: Tuple[Tuple[str, Shape], ...]
    #: Rough work metric used to order kernels in reports.
    params: Dict[str, int] = field(default_factory=dict)
    _spec: Optional[Spec] = field(default=None, repr=False)

    def spec(self) -> Spec:
        """Lift (once) and return the kernel's specification."""
        if self._spec is None:
            self._spec = lift(self.name, self.reference, self.inputs, self.outputs)
        return self._spec

    @property
    def n_outputs(self) -> int:
        return self.spec().n_outputs

    def random_inputs(self, seed: int = 0) -> Dict[str, List[float]]:
        import random as _random

        return random_inputs(self.spec(), _random.Random(seed))

    def reference_outputs(self, inputs) -> List[float]:
        """Run the trusted reference on concrete inputs; flat outputs."""
        return run_reference(self.reference, self.spec(), inputs)
