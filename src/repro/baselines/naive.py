"""Naive baseline kernels (paper Figure 5's *Naive* and *Naive
(fixed size)* bars).

* :func:`naive_parametric` -- the loop nest as written, with runtime
  sizes: loop counters, bounds checks, and address arithmetic all paid
  at run time.  This models compiling the reference C with variable
  array dimensions.  Loop-invariant subexpressions are hoisted one
  level (row bases, transposed-filter bases), as ``-O3``'s LICM would.
* :func:`naive_fixed` -- the same source with sizes fixed at compile
  time (the paper's ``#define`` variant): loops unroll away entirely
  and source-level locals are register-allocated, but no algebraic CSE
  happens and input elements are re-loaded on each use (no alias
  information).  Implemented by register-tracing the reference kernel
  (:mod:`repro.baselines.trace`).

QProd has no loops, so its parametric and fixed variants coincide
except for load caching.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..backend import vir
from ..backend.vir import Program
from ..kernels.base import Kernel
from .loops import LoopEmitter
from .trace import trace_kernel

__all__ = ["naive_parametric", "naive_fixed"]


def naive_fixed(kernel: Kernel) -> Program:
    """Fixed-size naive compilation: fully unrolled scalar code."""
    return trace_kernel(kernel, "naive-fixed", cache_loads=False)


def naive_parametric(kernel: Kernel) -> Program:
    """Parametric-size naive compilation: genuine loops."""
    builders: Dict[str, Callable[[Kernel], Program]] = {
        "2DConv": _conv_loops,
        "MatMul": _matmul_loops,
        "QRDecomp": _qr_loops,
        "QProd": lambda k: trace_kernel(k, "naive", cache_loads=False),
    }
    try:
        builder = builders[kernel.category]
    except KeyError as exc:
        raise ValueError(f"no naive baseline for category {kernel.category!r}") from exc
    return builder(kernel)


def _program_for(kernel: Kernel, suffix: str) -> Program:
    spec = kernel.spec()
    return Program(
        name=f"{kernel.name}-{suffix}",
        inputs={d.name: d.length for d in spec.inputs},
        outputs={"out": spec.n_outputs},
        vector_width=4,
    )


def _conv_loops(kernel: Kernel) -> Program:
    """The Section 2 loop nest, parametric sizes."""
    p = kernel.params
    i_rows, i_cols = p["i_rows"], p["i_cols"]
    f_rows, f_cols = p["f_rows"], p["f_cols"]
    o_cols = i_cols + f_cols - 1
    o_rows = i_rows + f_rows - 1

    program = _program_for(kernel, "naive")
    em = LoopEmitter(program)
    zero = em.const(0)
    ir_reg = em.const(i_rows)
    ic_reg = em.const(i_cols)
    frm1 = em.const(f_rows - 1)
    fcm1 = em.const(f_cols - 1)
    oc_reg = em.const(o_cols)
    fc_reg = em.const(f_cols)

    def o_row_body(o_row: str) -> None:
        out_row_base = em.mul(o_row, oc_reg)

        def o_col_body(o_col: str) -> None:
            acc = em.const(0.0)

            def f_row_body(f_row: str) -> None:
                f_rt = em.binary("-", frm1, f_row)
                i_row = em.binary("-", o_row, f_rt)

                def row_ok() -> None:
                    i_row_base = em.mul(i_row, ic_reg)
                    f_rt_base = em.mul(f_rt, fc_reg)

                    def f_col_body(f_col: str) -> None:
                        f_ct = em.binary("-", fcm1, f_col)
                        i_col = em.binary("-", o_col, f_ct)

                        def col_ok() -> None:
                            in_val = em.load_idx(
                                "i", em.add(i_row_base, i_col)
                            )
                            f_val = em.load_idx("f", em.add(f_rt_base, f_ct))
                            prod = em.mul(in_val, f_val)
                            em.program.emit(vir.SBin("+", acc, acc, prod))

                        em.guard(
                            [("ge", i_col, zero), ("lt", i_col, ic_reg)], col_ok
                        )

                    em.loop(f_cols, f_col_body)

                em.guard([("ge", i_row, zero), ("lt", i_row, ir_reg)], row_ok)

            em.loop(f_rows, f_row_body)
            em.store_idx("out", em.add(out_row_base, o_col), acc)

        em.loop(o_cols, o_col_body)

    em.loop(o_rows, o_row_body)
    return program


def _matmul_loops(kernel: Kernel) -> Program:
    """The classic triple loop, parametric sizes, with the inner
    B-column walk strength-reduced (index += n per step)."""
    p = kernel.params
    m, k, n = p["m"], p["k"], p["n"]

    program = _program_for(kernel, "naive")
    em = LoopEmitter(program)
    k_reg = em.const(k)
    n_reg = em.const(n)

    def row_body(i: str) -> None:
        a_row_base = em.mul(i, k_reg)
        c_row_base = em.mul(i, n_reg)

        def col_body(j: str) -> None:
            acc = em.const(0.0)
            b_idx = em.binary("+", j, em.const(0))  # running B index

            def inner_body(kk: str) -> None:
                a_val = em.load_idx("a", em.add(a_row_base, kk))
                b_val = em.load_idx("b", b_idx)
                prod = em.mul(a_val, b_val)
                em.program.emit(vir.SBin("+", acc, acc, prod))
                em.program.emit(vir.SBin("+", b_idx, b_idx, n_reg))

            em.loop(k, inner_body)
            em.store_idx("out", em.add(c_row_base, j), acc)

        em.loop(n, col_body)

    em.loop(m, row_body)
    return program


def _qr_loops(kernel: Kernel) -> Program:
    """Householder QR with runtime loops (the generic-library shape).

    Works in place on the combined output buffer: ``out[0..n*n)`` is Q
    (initialized to the identity), ``out[n*n..2*n*n)`` is R
    (initialized to a copy of A); the Householder vector lives in a
    scratch buffer.
    """
    n = kernel.params["n"]
    program = _program_for(kernel, "naive")
    # Scratch space for the reflection vector (zeroed at startup).
    program.outputs["vwork"] = n
    em = LoopEmitter(program)

    n_reg = em.const(n)
    zero_f = em.const(0.0)
    one_f = em.const(1.0)
    two_f = em.const(2.0)
    r_base = n * n  # R's offset inside the combined buffer

    # Q = I; R = A.
    def init_row(i: str) -> None:
        row_base = em.mul(i, n_reg)

        def init_col(j: str) -> None:
            idx = em.add(row_base, j)
            a_val = em.load_idx("a", idx)
            em.store_idx("out", idx, a_val, offset=r_base)

        em.loop(n, init_col)
        diag = em.add(row_base, i)
        em.store_idx("out", diag, one_f)

    em.loop(n, init_row)

    def reflection(k: str) -> None:
        # norm_sq = sum_{i>=k} R[i][k]^2
        norm_sq = em.const(0.0)

        def norm_body(i: str) -> None:
            def in_range() -> None:
                val = em.load_idx("out", em.add(em.mul(i, n_reg), k), offset=r_base)
                sq = em.mul(val, val)
                em.program.emit(vir.SBin("+", norm_sq, norm_sq, sq))

            em.guard([("ge", i, k)], in_range)

        em.loop(n, norm_body)
        norm = em.unary("sqrt", norm_sq)
        rkk = em.load_idx("out", em.add(em.mul(k, n_reg), k), offset=r_base)
        alpha = em.unary("neg", em.mul(em.unary("sgn", rkk), norm))

        # v[k] = R[k][k] - alpha; v[i>k] = R[i][k]; vtv = sum v^2.
        vk = em.binary("-", rkk, alpha)
        em.store_idx("vwork", k, vk)

        def v_body(i: str) -> None:
            def strictly_below() -> None:
                val = em.load_idx("out", em.add(em.mul(i, n_reg), k), offset=r_base)
                em.store_idx("vwork", i, val)

            em.guard([("gt", i, k)], strictly_below)

        em.loop(n, v_body)
        vtv = em.const(0.0)

        def vtv_body(i: str) -> None:
            def in_range() -> None:
                v_val = em.load_idx("vwork", i)
                sq = em.mul(v_val, v_val)
                em.program.emit(vir.SBin("+", vtv, vtv, sq))

            em.guard([("ge", i, k)], in_range)

        em.loop(n, vtv_body)
        beta = em.binary("/", two_f, vtv)

        # R <- (I - beta v v^T) R
        def r_col(j: str) -> None:
            dot = em.const(0.0)

            def dot_body(i: str) -> None:
                def in_range() -> None:
                    v_val = em.load_idx("vwork", i)
                    r_val = em.load_idx(
                        "out", em.add(em.mul(i, n_reg), j), offset=r_base
                    )
                    em.program.emit(
                        vir.SBin("+", dot, dot, em.mul(v_val, r_val))
                    )

                em.guard([("ge", i, k)], in_range)

            em.loop(n, dot_body)
            scaled = em.mul(beta, dot)

            def upd_body(i: str) -> None:
                def in_range() -> None:
                    idx = em.add(em.mul(i, n_reg), j)
                    v_val = em.load_idx("vwork", i)
                    r_val = em.load_idx("out", idx, offset=r_base)
                    new = em.binary("-", r_val, em.mul(scaled, v_val))
                    em.store_idx("out", idx, new, offset=r_base)

                em.guard([("ge", i, k)], in_range)

            em.loop(n, upd_body)

        em.loop(n, r_col)

        # Q <- Q (I - beta v v^T)
        def q_row(i: str) -> None:
            row_base = em.mul(i, n_reg)
            dot = em.const(0.0)

            def dot_body(j: str) -> None:
                def in_range() -> None:
                    q_val = em.load_idx("out", em.add(row_base, j))
                    v_val = em.load_idx("vwork", j)
                    em.program.emit(
                        vir.SBin("+", dot, dot, em.mul(q_val, v_val))
                    )

                em.guard([("ge", j, k)], in_range)

            em.loop(n, dot_body)
            scaled = em.mul(beta, dot)

            def upd_body(j: str) -> None:
                def in_range() -> None:
                    idx = em.add(row_base, j)
                    q_val = em.load_idx("out", idx)
                    v_val = em.load_idx("vwork", j)
                    new = em.binary("-", q_val, em.mul(scaled, v_val))
                    em.store_idx("out", idx, new)

                em.guard([("ge", j, k)], in_range)

            em.loop(n, upd_body)

        em.loop(n, q_row)

        # Reset the scratch vector for the next reflection.
        def clear_body(i: str) -> None:
            em.store_idx("vwork", i, zero_f)

        em.loop(n, clear_body)

    em.loop(n - 1, reflection)
    return program
