"""Cache-blocked conv2d forward: strip-mined im2col + GEMM.

The monolithic im2col path materializes the full ``(N*OH*OW, C*kh*kw)``
patch matrix — ~52 MiB at the paper's 256x256/4-channel/5x5
configuration — then streams it through one GEMM and one full-size
transposed copy.  Every element therefore makes three trips through
main memory, and the fused epilogue's extra mask pass is what made the
"fused" variant *lose* to the plain one at large sizes.

This variant strip-mines the output rows instead: for each batch image
and each strip of output rows it copies just that strip's patches into
a small resident buffer (sized to stay inside the L2 cache), runs the
GEMM, applies the bias/leaky-ReLU epilogue, and transposes the strip
into its final ``(F, rows, OW)`` position — all while the strip is
still cache-hot.  The arithmetic per output element is the identical
dot product over the same ``C*kh*kw`` values, so results match the
monolithic kernel to the last ulp in practice; the test suite pins
equality at strict ``allclose`` tolerances rather than bitwise, since
BLAS is free to schedule the smaller GEMMs differently.

:func:`should_block` is the shape heuristic shared by the ``conv2d``
op's no-grad fast path and the :class:`~repro.core.inference.
InferencePlan` peephole: blocking only pays once the monolithic patch
matrix overflows the last-level cache, and small shapes keep the
exact monolithic path (which the plan-equivalence tests pin
bit-for-bit against the module forward).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..exceptions import ShapeError
from ..obs import trace
from .im2col import conv_output_size
from .workspace import Workspace

__all__ = ["conv2d_forward_blocked", "should_block"]

#: Patch-matrix size (bytes) above which the blocked kernel wins; below
#: it the monolithic im2col fits in cache and stays bit-pinned by the
#: plan-equivalence tests.  52 MiB (256², float64) and 26 MiB (float32)
#: are both comfortably above; 64²-sized test shapes are below.
BLOCK_MIN_COLS_BYTES = 16 << 20

#: Per-strip patch buffer budget — sized to sit inside a typical L2.
_TARGET_STRIP_BYTES = 1 << 20


def should_block(
    n: int,
    c: int,
    oh: int,
    ow: int,
    kh: int,
    kw: int,
    itemsize: int,
) -> bool:
    """Whether the blocked kernel should handle this conv shape."""
    return n * oh * ow * c * kh * kw * itemsize >= BLOCK_MIN_COLS_BYTES


def _strip_rows(ow: int, c: int, kh: int, kw: int, itemsize: int, oh: int) -> int:
    """Output rows per strip so the patch buffer meets the L2 budget."""
    row_bytes = ow * c * kh * kw * itemsize
    return max(1, min(oh, _TARGET_STRIP_BYTES // max(1, row_bytes)))


def conv2d_forward_blocked(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: tuple[int, int],
    padding: tuple[int, int],
    activation: str | None = None,
    negative_slope: float = 0.01,
    workspace: Workspace | None = None,
    out: np.ndarray | None = None,
    slot_prefix: str = "conv2d.blocked",
) -> tuple[np.ndarray, tuple[int, int]]:
    """Strip-mined conv2d forward (inference only — nothing is kept
    for a backward pass).

    Parameters mirror :func:`~repro.tensor.ops_conv.conv2d_forward`;
    ``out`` is an optional pre-bound ``(N, F, OH, OW)`` destination
    (the :class:`InferencePlan` passes an arena buffer so warmed-up
    steps stay allocation-free).  Returns ``(out4, (oh, ow))`` where
    ``out4`` is C-contiguous — unlike the monolithic kernel, whose
    result is a lazily transposed view of the GEMM output.
    """
    n, c, h, w = x.shape
    f = weight.shape[0]
    kh, kw = weight.shape[2], weight.shape[3]
    sh, sw = stride
    ph, pw = padding
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)
    with trace.span("conv2d.blocked", cat="compute"):
        if ph or pw:
            if workspace is not None:
                padded = workspace.request(
                    f"{slot_prefix}.padded.{ph}x{pw}",
                    (n, c, h + 2 * ph, w + 2 * pw),
                    x.dtype,
                )
                padded[:, :, ph : ph + h, pw : pw + w] = x
                x = padded
            else:
                # Workspace-less fallback: correctness path only, never
                # taken by a warmed-up InferencePlan.
                x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))  # noqa: REP012
        # (N, C, OH, OW, kh, kw) zero-copy view of every receptive field.
        windows = sliding_window_view(x, (kh, kw), axis=(2, 3))
        windows = windows[:, :, ::sh, ::sw, :, :]
        if windows.shape[2] != oh or windows.shape[3] != ow:
            raise ShapeError(
                f"blocked conv window grid {windows.shape[2:4]} != ({oh}, {ow})"
            )
        compute = np.result_type(x.dtype, weight.dtype)
        wmat_t = weight.reshape(f, c * kh * kw).T  # (C*kh*kw, F)
        rows = _strip_rows(ow, c, kh, kw, compute.itemsize, oh)
        if out is None:
            # Never reached from a warmed-up InferencePlan: the plan
            # binds the step output to an arena slot.
            out = np.empty((n, f, oh, ow), dtype=compute)  # noqa: REP012
        if workspace is not None:
            cols_strip = workspace.request(
                f"{slot_prefix}.cols", (rows * ow, c * kh * kw), compute
            )
            gemm_strip = workspace.request(
                f"{slot_prefix}.gemm", (rows * ow, f), compute
            )
            scaled_strip = (
                workspace.request(f"{slot_prefix}.scaled", (f, rows, ow), compute)
                if activation is not None
                else None
            )
        else:
            # Workspace-less fallback scratch: correctness path only,
            # never taken by a warmed-up InferencePlan.
            cols_strip = np.empty((rows * ow, c * kh * kw), dtype=compute)  # noqa: REP012
            gemm_strip = np.empty((rows * ow, f), dtype=compute)  # noqa: REP012
            scaled_strip = None
            if activation is not None:
                # Same workspace-less correctness-only path as above.
                scaled_strip = np.empty((f, rows, ow), dtype=compute)  # noqa: REP012
        bias_col = bias.reshape(f, 1, 1) if bias is not None else None
        for b in range(n):
            for r0 in range(0, oh, rows):
                r1 = min(oh, r0 + rows)
                m = (r1 - r0) * ow
                # Patch copy for this strip only: (rows, OW, C, kh, kw)
                # element order matches the monolithic im2col exactly.
                np.copyto(
                    cols_strip[:m].reshape(r1 - r0, ow, c, kh, kw),
                    windows[b, :, r0:r1].transpose(1, 2, 0, 3, 4),
                )
                np.matmul(cols_strip[:m], wmat_t, out=gemm_strip[:m])
                strip = gemm_strip[:m]
                dest = out[b, :, r0:r1, :]
                # Transpose the cache-hot strip into its final position.
                dest[...] = strip.reshape(r1 - r0, ow, f).transpose(2, 0, 1)
                if activation is None:
                    if bias_col is not None:
                        np.add(dest, bias_col, out=dest)
                else:
                    # Epilogue *after* the transpose: in (F, rows, OW)
                    # layout the bias broadcasts along the outermost
                    # axis, so every ufunc runs contiguous OW-long
                    # inner loops.  In the pre-transpose (rows*OW, F)
                    # layout the same broadcast degenerates to
                    # F-element inner loops — per-strip that overhead
                    # was most of the fused-over-plain gap.  Same
                    # elementwise max(z, slope*z) arithmetic as
                    # bias_leaky_relu_, so results stay bit-identical
                    # to the monolithic fused path.
                    with trace.span("fused.bias_leaky_relu", cat="compute"):
                        scaled = scaled_strip[:, : r1 - r0, :]
                        if bias_col is not None:
                            np.add(dest, bias_col, out=dest)
                        np.multiply(dest, negative_slope, out=scaled)
                        np.maximum(dest, scaled, out=dest)
    return out, (oh, ow)
