"""Cache-blocked conv2d kernels: strip-mined im2col + GEMM.

The monolithic im2col path materializes the full ``(N*OH*OW, C*kh*kw)``
patch matrix — ~52 MiB at the paper's 256x256/4-channel/5x5
configuration — then streams it through one GEMM and one full-size
transposed copy.  Every element therefore makes three trips through
main memory, and the fused epilogue's extra mask pass is what made the
"fused" variant *lose* to the plain one at large sizes.

This module strip-mines the output rows instead: for each batch image
and each strip of output rows it copies just that strip's patches into
a small resident buffer (sized to stay inside the L2 cache) and works
on it while it is still cache-hot.  The strip is K-major,
``(C*kh*kw, rows*OW)``: each ``(c, i, j)`` row is a copy of
``OW``-long input runs, and every GEMM has the filter count ``F`` as
its short *outer* dimension, never as its skinny ``N``.

* :func:`conv2d_forward_blocked` computes ``W (F, C*kh*kw) @ cols``
  straight into its final ``(F, rows*OW)`` slice of the NCHW output —
  no GEMM scratch, no post-GEMM transpose — then applies the
  bias/leaky-ReLU epilogue there.  The arithmetic per output element
  is the same dot product over the same ``C*kh*kw`` values as the
  monolithic kernel; the test suite pins equality at strict
  ``allclose`` tolerances rather than bitwise, since BLAS is free to
  order the adds of the smaller GEMMs differently.
* :func:`conv2d_grad_weight_blocked` accumulates the weight gradient
  ``grad_w += g_strip (F, m) @ cols.T`` over the same strips, so the
  training backward never builds the full patch matrix.
* :func:`conv2d_grad_input_blocked` is the input gradient as a
  *forward* convolution: the upstream gradient, zero-stuffed and padded
  into an input-sized buffer, correlated with the 180°-rotated,
  channel-swapped kernel.  It replaces the ``gmat @ wmat`` →
  :func:`~repro.tensor.im2col.col2im` scatter, whose adds stride
  ``C*kh*kw`` elements apart, with the cache-friendly forward kernel.

Together the last two are the whole ``conv2d`` autograd backward; the
op's training forward is :func:`conv2d_forward_blocked` without a
workspace, so nothing patch-sized outlives a call.

:func:`should_block` is the shape heuristic shared by the ``conv2d``
op's no-grad fast path and the :class:`~repro.core.inference.
InferencePlan` peephole: blocking only pays once the monolithic patch
matrix overflows the last-level cache, and small shapes keep the
exact monolithic path (which the plan-equivalence tests pin
bit-for-bit against the module forward).
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..exceptions import ShapeError
from ..obs import trace
from .im2col import conv_output_size
from .workspace import Workspace

__all__ = [
    "conv2d_forward_blocked",
    "conv2d_grad_input_blocked",
    "conv2d_grad_weight_blocked",
    "should_block",
]

#: Patch-matrix size (bytes) above which the blocked kernel wins; below
#: it the monolithic im2col fits in cache and stays bit-pinned by the
#: plan-equivalence tests.  52 MiB (256², float64) and 26 MiB (float32)
#: are both comfortably above; 64²-sized test shapes are below.
BLOCK_MIN_COLS_BYTES = 16 << 20

#: Per-strip patch buffer budget — sized to sit inside a typical L2.
#: Measured on one Xeon core with OpenBLAS, 512 KiB beats 1 MiB on
#: every paper layer at both precisions: the ``W @ cols`` GEMM loses
#: throughput once a strip grows past ~2K output positions.
_TARGET_STRIP_BYTES = 1 << 19

#: Output columns per filter the forward's bias/leaky-ReLU epilogue
#: covers in one pass.  Its ufuncs run over ``(F, cols)`` views whose
#: rows are ``OH*OW`` apart, and NumPy's per-call iterator set-up makes
#: them 2-4x slower per element below ~8K columns, so the epilogue runs
#: once per group of strips rather than once per strip.
_EPILOGUE_COLS = 1 << 13


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


def _scratch(
    workspace: Workspace | None, slot: str, shape: tuple[int, ...], dtype: Any
) -> np.ndarray:
    """Kernel scratch: an arena slot, or a fresh buffer without one."""
    if workspace is not None:
        return workspace.request(slot, shape, dtype)
    # Workspace-less: the conv2d training forward, whose scratch must
    # not be recycled before backward runs, and any kernel called in a
    # workspace_disabled() block.  Never reached from an InferencePlan.
    return np.empty(shape, dtype=dtype)  # noqa: REP012


def _windows(
    x: np.ndarray,
    kernel: tuple[int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
    workspace: Workspace | None,
    slot_prefix: str,
) -> np.ndarray:
    """``(N, C, OH, OW, kh, kw)`` zero-copy view of every receptive
    field of ``x`` after symmetric zero padding."""
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)
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
            # Workspace-less: the conv2d training forward (see
            # _scratch).  Never reached from an InferencePlan.
            x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))  # noqa: REP012
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::sh, ::sw, :, :]
    if windows.shape[2] != oh or windows.shape[3] != ow:
        raise ShapeError(
            f"blocked conv window grid {windows.shape[2:4]} != ({oh}, {ow})"
        )
    return windows


def _patch_strips(
    windows: np.ndarray, cols_strip: np.ndarray, rows: int
) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """Yield ``(b, r0, r1, cols)`` for every strip of output rows, with
    ``cols`` a C-contiguous ``(C*kh*kw, (r1-r0)*OW)`` view of
    ``cols_strip``'s memory holding that strip's patches K-major: row
    ``(c, i, j)`` is input channel ``c`` at kernel offset ``(i, j)``
    for every output position of the strip."""
    n, c, oh, ow, kh, kw = windows.shape
    flat = cols_strip.reshape(-1)
    for b in range(n):
        for r0 in range(0, oh, rows):
            r1 = min(oh, r0 + rows)
            cols = flat[: c * kh * kw * (r1 - r0) * ow].reshape(c * kh * kw, -1)
            np.copyto(
                cols.reshape(c, kh, kw, r1 - r0, ow),
                windows[b, :, r0:r1].transpose(0, 3, 4, 1, 2),
            )
            yield b, r0, r1, cols


def _plane_rows(out: np.ndarray, b: int, r0: int, r1: int) -> np.ndarray:
    """``out[b, :, r0:r1]`` as an ``(F, (r1-r0)*OW)`` view of ``out``."""
    view = out[b, :, r0:r1].reshape(out.shape[1], -1)
    # The reshape silently copies unless out's last two axes are
    # contiguous, and results written into that copy would be lost.
    if not np.may_share_memory(view, out):
        raise ShapeError(
            "conv2d_forward_blocked: out must be contiguous over its last "
            f"two axes, got shape {out.shape} with strides {out.strides}"
        )
    return view


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
    """Strip-mined conv2d forward (nothing is kept for a backward pass).

    Parameters mirror :func:`~repro.tensor.ops_conv.conv2d_forward`;
    ``out`` is an optional pre-bound ``(N, F, OH, OW)`` destination
    (the :class:`InferencePlan` passes an arena buffer so warmed-up
    steps stay allocation-free); its last two axes must be contiguous,
    or :class:`ShapeError` is raised.  Without a ``workspace`` the scratch
    is small per-call strip buffers.  Returns ``(out, (oh, ow))``; an
    ``out`` allocated here is C-contiguous — unlike the monolithic
    kernel's result, a lazily transposed view of the GEMM output.
    """
    c = x.shape[1]
    f = weight.shape[0]
    kh, kw = weight.shape[2], weight.shape[3]
    with trace.span("conv2d.blocked", cat="compute"):
        windows = _windows(x, (kh, kw), stride, padding, workspace, slot_prefix)
        n, _, oh, ow = windows.shape[:4]
        compute = np.result_type(x.dtype, weight.dtype)
        wmat = weight.reshape(f, c * kh * kw)
        rows = _strip_rows(ow, c, kh, kw, compute.itemsize, oh)
        if out is None:
            # Never reached from a warmed-up InferencePlan: the plan
            # binds the step output to an arena slot.
            out = np.empty((n, f, oh, ow), dtype=compute)  # noqa: REP012
        cols_strip = _scratch(
            workspace, f"{slot_prefix}.cols", (c * kh * kw, rows * ow), compute
        )
        # Rows per epilogue pass: whole strips, at most one image.
        group_rows = min(oh, rows * max(1, -(-_EPILOGUE_COLS // (rows * ow))))
        scaled_buf = (
            _scratch(workspace, f"{slot_prefix}.scaled", (f, group_rows * ow), compute)
            if activation is not None
            else None
        )
        bias_col = bias.reshape(f, 1) if bias is not None else None
        epilogue = bias is not None or activation is not None
        e0 = 0  # first row of image b the epilogue has not reached
        for b, r0, r1, cols in _patch_strips(windows, cols_strip, rows):
            np.matmul(wmat, cols, out=_plane_rows(out, b, r0, r1))
            if not epilogue or (r1 - e0 < group_rows and r1 < oh):
                continue
            # The epilogue over the rows since the last pass, still
            # cache-resident.  In (F, cols) layout the bias broadcasts
            # along the outermost axis, so every ufunc runs contiguous
            # cols-long inner loops.  Same elementwise max(z, slope*z)
            # arithmetic as bias_leaky_relu_, so results match the
            # monolithic fused path.
            z = _plane_rows(out, b, e0, r1)
            e0 = r1 % oh
            if activation is None:
                np.add(z, bias_col, out=z)
                continue
            with trace.span("fused.bias_leaky_relu", cat="compute"):
                scaled = scaled_buf[:, : z.shape[1]]
                if bias_col is not None:
                    np.add(z, bias_col, out=z)
                np.multiply(z, negative_slope, out=scaled)
                np.maximum(z, scaled, out=z)
    return out, (oh, ow)


def conv2d_grad_weight_blocked(
    x: np.ndarray,
    grad: np.ndarray,
    kernel: tuple[int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
    workspace: Workspace | None,
) -> np.ndarray:
    """Weight gradient ``(F, C, kh, kw)`` of a conv2d with input ``x``
    ``(N, C, H, W)`` and upstream gradient ``grad`` ``(N, F, OH, OW)``.

    Sums ``g_strip (F, m) @ cols.T`` (``cols`` is the forward kernel's
    K-major ``(C*kh*kw, m)`` strip); the result is freshly allocated.
    """
    c = x.shape[1]
    f = grad.shape[1]
    kh, kw = kernel
    with trace.span("conv2d.blocked.grad_w", cat="compute"):
        windows = _windows(x, kernel, stride, padding, workspace, "conv2d.bwd.gw")
        oh, ow = windows.shape[2], windows.shape[3]
        if grad.shape[2:] != (oh, ow):
            raise ShapeError(
                f"conv2d grad_w: gradient grid {grad.shape[2:]} != ({oh}, {ow})"
            )
        compute = np.result_type(x.dtype, grad.dtype)
        rows = _strip_rows(ow, c, kh, kw, compute.itemsize, oh)
        cols_strip = _scratch(
            workspace, "conv2d.bwd.gw.cols", (c * kh * kw, rows * ow), compute
        )
        grad = np.ascontiguousarray(grad)
        grad_w = np.zeros((f, c * kh * kw), dtype=compute)
        for b, r0, r1, cols in _patch_strips(windows, cols_strip, rows):
            # (F, rows, OW) -> (F, m): a view, since grad is C-contiguous.
            grad_w += grad[b, :, r0:r1, :].reshape(f, cols.shape[1]) @ cols.T
    return grad_w.reshape(f, c, kh, kw)


def _stuffed_span(
    out_size: int, size: int, k: int, s: int, p: int
) -> tuple[slice, slice]:
    """Along one axis, where gradient rows land in the stuffed buffer.

    Output position ``o`` lands at ``q = o*s + k-1-p``.  Returns the
    buffer slice and the matching gradient slice, cropped to
    ``0 <= q < size + k - 1`` (positions outside it only ever reach
    the input's zero padding, which happens when ``p > k-1``).
    """
    o0 = max(0, -(-(p - k + 1) // s))
    o1 = max(o0, min(out_size, (size - 1 + p) // s + 1))
    q0 = o0 * s + k - 1 - p
    return slice(q0, q0 + (o1 - o0) * s, s), slice(o0, o1)


def conv2d_grad_input_blocked(
    grad: np.ndarray,
    weight: np.ndarray,
    input_hw: tuple[int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
    workspace: Workspace | None,
) -> np.ndarray:
    """Input gradient ``(N, C, H, W)`` of a conv2d with ``weight``
    ``(F, C, kh, kw)`` and upstream gradient ``grad`` ``(N, F, OH, OW)``.

    Along one axis ``grad_x[i] = sum g[o] w[a]`` over ``o*s + a - p =
    i``.  Writing ``g[o]`` at ``o*s + k-1-p`` of a zero buffer of length
    ``size + k - 1`` turns this into the unpadded stride-1 correlation
    ``grad_x[i] = sum_b buf[i + b] w[k-1-b]`` — a forward convolution
    with the 180°-rotated, channel-swapped kernel.  For stride 1 the
    buffer is the gradient zero-padded by ``k-1-p``; a larger stride
    stuffs ``s-1`` zeros between gradient rows; ``p > k-1`` crops.  The
    result is freshly allocated.
    """
    n, f, oh, ow = grad.shape
    h, w = input_hw
    kh, kw = weight.shape[2], weight.shape[3]
    sh, sw = stride
    ph, pw = padding
    with trace.span("conv2d.blocked.grad_x", cat="compute"):
        shape = (n, f, h + kh - 1, w + kw - 1)
        if workspace is not None:
            # The slot encodes kernel, stride and padding, so with the
            # shape they fix the positions written: the zeros between
            # them persist from the buffer's creation.
            stuffed = workspace.request(
                f"conv2d.bwd.gx.stuffed.k{kh}x{kw}.s{sh}x{sw}.p{ph}x{pw}",
                shape,
                grad.dtype,
            )
        else:
            # Workspace-less: inside a workspace_disabled() block.
            stuffed = np.zeros(shape, dtype=grad.dtype)  # noqa: REP012
        dst_h, src_h = _stuffed_span(oh, h, kh, sh, ph)
        dst_w, src_w = _stuffed_span(ow, w, kw, sw, pw)
        stuffed[:, :, dst_h, dst_w] = grad[:, :, src_h, src_w]
        flipped = weight.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
        grad_x, _ = conv2d_forward_blocked(
            stuffed,
            flipped,
            None,
            (1, 1),
            (0, 0),
            workspace=workspace,
            slot_prefix="conv2d.bwd.gx",
        )
    return grad_x
