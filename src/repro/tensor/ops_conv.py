"""Differentiable 2-D convolution and transposed convolution.

The forward convolution is im2col + one GEMM; the backward pass reuses
the cached patch matrix for the weight gradient (another GEMM) and
:func:`~repro.tensor.im2col.col2im` for the input gradient.  The
transposed convolution is implemented as the exact adjoint of the
convolution, which is what the paper's "de-convolutional layer"
alternative (Sec. III, option 4) requires.

Fast paths
----------
``conv2d`` accepts ``activation="leaky_relu"``, fusing the bias add and
the activation into the GEMM epilogue (one pass over the 2-D GEMM
output instead of two extra full-size temporaries).  When no parent
needs a gradient the forward additionally draws its im2col scratch from
the calling thread's :class:`~repro.tensor.workspace.Workspace`; under
autograd the naive allocate-per-call path is kept because the backward
closure captures the patch matrix, which must not be recycled by a
later call.  Both fast paths are bit-identical to the naive path — the
epilogue multiplies by ``negative_slope`` only where the
pre-activation is negative, and scales gradients with the exact
``where(z >= 0, 1, slope)`` array the standalone op would build.

:func:`conv2d_forward` is the raw-ndarray kernel behind the op; the
compiled :class:`~repro.core.inference.InferencePlan` calls it directly
with pre-bound GEMM output buffers so rollout steps are allocation-free
after warmup.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..exceptions import ConfigurationError, ShapeError
from ..obs import trace
from . import autograd, gemm
from .blocked import conv2d_forward_blocked, should_block
from .fused import bias_leaky_relu_, leaky_relu_scale
from .im2col import col2im, conv_output_size, im2col
from .tensor import Tensor, ensure_tensor, register_op
from .workspace import Workspace, get_workspace


def _pair(value: int | tuple[int, int]) -> tuple[int, int]:
    if isinstance(value, tuple):
        return (int(value[0]), int(value[1]))
    return (int(value), int(value))


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: tuple[int, int],
    padding: tuple[int, int],
    activation: str | None = None,
    negative_slope: float = 0.01,
    workspace: Workspace | None = None,
    gemm_out: np.ndarray | None = None,
    slot_prefix: str = "conv2d",
    keep_scale: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, tuple[int, int]]:
    """Raw conv2d forward shared by the op and :class:`InferencePlan`.

    Parameters
    ----------
    gemm_out:
        Optional pre-bound ``(N*OH*OW, F)`` buffer for the GEMM result
        (``np.matmul(..., out=...)``).  Only safe for callers that own
        the buffer's lifetime; the op itself always allocates, because
        its result escapes to user code.
    keep_scale:
        Materialize and return the leaky-ReLU derivative array (needed
        by the autograd backward).  Mutually exclusive with the masked
        in-place epilogue, but bit-identical to it.

    Returns
    -------
    ``(out, cols, wmat, act_scale, (oh, ow))`` where ``out`` is the
    ``(N, F, OH, OW)`` result, ``cols``/``wmat`` are the GEMM operands
    (captured by the op's backward), and ``act_scale`` is the
    activation derivative or ``None``.
    """
    n, c, h, w = x.shape
    f = weight.shape[0]
    kh, kw = weight.shape[2], weight.shape[3]
    cols, (oh, ow) = im2col(x, (kh, kw), stride, padding, workspace=workspace)
    wmat = weight.reshape(f, c * kh * kw)
    out = gemm.threaded_matmul(cols, wmat.T, out=gemm_out)  # (N*OH*OW, F)
    act_scale = None
    if activation is None:
        if bias is not None:
            out += bias
    elif keep_scale:
        # Training path: same values as the masked epilogue (z * 1.0 is
        # bit-identical to z), but the derivative array is kept for
        # backward.
        if bias is not None:
            out += bias
        act_scale = leaky_relu_scale(out, negative_slope)
        out *= act_scale
    else:
        bias_leaky_relu_(
            out,
            bias,
            negative_slope,
            workspace=workspace,
            slot=f"{slot_prefix}.mask",
        )
    out4 = out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)
    return out4, cols, wmat, act_scale, (oh, ow)


@register_op("conv2d")
def conv2d(
    x: Any,
    weight: Any,
    bias: Any | None = None,
    stride: int | tuple[int, int] = 1,
    padding: int | tuple[int, int] = 0,
    activation: str | None = None,
    negative_slope: float = 0.01,
) -> Tensor:
    """2-D cross-correlation of ``x`` (N, C, H, W) with ``weight``
    (F, C, kh, kw), optional per-filter ``bias`` (F,).

    ``padding`` is symmetric zero padding; neighbour-data padding (the
    paper's preferred strategy) is applied by the caller before invoking
    this op with ``padding=0``.  ``activation="leaky_relu"`` fuses the
    paper's Eq. (2) activation into the GEMM epilogue — bit-identical
    to a standalone ``leaky_relu`` applied to the conv output, in both
    forward and backward.
    """
    tx, tw = ensure_tensor(x), ensure_tensor(weight)
    tb = ensure_tensor(bias) if bias is not None else None
    stride = _pair(stride)
    padding = _pair(padding)

    if tx.ndim != 4:
        raise ShapeError(f"conv2d input must be (N, C, H, W), got {tx.shape}")
    if tw.ndim != 4:
        raise ShapeError(f"conv2d weight must be (F, C, kh, kw), got {tw.shape}")
    if activation not in (None, "leaky_relu"):
        raise ConfigurationError(
            f"conv2d supports activation=None or 'leaky_relu', got {activation!r}"
        )
    n, c, h, w = tx.shape
    f, wc, kh, kw = tw.shape
    if wc != c:
        raise ShapeError(
            f"conv2d channel mismatch: input has {c} channels, weight expects {wc}"
        )
    if tb is not None and tb.shape != (f,):
        raise ShapeError(f"conv2d bias must have shape ({f},), got {tb.shape}")

    needs_grad = autograd.grad_enabled() and (
        tx.requires_grad
        or tw.requires_grad
        or (tb is not None and tb.requires_grad)
    )
    # The backward closure captures ``cols``; arena scratch would be
    # recycled by the next same-shape call, so only the no-grad path
    # may borrow from the workspace for its *forward* scratch.  (The
    # backward pass borrows its own, separately named slots at backward
    # time — those are consumed within one closure invocation.)
    workspace = None if needs_grad else get_workspace()
    parents = (tx, tw) if tb is None else (tx, tw, tb)

    if not needs_grad and workspace is not None:
        sh, sw = stride
        ph, pw = padding
        oh = conv_output_size(h, kh, sh, ph)
        ow = conv_output_size(w, kw, sw, pw)
        compute = np.result_type(tx.dtype, tw.dtype)
        if should_block(n, c, oh, ow, kh, kw, compute.itemsize):
            # Large shapes: strip-mined kernel (nothing kept — there is
            # no backward on this path).
            with trace.span("conv2d", cat="compute"):
                out, _ = conv2d_forward_blocked(
                    tx.data,
                    tw.data,
                    None if tb is None else tb.data,
                    stride,
                    padding,
                    activation=activation,
                    negative_slope=negative_slope,
                    workspace=workspace,
                )
            return Tensor.from_op(out, parents, _no_backward, "conv2d")

    with trace.span("conv2d", cat="compute"):
        out, cols, wmat, act_scale, (oh, ow) = conv2d_forward(
            tx.data,
            tw.data,
            None if tb is None else tb.data,
            stride,
            padding,
            activation=activation,
            negative_slope=negative_slope,
            workspace=workspace,
            keep_scale=needs_grad and activation is not None,
        )

    def backward(grad: np.ndarray):
        # Backward-internal scratch (the patch-sized matrices) comes
        # from the thread's arena when one is enabled: the buffers are
        # consumed before this closure returns, and the escaping
        # gradients below are always freshly allocated.  Slots are
        # namespaced "conv2d.bwd.*" so an interleaved no-grad forward
        # can never recycle them mid-closure.
        ws = get_workspace()
        uniform = grad.dtype == wmat.dtype == cols.dtype
        with trace.span("conv2d.backward", cat="compute"):
            # grad: (N, F, OH, OW) -> (N*OH*OW, F)
            if ws is not None and uniform:
                gmat = ws.request("conv2d.bwd.gmat", (n * oh * ow, f), grad.dtype)
                np.copyto(
                    gmat.reshape(n, oh, ow, f), grad.transpose(0, 2, 3, 1)
                )
                if act_scale is not None:
                    # Fused activation backward epilogue: same chain-rule
                    # multiply as the naive path, applied in place on the
                    # arena buffer.
                    np.multiply(gmat, act_scale, out=gmat)
            else:
                gmat = grad.transpose(0, 2, 3, 1).reshape(n * oh * ow, f)
                if act_scale is not None:
                    gmat = gmat * act_scale
            grad_w = (
                (gmat.T @ cols).reshape(f, c, kh, kw) if tw.requires_grad else None
            )
            grad_x = None
            if tx.requires_grad:
                if ws is not None and uniform:
                    gcols = ws.request(
                        "conv2d.bwd.gcols", (n * oh * ow, c * kh * kw), gmat.dtype
                    )
                    gemm.threaded_matmul(gmat, wmat, out=gcols)
                    # col2im's result aliases the arena scatter base, so
                    # the escaping gradient is copied out of it.
                    grad_x = col2im(
                        gcols, (n, c, h, w), (kh, kw), stride, padding,
                        workspace=ws,
                    ).copy()
                else:
                    gcols = gemm.threaded_matmul(gmat, wmat)  # (N*OH*OW, C*kh*kw)
                    grad_x = col2im(gcols, (n, c, h, w), (kh, kw), stride, padding)
            if tb is None:
                return grad_x, grad_w
            grad_b = gmat.sum(axis=0) if tb.requires_grad else None
            return grad_x, grad_w, grad_b

    return Tensor.from_op(out, parents, backward, "conv2d")


def _no_backward(grad: np.ndarray):  # pragma: no cover - detached by from_op
    raise AssertionError("blocked conv2d fast path is no-grad only")


@register_op("conv_transpose2d")
def conv_transpose2d(
    x: Any,
    weight: Any,
    bias: Any | None = None,
    stride: int | tuple[int, int] = 1,
    padding: int | tuple[int, int] = 0,
) -> Tensor:
    """Transposed 2-D convolution (adjoint of :func:`conv2d`).

    ``weight`` has shape ``(C_in, C_out, kh, kw)`` (PyTorch convention).
    The output spatial size is ``(H - 1) * stride - 2 * padding + k``.
    The op stays allocation-naive even under ``no_grad`` because its
    ``col2im`` result escapes as the op output; the workspace-backed
    variant lives in :class:`~repro.core.inference.InferencePlan`,
    which owns the buffer lifetimes and copies the final result out.
    """
    tx, tw = ensure_tensor(x), ensure_tensor(weight)
    tb = ensure_tensor(bias) if bias is not None else None
    stride = _pair(stride)
    padding = _pair(padding)

    if tx.ndim != 4:
        raise ShapeError(f"conv_transpose2d input must be (N, C, H, W), got {tx.shape}")
    n, c, h, w = tx.shape
    wc, f, kh, kw = tw.shape
    if wc != c:
        raise ShapeError(
            f"conv_transpose2d channel mismatch: input {c}, weight expects {wc}"
        )
    sh, sw = stride
    ph, pw = padding
    oh = (h - 1) * sh - 2 * ph + kh
    ow = (w - 1) * sw - 2 * pw + kw
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"conv_transpose2d output size ({oh}, {ow}) <= 0")
    if tb is not None and tb.shape != (f,):
        raise ShapeError(f"conv_transpose2d bias must have shape ({f},), got {tb.shape}")

    # Forward of the transpose-conv == input-gradient of a conv whose
    # input has shape (n, f, oh, ow): scatter rows of x @ W into the
    # output image with col2im.
    with trace.span("conv_transpose2d", cat="compute"):
        wmat = tw.data.reshape(c, f * kh * kw)
        xmat = tx.data.transpose(0, 2, 3, 1).reshape(n * h * w, c)
        cols = xmat @ wmat  # (N*H*W, F*kh*kw)
        out = col2im(cols, (n, f, oh, ow), (kh, kw), stride, padding)
        if tb is not None:
            out = out + tb.data[None, :, None, None]

    parents = (tx, tw) if tb is None else (tx, tw, tb)

    def backward(grad: np.ndarray):
        # Adjoint of col2im is im2col of the gradient image.
        gcols, _ = im2col(grad, (kh, kw), stride, padding)  # (N*H*W, F*kh*kw)
        grad_x = None
        if tx.requires_grad:
            gx = gcols @ wmat.T  # (N*H*W, C)
            grad_x = gx.reshape(n, h, w, c).transpose(0, 3, 1, 2)
        grad_w = (xmat.T @ gcols).reshape(c, f, kh, kw) if tw.requires_grad else None
        if tb is None:
            return grad_x, grad_w
        grad_b = grad.sum(axis=(0, 2, 3)) if tb.requires_grad else None
        return grad_x, grad_w, grad_b

    return Tensor.from_op(out, parents, backward, "conv_transpose2d")
