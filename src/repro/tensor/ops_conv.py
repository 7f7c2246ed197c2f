"""Differentiable 2-D convolution and transposed convolution.

A small no-grad forward is im2col + one GEMM (:func:`conv2d_forward`).
Large no-grad forwards (:func:`~repro.tensor.blocked.should_block`)
and every forward under autograd run the strip-mined kernels of
:mod:`~repro.tensor.blocked`: K-major ``(C*kh*kw, rows*OW)`` patch
strips, each one ``W (F, C*kh*kw) @ cols`` GEMM written straight into
its rows of the NCHW output.  Under autograd the forward keeps only
``x`` and ``weight`` (no patch matrix), the weight gradient is
accumulated strip by strip, and the input gradient is a forward
convolution of the gradient with the 180°-rotated, channel-swapped
kernel, so training never scatters patch rows back into an image.  The transposed convolution is implemented as the exact
adjoint of the convolution (its forward *is* a ``col2im`` scatter),
which is what the paper's "de-convolutional layer" alternative
(Sec. III, option 4) requires.

Fast paths
----------
``conv2d`` accepts ``activation="leaky_relu"``, fusing the bias add and
the activation into the GEMM epilogue (one pass over each GEMM result
instead of two extra full-size temporaries).  When no parent
needs a gradient the forward additionally draws its scratch from the
calling thread's :class:`~repro.tensor.workspace.Workspace`; under
autograd the forward takes no arena scratch at all, and the backward
borrows only its own namespaced ``conv2d.bwd.*`` slots.  Both fast
paths are bit-identical to the naive path — the epilogue multiplies by
``negative_slope`` only where the pre-activation is negative, and the
backward scales gradients with the exact ``where(z >= 0, 1, slope)``
array the standalone op would build.

:func:`conv2d_forward` is the raw-ndarray kernel behind the no-grad op;
the compiled :class:`~repro.core.inference.InferencePlan` calls it
directly with pre-bound GEMM output buffers so rollout steps are
allocation-free after warmup.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..exceptions import ConfigurationError, ShapeError
from ..obs import trace
from . import autograd, gemm
from .blocked import (
    conv2d_forward_blocked,
    conv2d_grad_input_blocked,
    conv2d_grad_weight_blocked,
    should_block,
)
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
) -> tuple[np.ndarray, tuple[int, int]]:
    """Raw monolithic conv2d forward shared by the no-grad op and
    :class:`InferencePlan`.

    Parameters
    ----------
    gemm_out:
        Optional pre-bound ``(N*OH*OW, F)`` buffer for the GEMM result
        (``np.matmul(..., out=...)``).  Only safe for callers that own
        the buffer's lifetime; the op itself always allocates, because
        its result escapes to user code.

    Returns
    -------
    ``(out, (oh, ow))`` where ``out`` is the ``(N, F, OH, OW)`` result.
    """
    n, c, h, w = x.shape
    f = weight.shape[0]
    kh, kw = weight.shape[2], weight.shape[3]
    cols, (oh, ow) = im2col(x, (kh, kw), stride, padding, workspace=workspace)
    wmat = weight.reshape(f, c * kh * kw)
    out = gemm.threaded_matmul(cols, wmat.T, out=gemm_out)  # (N*OH*OW, F)
    if activation is None:
        if bias is not None:
            out += bias
    else:
        bias_leaky_relu_(
            out,
            bias,
            negative_slope,
            workspace=workspace,
            slot=f"{slot_prefix}.mask",
        )
    out4 = out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)
    return out4, (oh, ow)


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
    x_data, w_data = tx.data, tw.data
    b_data = None if tb is None else tb.data
    parents = (tx, tw) if tb is None else (tx, tw, tb)

    if not needs_grad:
        workspace = get_workspace()
        sh, sw = stride
        ph, pw = padding
        oh = conv_output_size(h, kh, sh, ph)
        ow = conv_output_size(w, kw, sw, pw)
        compute = np.result_type(tx.dtype, tw.dtype)
        # Large shapes take the strip-mined kernel.
        blocked = workspace is not None and should_block(
            n, c, oh, ow, kh, kw, compute.itemsize
        )
        kernel = conv2d_forward_blocked if blocked else conv2d_forward
        with trace.span("conv2d", cat="compute"):
            out, _ = kernel(
                x_data,
                w_data,
                b_data,
                stride,
                padding,
                activation=activation,
                negative_slope=negative_slope,
                workspace=workspace,
            )
        return Tensor.from_op(out, parents, _no_backward, "conv2d")

    # Training: no arena scratch (nothing here may be recycled by a
    # later call before backward runs), and nothing patch-sized kept.
    act_scale = None
    with trace.span("conv2d", cat="compute"):
        out, _ = conv2d_forward_blocked(x_data, w_data, b_data, stride, padding)
        if activation is not None:
            # Same values as the masked epilogue (z * 1.0 is
            # bit-identical to z), but the derivative array is kept.
            act_scale = leaky_relu_scale(out, negative_slope)
            out *= act_scale

    def backward(grad: np.ndarray):
        # Backward scratch (strip buffers, the padded input, the
        # stuffed gradient) comes from the thread's arena when one is
        # enabled: it is consumed before this closure returns, and the
        # escaping gradients are always freshly allocated.  Slots are
        # namespaced "conv2d.bwd.*" so an interleaved no-grad forward
        # can never recycle them mid-closure.
        ws = get_workspace()
        with trace.span("conv2d.backward", cat="compute"):
            if act_scale is not None:
                grad = grad * act_scale
            grad_x = (
                conv2d_grad_input_blocked(grad, w_data, (h, w), stride, padding, ws)
                if tx.requires_grad
                else None
            )
            grad_w = (
                conv2d_grad_weight_blocked(
                    x_data, grad, (kh, kw), stride, padding, ws
                )
                if tw.requires_grad
                else None
            )
            if tb is None:
                return grad_x, grad_w
            grad_b = grad.sum(axis=(0, 2, 3)) if tb.requires_grad else None
            return grad_x, grad_w, grad_b

    return Tensor.from_op(out, parents, backward, "conv2d")


def _no_backward(grad: np.ndarray):  # pragma: no cover - detached by from_op
    raise AssertionError("conv2d no-grad paths record no backward")


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
