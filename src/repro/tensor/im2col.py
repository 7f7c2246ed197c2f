"""Vectorized im2col / col2im kernels used by the convolution ops.

Following the HPC guidance for NumPy code, the patch extraction is a
zero-copy ``sliding_window_view`` followed by a single reshape-to-GEMM,
so the heavy lifting happens inside BLAS.  ``col2im`` (the adjoint)
scatter-adds with a short loop over the *kernel* footprint — at most
``kh*kw`` iterations (25 for the paper's 5×5 kernels) — instead of a
Python loop over pixels.

Both kernels accept an optional :class:`~repro.tensor.workspace.
Workspace`: the padded-input scratch and the patch matrix (``im2col``)
and the scatter-add base (``col2im``) are then served from reusable
arena buffers instead of fresh allocations.  The arithmetic is
bit-identical either way; only the buffers' provenance changes.  With a
workspace, ``col2im``'s result aliases arena storage (it is the
scatter base, or a view into it), so it is only valid until the next
request of the same slot — callers that let the result escape must
copy it out, which is why the autograd backward paths stay naive.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..exceptions import ShapeError
from ..obs import trace
from .workspace import Workspace


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"convolution output size {out} <= 0 "
            f"(input {size}, kernel {kernel}, stride {stride}, padding {padding})"
        )
    return out


def im2col(
    x: np.ndarray,
    kernel: tuple[int, int],
    stride: tuple[int, int] = (1, 1),
    padding: tuple[int, int] = (0, 0),
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, tuple[int, int]]:
    """Unfold sliding patches of ``x`` into a GEMM-ready matrix.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel, stride, padding:
        Per-axis (height, width) convolution parameters; padding is
        symmetric zero padding.
    workspace:
        Optional arena serving the padded-input scratch and the patch
        matrix.  The returned ``cols`` then aliases arena storage and
        is valid only until the arena's next request of the same slot.

    Returns
    -------
    cols:
        Array of shape ``(N * OH * OW, C * kh * kw)`` where each row is
        one receptive field, flattened in ``(C, kh, kw)`` order.
    (OH, OW):
        Output spatial dimensions.
    """
    if x.ndim != 4:
        raise ShapeError(f"im2col expects (N, C, H, W), got shape {x.shape}")
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)
    with trace.span("im2col", cat="compute"):
        if ph or pw:
            if workspace is not None:
                # The slot encodes the padding split: two callers whose
                # padded shapes coincide but whose interiors differ must
                # not share a buffer, because only the interior is ever
                # rewritten (the borders stay zero from creation).
                padded = workspace.request(
                    f"im2col.padded.{ph}x{pw}",
                    (n, c, h + 2 * ph, w + 2 * pw),
                    x.dtype,
                )
                padded[:, :, ph : ph + h, pw : pw + w] = x
                x = padded
            else:
                # Workspace-less naive fallback: correctness path only,
                # never taken by a warmed-up InferencePlan.
                x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))  # noqa: REP012
        # (N, C, H', W') -> (N, C, OH*, OW*, kh, kw) view, strided to OH, OW
        windows = sliding_window_view(x, (kh, kw), axis=(2, 3))
        windows = windows[:, :, ::sh, ::sw, :, :]
        # -> (N, OH, OW, C, kh, kw) -> (N*OH*OW, C*kh*kw). The transpose
        # forces one copy; with a workspace that copy lands in a warm
        # arena buffer instead of a fresh (page-faulting) allocation.
        patches = windows.transpose(0, 2, 3, 1, 4, 5)
        if workspace is not None:
            cols = workspace.request(
                "im2col.cols", (n * oh * ow, c * kh * kw), x.dtype
            )
            np.copyto(cols.reshape(n, oh, ow, c, kh, kw), patches)
        else:
            cols = patches.reshape(n * oh * ow, c * kh * kw)
    return cols, (oh, ow)


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: tuple[int, int] = (1, 1),
    padding: tuple[int, int] = (0, 0),
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add patch rows back to an image.

    Parameters
    ----------
    cols:
        Array of shape ``(N * OH * OW, C * kh * kw)``.
    input_shape:
        The ``(N, C, H, W)`` shape of the original (un-padded) input.
    workspace:
        Optional arena serving the scatter-add base.  The result then
        aliases arena storage (the base itself, or a view into it when
        padding is non-zero) and is valid only until the arena's next
        request of the same slot — copy it out if it escapes.

    Returns
    -------
    Array of shape ``input_shape`` with overlapping patch contributions
    summed.
    """
    n, c, h, w = input_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)
    expected = (n * oh * ow, c * kh * kw)
    if cols.shape != expected:
        raise ShapeError(f"col2im expected cols of shape {expected}, got {cols.shape}")

    with trace.span("col2im", cat="compute"):
        patches = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
        padded_shape = (n, c, h + 2 * ph, w + 2 * pw)
        if workspace is not None:
            # The scatter base accumulates, so it must be re-zeroed on
            # every request — fill(0) on a warm buffer is still far
            # cheaper than a fresh page-faulting np.zeros.
            padded = workspace.request(
                f"col2im.padded.{ph}x{pw}", padded_shape, cols.dtype, zero=True
            )
        else:
            # Workspace-less naive fallback: correctness path only,
            # never taken by a warmed-up InferencePlan.
            padded = np.zeros(padded_shape, dtype=cols.dtype)  # noqa: REP012
        # Loop only over the kernel footprint; each iteration is a strided
        # vectorized add over all output positions at once.
        for i in range(kh):
            h_stop = i + sh * oh
            for j in range(kw):
                w_stop = j + sw * ow
                padded[:, :, i:h_stop:sh, j:w_stop:sw] += patches[:, :, :, :, i, j]
    if ph or pw:
        return padded[:, :, ph : ph + h, pw : pw + w]
    return padded
