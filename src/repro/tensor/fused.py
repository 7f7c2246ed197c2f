"""In-place, inference-only fused elementwise kernels.

These are the "elementwise variants used only under ``no_grad``" from
the workspace/fusion layer: they mutate their operand's storage instead
of materializing a new array, which is exactly what the autograd tape
cannot tolerate — a recorded parent's ``data`` must stay frozen until
``backward`` runs.  Every entry point therefore refuses to run while
gradient recording is enabled (:class:`~repro.exceptions.AutogradError`),
which is also why none of them is a registered op: registered ops must
pass the gradcheck harness, and an op that rewrites its input has no
well-defined finite-difference reference.

All kernels are bit-identical to their out-of-place counterparts in
:mod:`~repro.tensor.ops_elementwise`.  In particular the leaky-ReLU
variants multiply by ``negative_slope`` *only where the operand is
negative* (``np.multiply(..., where=mask)``); the untouched non-negative
lanes equal the naive path's ``x * 1.0`` exactly under IEEE-754.

:func:`bias_leaky_relu_` is the shared GEMM epilogue: ``conv2d`` (on its
no-grad fast path) and :class:`~repro.core.inference.InferencePlan` both
call it on the 2-D ``(N*OH*OW, F)`` GEMM output before the final
reshape, so the fused op and the compiled plan run literally the same
arithmetic as the naive conv-then-activation pair.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..exceptions import AutogradError
from ..obs import trace
from . import autograd
from .tensor import Tensor
from .workspace import Workspace

__all__ = [
    "add_",
    "bias_leaky_relu_",
    "leaky_relu_",
    "leaky_relu_scale",
    "mul_",
]


def _writable(x: Any, name: str) -> np.ndarray:
    """The operand's storage, after checking the in-place contract."""
    if autograd.grad_enabled():
        raise AutogradError(
            f"{name} mutates its operand in place and would corrupt any "
            "autograd tape that recorded it; wrap the call in no_grad()"
        )
    data = x.data if isinstance(x, Tensor) else x
    if not isinstance(data, np.ndarray):
        raise AutogradError(
            f"{name} requires an ndarray or Tensor operand to mutate, "
            f"got {type(x).__name__}"
        )
    return data


def leaky_relu_scale(z: np.ndarray, negative_slope: float = 0.01) -> np.ndarray:
    """The leaky-ReLU derivative mask ``where(z >= 0, 1, slope)``.

    Shared by the out-of-place op's backward and the fused conv2d
    backward so both scale gradients with the exact same array.  The
    mask is built in ``z``'s own dtype: the float64 values are
    unchanged (1.0 and any Python-float slope are exact in float32 and
    float64 alike for the slopes we use), and a float32 backward pass
    would otherwise be silently promoted to float64 by the float64
    array ``np.where`` produces from Python-float branches.
    """
    # Training-only allocation: only the conv2d op's autograd forward
    # calls this, so it is unreachable from a warmed-up rollout.
    scale = np.empty_like(z)  # noqa: REP012
    scale[...] = negative_slope
    np.copyto(scale, 1.0, where=z >= 0.0)
    return scale


def bias_leaky_relu_(
    out: np.ndarray,
    bias: np.ndarray | None = None,
    negative_slope: float = 0.01,
    workspace: Workspace | None = None,
    slot: str = "fused.mask",
) -> np.ndarray:
    """GEMM epilogue: ``out += bias`` then leaky-ReLU, all in place.

    ``out`` is the 2-D ``(rows, F)`` GEMM result; ``bias`` broadcasts
    along rows.  With a ``workspace`` the scaled-copy scratch comes
    from the arena (keyed by ``slot``) instead of a fresh allocation.
    Returns ``out`` for chaining.

    The activation is computed as ``max(z, slope * z)``, which is
    bit-identical to the masked-multiply form for ``0 <= slope <= 1``:
    non-negative lanes win the max and keep ``z`` untouched (ties at
    ``±0.0`` compare equal bitwise), negative lanes lose to the exact
    same IEEE product.  Two dense vector ops beat NumPy's buffered
    ``where=``-masked multiply several times over on large outputs —
    the masked form is what originally made the fused conv *lose* to
    the plain one at 256x256.
    """
    with trace.span("fused.bias_leaky_relu", cat="compute"):
        if bias is not None:
            out += bias
        if workspace is not None:
            scaled = workspace.request(slot, out.shape, out.dtype)
            np.multiply(out, negative_slope, out=scaled)
        else:
            scaled = out * negative_slope
        np.maximum(out, scaled, out=out)
    return out


def leaky_relu_(x: Any, negative_slope: float = 0.01) -> Any:
    """In-place leaky ReLU (inference only); returns ``x``."""
    data = _writable(x, "leaky_relu_")
    with trace.span("fused.leaky_relu_", cat="compute"):
        mask = data < 0.0
        np.multiply(data, negative_slope, out=data, where=mask)
    return x


def add_(x: Any, other: Any) -> Any:
    """In-place ``x += other`` (inference only); returns ``x``."""
    data = _writable(x, "add_")
    with trace.span("fused.add_", cat="compute"):
        data += other.data if isinstance(other, Tensor) else other
    return x


def mul_(x: Any, other: Any) -> Any:
    """In-place ``x *= other`` (inference only); returns ``x``."""
    data = _writable(x, "mul_")
    with trace.span("fused.mul_", cat="compute"):
        data *= other.data if isinstance(other, Tensor) else other
    return x
