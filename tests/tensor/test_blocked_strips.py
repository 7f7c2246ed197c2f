"""The strip-mined conv kernels across many strips, including a last
strip shorter than the others, against the monolithic forward and the
im2col + GEMM + col2im gradient oracle."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.tensor import blocked
from repro.tensor.blocked import (
    conv2d_forward_blocked,
    conv2d_grad_input_blocked,
    conv2d_grad_weight_blocked,
)
from repro.tensor.ops_conv import conv2d_forward
from repro.tensor.workspace import Workspace

from .test_conv_backward import RTOL, oracle

#: (C, F): filter counts on both sides of C*k*k, as in the paper net's
#: 4->6 and 16->6 layers.
CHANNELS = [(4, 6), (16, 6)]


def small_strips(monkeypatch, x, k, stride, padding):
    """Shrink the strip budget so the forward over ``x`` runs several
    strips per image and the last one is shorter; return the strip
    rows and output rows."""
    n, c, h, w = x.shape
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    rows = next(r for r in (3, 2, 4) if r < oh and oh % r)
    monkeypatch.setattr(
        blocked, "_TARGET_STRIP_BYTES", rows * ow * c * k * k * x.itemsize
    )
    assert blocked._strip_rows(ow, c, k, k, x.itemsize, oh) == rows
    return rows, oh


def case(rng, dtype, c, f, k, stride, padding, h=17, w=10):
    x = rng.standard_normal((2, c, h, w)).astype(dtype)
    weight = rng.standard_normal((f, c, k, k)).astype(dtype)
    bias = rng.standard_normal(f).astype(dtype)
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    grad = rng.standard_normal((2, f, oh, ow)).astype(dtype)
    return x, weight, bias, grad


def assert_close(got, expected, dtype):
    assert got.dtype == dtype
    assert got.shape == expected.shape
    rtol = RTOL[dtype]
    assert np.allclose(got, expected, rtol=rtol, atol=rtol * np.abs(expected).max())


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("c,f", CHANNELS)
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("activation", [None, "leaky_relu"])
@pytest.mark.parametrize("arena", [False, True], ids=["no-arena", "arena"])
@pytest.mark.parametrize("epilogue_strips", [1, 4, None])
def test_forward_matches_monolithic(
    rng, monkeypatch, dtype, c, f, stride, activation, arena, epilogue_strips
):
    """Also with the bias/activation epilogue run after every strip,
    after every 4 strips (a shorter last group per image), and once
    per image."""
    x, w, b, grad = case(rng, dtype, c, f, 5, stride, 2)
    rows, oh = small_strips(monkeypatch, x, 5, stride, 2)
    assert 1 < rows < oh and oh % rows
    if epilogue_strips is not None:
        ow = grad.shape[3]
        monkeypatch.setattr(blocked, "_EPILOGUE_COLS", epilogue_strips * rows * ow)
    expected, _ = conv2d_forward(
        x, w, b, (stride, stride), (2, 2), activation=activation, negative_slope=0.1
    )
    got, (gh, _) = conv2d_forward_blocked(
        x,
        w,
        b,
        (stride, stride),
        (2, 2),
        activation=activation,
        negative_slope=0.1,
        workspace=Workspace() if arena else None,
    )
    assert gh == oh
    assert got.flags.c_contiguous
    assert_close(got, expected, dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("c,f", CHANNELS)
@pytest.mark.parametrize("stride,padding", [(1, 2), (2, 1), (3, 2)])
def test_gradients_match_oracle(rng, monkeypatch, dtype, c, f, stride, padding):
    x, w, b, grad = case(rng, dtype, c, f, 5, stride, padding)
    small_strips(monkeypatch, x, 5, stride, padding)
    grad_x, grad_w, _ = oracle(x, w, b, grad, stride, padding)
    ws = Workspace()
    pair = (stride, stride), (padding, padding)
    assert_close(conv2d_grad_weight_blocked(x, grad, (5, 5), *pair, ws), grad_w, dtype)
    assert_close(
        conv2d_grad_input_blocked(grad, w, x.shape[2:], *pair, ws), grad_x, dtype
    )


@pytest.mark.parametrize("layout", ["transposed", "column-padded"])
def test_non_contiguous_out_raises(rng, monkeypatch, layout):
    """A destination whose last two axes are not contiguous would make
    the per-strip reshape a silent copy; the kernel refuses it.  With
    one-row strips each strip's rows are a view of a column-padded
    ``out``, but the epilogue's multi-row group is not."""
    x, w, b, grad = case(rng, np.float64, 4, 6, 5, 1, 2)
    n, f, oh, ow = grad.shape
    if layout == "transposed":
        out = np.empty((n, f, ow, oh)).transpose(0, 1, 3, 2)
    else:
        monkeypatch.setattr(blocked, "_TARGET_STRIP_BYTES", 1)
        out = np.empty((n, f, oh, ow + 1))[..., :ow]
    with pytest.raises(ShapeError, match="contiguous"):
        conv2d_forward_blocked(x, w, b, (1, 1), (2, 2), out=out)


def test_writes_into_given_out(rng, monkeypatch):
    x, w, b, grad = case(rng, np.float64, 16, 6, 5, 1, 2)
    small_strips(monkeypatch, x, 5, 1, 2)
    # A row-padded destination: strided batch and channel axes, but
    # contiguous (rows, OW) planes, so every strip GEMM is a view.
    n, f, oh, ow = grad.shape
    out = np.full((n, f + 1, oh, ow), np.nan)[:, :f]
    got, _ = conv2d_forward_blocked(x, w, b, (1, 1), (2, 2), out=out)
    assert got is out
    expected, _ = conv2d_forward(x, w, b, (1, 1), (2, 2))
    assert_close(out, expected, np.float64)
