"""conv2d's autograd backward against an im2col + GEMM + col2im oracle,
and the memory bound of one training step of a paper-sized layer."""

import tracemalloc

import numpy as np
import pytest

from repro import tensor as T
from repro.tensor import Tensor
from repro.tensor import ops_conv
from repro.tensor.im2col import col2im, im2col

#: Relative tolerance per dtype; ``atol`` scales it by the oracle's
#: largest magnitude, so cancellation near zero is judged against the
#: size of the terms that cancelled.
RTOL = {np.float64: 1e-10, np.float32: 1e-4}

#: (kernel, padding) pairs: padding in {0, k//2, k-1, k}, deduplicated.
KERNEL_PADDING = sorted(
    {(k, p) for k in (1, 3, 5) for p in (0, k // 2, k - 1, k)}
)


def oracle(x, w, b, grad, stride, padding, slope=None):
    """``(grad_x, grad_w, grad_b)`` from the explicit patch matrix."""
    f, c, kh, kw = w.shape
    n = x.shape[0]
    cols, (oh, ow) = im2col(x, (kh, kw), (stride, stride), (padding, padding))
    wmat = w.reshape(f, c * kh * kw)
    gmat = grad.transpose(0, 2, 3, 1).reshape(n * oh * ow, f)
    if slope is not None:
        z = cols @ wmat.T + b
        gmat = gmat * np.where(z >= 0, 1.0, slope).astype(z.dtype)
    grad_w = (gmat.T @ cols).reshape(w.shape)
    grad_x = col2im(
        gmat @ wmat, x.shape, (kh, kw), (stride, stride), (padding, padding)
    )
    return grad_x, grad_w, gmat.sum(axis=0)


def op_gradients(x, w, b, grad, stride, padding, slope=None):
    tx = Tensor(x, requires_grad=True)
    tw = Tensor(w, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    kwargs = {} if slope is None else {"activation": "leaky_relu", "negative_slope": slope}
    out = T.conv2d(tx, tw, tb, stride=stride, padding=padding, **kwargs)
    assert out.shape == grad.shape
    out.backward(grad)
    return tx.grad, tw.grad, tb.grad


def inputs(rng, dtype, k, stride, padding, c=3, f=4, h=11, w=9):
    x = rng.standard_normal((2, c, h, w)).astype(dtype)
    weight = rng.standard_normal((f, c, k, k)).astype(dtype)
    bias = rng.standard_normal(f).astype(dtype)
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    return x, weight, bias, (2, f, oh, ow)


def assert_matches(got, expected, dtype):
    for name, g, e in zip(("grad_x", "grad_w", "grad_b"), got, expected):
        assert g.dtype == dtype, name
        assert g.shape == e.shape, name
        rtol = RTOL[dtype]
        assert np.allclose(g, e, rtol=rtol, atol=rtol * np.abs(e).max()), name


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k,padding", KERNEL_PADDING)
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_matches_col2im_oracle(rng, dtype, k, padding, stride):
    x, w, b, out_shape = inputs(rng, dtype, k, stride, padding)
    grad = rng.standard_normal(out_shape).astype(dtype)
    expected = oracle(x, w, b, grad, stride, padding)
    assert_matches(op_gradients(x, w, b, grad, stride, padding), expected, dtype)


@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 2), (3, 0)])
def test_non_contiguous_upstream_gradient(rng, stride, padding):
    x, w, b, (n, f, oh, ow) = inputs(rng, np.float64, 3, stride, padding)
    grad = rng.standard_normal((ow, n, oh, f)).transpose(1, 3, 2, 0)
    assert not grad.flags.c_contiguous
    expected = oracle(x, w, b, grad, stride, padding)
    assert_matches(op_gradients(x, w, b, grad, stride, padding), expected, np.float64)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("stride,padding", [(1, 2), (2, 1)])
def test_fused_leaky_relu(rng, dtype, stride, padding):
    x, w, b, out_shape = inputs(rng, dtype, 5, stride, padding)
    grad = rng.standard_normal(out_shape).astype(dtype)
    expected = oracle(x, w, b, grad, stride, padding, slope=0.1)
    got = op_gradients(x, w, b, grad, stride, padding, slope=0.1)
    assert_matches(got, expected, dtype)


def test_training_step_never_calls_col2im(rng, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("conv2d's backward called col2im")

    monkeypatch.setattr(ops_conv, "col2im", refuse)
    x, w, b, out_shape = inputs(rng, np.float64, 3, 2, 1)
    op_gradients(x, w, b, rng.standard_normal(out_shape), 2, 1)


def test_training_step_memory_stays_far_below_patch_matrix(rng):
    """One forward+backward of the paper net's 16->6 layer at batch 8
    on a 96x48 block keeps no (N*OH*OW, C*k*k) patch matrix alive."""
    x = Tensor(rng.standard_normal((8, 16, 96, 48)), requires_grad=True)
    w = Tensor(rng.standard_normal((6, 16, 5, 5)), requires_grad=True)
    b = Tensor(rng.standard_normal(6), requires_grad=True)
    cols_bytes = 8 * 96 * 48 * 16 * 5 * 5 * 8  # 112.5 MiB

    def step():
        x.grad = w.grad = b.grad = None
        T.conv2d(x, w, b, padding=2).sum().backward()

    step()  # warm the thread's arena, as every later training step is
    tracemalloc.start()
    try:
        step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * cols_bytes, f"peak {peak / 2**20:.1f} MiB"
