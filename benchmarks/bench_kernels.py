"""Kernel-level microbenchmarks for the performance-critical pieces:
the im2col convolution, the halo exchange, and one solver step on the
paper's full 256 x 256 grid.

These are not paper artifacts; they document where the training time of
Figs. 3-4 is spent and guard against performance regressions.  Each
test tags its ``extra_info`` with the problem size so the emitted
``BENCH_kernels.json`` records are self-describing.
"""

import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro import mpi
from repro.core import InferencePlan, build_paper_cnn
from repro.domain import BlockDecomposition, HaloExchanger
from repro.solver import LinearizedEuler, Simulation, UniformGrid2D, paper_initial_condition
from repro.tensor import (
    Tensor,
    col2im,
    conv2d,
    get_workspace,
    im2col,
    leaky_relu,
    no_grad,
    precision,
    workspace_disabled,
)
from repro.tensor.blocked import _strip_rows

#: Rounds for the InferencePlan step benchmarks.  One step is ~10² ms,
#: so pytest-benchmark's calibrated default lands at rounds=5 — too few
#: for a stable median on a shared host.  Fixed pedantic rounds keep
#: the float32-vs-float64 ordering gate out of scheduler-noise
#: territory and make the recorded stddev meaningful.
PLAN_STEP_ROUNDS = 12


def test_im2col_256(benchmark):
    benchmark.extra_info["grid"] = 256
    benchmark.extra_info["channels"] = 4
    x = np.random.default_rng(0).standard_normal((1, 4, 256, 256))
    cols, dims = benchmark(lambda: im2col(x, (5, 5), (1, 1), (2, 2)))
    assert dims == (256, 256)


def test_conv2d_forward_256(benchmark):
    benchmark.extra_info["grid"] = 256
    benchmark.extra_info["kernel"] = 5
    benchmark.extra_info["kernel_path"] = "blocked"
    benchmark.extra_info["precision"] = "float64"
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 4, 256, 256)))
    w = Tensor(rng.standard_normal((6, 4, 5, 5)))

    def forward():
        with no_grad():
            return conv2d(x, w, padding=2)

    out = benchmark(forward)
    assert out.shape == (1, 6, 256, 256)


def test_conv2d_forward_fused_256(benchmark):
    """The fused/workspace path of the same 256x256 convolution: bias +
    leaky ReLU folded into the GEMM epilogue, scratch from the
    per-thread workspace arena (the no-grad fast path)."""
    benchmark.extra_info["grid"] = 256
    benchmark.extra_info["kernel"] = 5
    benchmark.extra_info["variant"] = "fused+workspace"
    benchmark.extra_info["kernel_path"] = "blocked"
    benchmark.extra_info["precision"] = "float64"
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 4, 256, 256)))
    w = Tensor(rng.standard_normal((6, 4, 5, 5)))
    b = Tensor(rng.standard_normal(6))

    def forward():
        with no_grad():
            return conv2d(x, w, b, padding=2, activation="leaky_relu")

    out = benchmark(forward)
    assert out.shape == (1, 6, 256, 256)


def test_conv2d_forward_plain_epilogue_256(benchmark):
    """Composed-ops path doing the *identical work* as the fused
    variant — conv + bias by the op, then a separate ``leaky_relu``
    op — with the workspace arena ON.  This is the honest B side of
    the ``fused <= plain`` ordering gate: both sides add the bias and
    apply the activation, so the only difference is fusion (the bare
    ``test_conv2d_forward_256`` does strictly less work and would make
    that comparison meaningless)."""
    benchmark.extra_info["grid"] = 256
    benchmark.extra_info["kernel"] = 5
    benchmark.extra_info["variant"] = "plain+workspace"
    benchmark.extra_info["kernel_path"] = "blocked"
    benchmark.extra_info["precision"] = "float64"
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 4, 256, 256)))
    w = Tensor(rng.standard_normal((6, 4, 5, 5)))
    b = Tensor(rng.standard_normal(6))

    def forward():
        with no_grad():
            return leaky_relu(conv2d(x, w, b, padding=2), 0.01)

    out = benchmark(forward)
    assert out.shape == (1, 6, 256, 256)


def test_conv2d_forward_naive_epilogue_256(benchmark):
    """The allocate-per-call baseline for the fused variant above:
    conv, then bias is added by the op, then a separate leaky ReLU —
    with the workspace arena disabled."""
    benchmark.extra_info["grid"] = 256
    benchmark.extra_info["kernel"] = 5
    benchmark.extra_info["variant"] = "naive"
    benchmark.extra_info["kernel_path"] = "monolithic"
    benchmark.extra_info["precision"] = "float64"
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 4, 256, 256)))
    w = Tensor(rng.standard_normal((6, 4, 5, 5)))
    b = Tensor(rng.standard_normal(6))

    def forward():
        with no_grad(), workspace_disabled():
            return leaky_relu(conv2d(x, w, b, padding=2), 0.01)

    out = benchmark(forward)
    assert out.shape == (1, 6, 256, 256)


def test_fused_conv_speedup_256():
    """Regression gate for the workspace/fusion layer: the fused path
    must stay >= 1.3x faster than the naive path at the paper's
    256x256 / 4-channel / 5x5 configuration (best-of timing to shed
    scheduler noise)."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 4, 256, 256)))
    w = Tensor(rng.standard_normal((6, 4, 5, 5)))
    b = Tensor(rng.standard_normal(6))

    def naive():
        with no_grad(), workspace_disabled():
            leaky_relu(conv2d(x, w, b, padding=2), 0.01)

    def fused():
        with no_grad():
            conv2d(x, w, b, padding=2, activation="leaky_relu")

    def best_of(fn, repeats=7):
        fn()  # warmup: page faults, BLAS spin-up, arena fill
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    naive_s = best_of(naive)
    fused_s = best_of(fused)
    speedup = naive_s / fused_s
    print(f"\nfused conv speedup @256: {speedup:.2f}x "
          f"(naive {naive_s * 1e3:.2f} ms, fused {fused_s * 1e3:.2f} ms)")
    assert speedup >= 1.3, (
        f"fused/workspace conv forward only {speedup:.2f}x faster than "
        f"naive (need >= 1.3x)"
    )


def test_conv2d_forward_float32_256(benchmark):
    """The bare 256x256 convolution under the ``float32`` compute
    mode — half the bytes through every stage of the blocked kernel,
    so this is the current run's A side of the ``float32 <= float64``
    ordering gate."""
    benchmark.extra_info["grid"] = 256
    benchmark.extra_info["kernel"] = 5
    benchmark.extra_info["kernel_path"] = "blocked"
    benchmark.extra_info["precision"] = "float32"
    with precision("float32"):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 4, 256, 256)))
        w = Tensor(rng.standard_normal((6, 4, 5, 5)))
        assert x.dtype == np.float32  # policy cast at the Tensor boundary

        def forward():
            with no_grad():
                return conv2d(x, w, padding=2)

        out = benchmark(forward)
    assert out.shape == (1, 6, 256, 256)
    assert out.dtype == np.float32


def test_conv2d_forward_fused_float32_256(benchmark):
    """The fused/workspace path at ``float32``: the arena hands back
    float32 slots (dtype is part of the slot key), so epilogue scratch
    shrinks along with the GEMM."""
    benchmark.extra_info["grid"] = 256
    benchmark.extra_info["kernel"] = 5
    benchmark.extra_info["variant"] = "fused+workspace"
    benchmark.extra_info["kernel_path"] = "blocked"
    benchmark.extra_info["precision"] = "float32"
    with precision("float32"):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 4, 256, 256)))
        w = Tensor(rng.standard_normal((6, 4, 5, 5)))
        b = Tensor(rng.standard_normal(6))

        def forward():
            with no_grad():
                return conv2d(x, w, b, padding=2, activation="leaky_relu")

        out = benchmark(forward)
    assert out.shape == (1, 6, 256, 256)
    assert out.dtype == np.float32


def _conv_16to6_256():
    """The paper net's 16->6 layer (5x5, padding 2) on one 256x128
    block: the no-grad shape ROADMAP item 3 names as its hot layer."""
    rng = np.random.default_rng(0)
    return (
        rng.standard_normal((1, 16, 256, 128)),
        rng.standard_normal((6, 16, 5, 5)),
        rng.standard_normal(6),
    )


def test_conv2d_forward_16to6_256(benchmark):
    """The no-grad fused op (bias + leaky ReLU in the epilogue) on the
    16->6 layer: K-major patch strips, one ``W @ cols`` GEMM per strip
    straight into the NCHW output.  The A side of the strip-layout
    ordering gate."""
    benchmark.extra_info["grid"] = 256
    benchmark.extra_info["kernel"] = 5
    benchmark.extra_info["variant"] = "k-major strips"
    benchmark.extra_info["kernel_path"] = "blocked"
    benchmark.extra_info["precision"] = "float64"
    x, w, b = (Tensor(a) for a in _conv_16to6_256())

    def forward():
        with no_grad():
            return conv2d(x, w, b, padding=2, activation="leaky_relu")

    out = benchmark(forward)
    assert out.shape == (1, 6, 256, 128)


def test_conv2d_forward_rowmajor_16to6_256(benchmark):
    """The same fused forward with the strip layout the blocked kernel
    used to build: row-major ``(m, C*k*k)`` patch strips gathered in
    ``kw``-long runs, a skinny ``cols @ W.T`` GEMM with N = F = 6 into
    a strip scratch, then a transpose of the strip into ``(F, rows,
    OW)`` and the epilogue there; scratch from the thread's arena.  The
    B side of the ordering gate."""
    benchmark.extra_info["grid"] = 256
    benchmark.extra_info["kernel"] = 5
    benchmark.extra_info["variant"] = "row-major strips"
    benchmark.extra_info["kernel_path"] = "blocked"
    benchmark.extra_info["precision"] = "float64"
    x, w, b = _conv_16to6_256()
    n, c, h, wd = x.shape
    f = w.shape[0]
    wmat_t = w.reshape(f, c * 25).T
    rows = _strip_rows(wd, c, 5, 5, x.itemsize, h)
    ws = get_workspace()

    def forward():
        padded = ws.request("bench.rowmajor.padded", (n, c, h + 4, wd + 4), x.dtype)
        padded[:, :, 2 : 2 + h, 2 : 2 + wd] = x
        windows = sliding_window_view(padded, (5, 5), axis=(2, 3))
        cols_strip = ws.request("bench.rowmajor.cols", (rows * wd, c * 25), x.dtype)
        gemm_strip = ws.request("bench.rowmajor.gemm", (rows * wd, f), x.dtype)
        scaled_strip = ws.request("bench.rowmajor.scaled", (f, rows, wd), x.dtype)
        out = np.empty((n, f, h, wd))
        for i in range(n):
            for r0 in range(0, h, rows):
                r1 = min(h, r0 + rows)
                cols = cols_strip[: (r1 - r0) * wd]
                np.copyto(
                    cols.reshape(r1 - r0, wd, c, 5, 5),
                    windows[i, :, r0:r1].transpose(1, 2, 0, 3, 4),
                )
                strip = gemm_strip[: cols.shape[0]]
                np.matmul(cols, wmat_t, out=strip)
                dest = out[i, :, r0:r1, :]
                dest[...] = strip.reshape(r1 - r0, wd, f).transpose(2, 0, 1)
                scaled = scaled_strip[:, : r1 - r0, :]
                np.add(dest, b.reshape(f, 1, 1), out=dest)
                np.multiply(dest, 0.01, out=scaled)
                np.maximum(dest, scaled, out=dest)
        return out

    out = benchmark(forward)
    with no_grad():
        expected = conv2d(
            Tensor(x), Tensor(w), Tensor(b), padding=2, activation="leaky_relu"
        ).numpy()
    assert np.allclose(out, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_inference_plan_step_256(benchmark):
    """One rollout step of the compiled InferencePlan on the paper's
    full network at 256x256 — allocation-free after the warmup run."""
    benchmark.extra_info["grid"] = 256
    benchmark.extra_info["variant"] = "plan"
    benchmark.extra_info["kernel_path"] = "blocked"
    benchmark.extra_info["precision"] = "float64"
    rng = np.random.default_rng(0)
    model = build_paper_cnn("zero", rng=np.random.default_rng(0))
    plan = InferencePlan(model)
    x = rng.standard_normal((1, 4, 256, 256))
    plan.run(x)  # warm the arena so the timed runs are steady-state
    created = plan.workspace.stats.buffers_created

    out = benchmark.pedantic(
        lambda: plan.run(x), rounds=PLAN_STEP_ROUNDS, iterations=1, warmup_rounds=2
    )
    assert out.shape == (1, 4, 256, 256)
    assert plan.workspace.stats.buffers_created == created  # zero-alloc


def test_inference_plan_step_float32_256(benchmark):
    """The same compiled rollout step under the ``float32`` compute
    mode: parameters, arena slots, and the step output all run at
    float32 (the plan resolves its dtype from the parameters at build
    time), still allocation-free after warmup."""
    benchmark.extra_info["grid"] = 256
    benchmark.extra_info["variant"] = "plan"
    benchmark.extra_info["kernel_path"] = "blocked"
    benchmark.extra_info["precision"] = "float32"
    with precision("float32"):
        rng = np.random.default_rng(0)
        model = build_paper_cnn("zero", rng=np.random.default_rng(0))
        plan = InferencePlan(model)
        x = rng.standard_normal((1, 4, 256, 256))
        plan.run(x)  # warm the arena so the timed runs are steady-state
        created = plan.workspace.stats.buffers_created

        out = benchmark.pedantic(
            lambda: plan.run(x), rounds=PLAN_STEP_ROUNDS, iterations=1, warmup_rounds=2
        )
    assert out.shape == (1, 4, 256, 256)
    assert out.dtype == np.float32
    assert plan.workspace.stats.buffers_created == created  # zero-alloc


def test_conv2d_backward_128(benchmark):
    benchmark.extra_info["grid"] = 128
    benchmark.extra_info["kernel"] = 5
    rng = np.random.default_rng(0)
    x_data = rng.standard_normal((1, 4, 128, 128))
    w_data = rng.standard_normal((6, 4, 5, 5))

    def step():
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        conv2d(x, w, padding=2).sum().backward()
        return w.grad

    grad = benchmark(step)
    assert grad.shape == (6, 4, 5, 5)


def _conv_16to6_96():
    """The paper net's 16->6 layer (5x5, padding 2) at batch 8 on a
    96x48 block (a 96x96 field on a 1x2 rank grid), with a fixed
    upstream gradient: inputs of the training backward ordering gate."""
    rng = np.random.default_rng(0)
    return (
        rng.standard_normal((8, 16, 96, 48)),
        rng.standard_normal((6, 16, 5, 5)),
        rng.standard_normal(6),
        rng.standard_normal((8, 6, 96, 48)),
    )


def _conv2d_train_step(x_data, w_data, b_data, seed):
    x = Tensor(x_data, requires_grad=True)
    w = Tensor(w_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    conv2d(x, w, b, padding=2).backward(seed)
    return x.grad, w.grad, b.grad


def test_conv2d_backward_16to6_96(benchmark):
    """Forward + backward of the ``conv2d`` op under autograd: the
    strip-mined training path (grad_x as a flipped-kernel forward
    conv, grad_w per strip).  The A side of the backward ordering
    gate."""
    benchmark.extra_info["grid"] = 96
    benchmark.extra_info["kernel"] = 5
    benchmark.extra_info["variant"] = "strip-mined"
    x_data, w_data, b_data, seed = _conv_16to6_96()
    grads = benchmark(lambda: _conv2d_train_step(x_data, w_data, b_data, seed))
    assert grads[0].shape == x_data.shape


def test_conv2d_backward_col2im_16to6_96(benchmark):
    """The same forward + backward in the formulation the training path
    used to run: the full im2col patch matrix kept for grad_w, and
    grad_x scattered back with ``col2im`` from ``gmat @ wmat``, scratch
    from the thread's arena.  The B side of the ordering gate."""
    benchmark.extra_info["grid"] = 96
    benchmark.extra_info["kernel"] = 5
    benchmark.extra_info["variant"] = "im2col+col2im"
    x_data, w_data, b_data, seed = _conv_16to6_96()
    n, c, h, w = x_data.shape
    f = w_data.shape[0]
    ws = get_workspace()

    def step():
        cols, (oh, ow) = im2col(x_data, (5, 5), (1, 1), (2, 2))
        wmat = w_data.reshape(f, c * 25)
        out = cols @ wmat.T
        out += b_data
        gmat = ws.request("bench.gmat", (n * oh * ow, f), seed.dtype)
        np.copyto(gmat.reshape(n, oh, ow, f), seed.transpose(0, 2, 3, 1))
        grad_w = (gmat.T @ cols).reshape(w_data.shape)
        gcols = ws.request("bench.gcols", (n * oh * ow, c * 25), seed.dtype)
        np.matmul(gmat, wmat, out=gcols)
        grad_x = col2im(gcols, x_data.shape, (5, 5), (1, 1), (2, 2), workspace=ws).copy()
        return grad_x, grad_w, gmat.sum(axis=0)

    grads = benchmark(step)
    for got, expected in zip(grads, _conv2d_train_step(x_data, w_data, b_data, seed)):
        assert np.allclose(got, expected, rtol=1e-10, atol=1e-10 * np.abs(expected).max())


def test_solver_step_256(benchmark):
    """One RK4 step of the linearized Euler solver on the paper grid."""
    benchmark.extra_info["grid"] = 256
    grid = UniformGrid2D.square(256)
    sim = Simulation(grid, LinearizedEuler(), boundary="outflow")
    state = paper_initial_condition(grid)

    result = benchmark(lambda: sim.advance(state, 1))
    assert result.is_finite()


def test_halo_exchange_round(benchmark):
    """One full halo exchange across a 2x2 rank grid (4 channels,
    64x64 blocks, halo 2 — the paper's inference communication)."""
    benchmark.extra_info["grid"] = 128
    benchmark.extra_info["ranks"] = 4
    benchmark.extra_info["halo"] = 2
    decomp = BlockDecomposition((128, 128), (2, 2))
    field = np.random.default_rng(0).standard_normal((4, 128, 128))

    def exchange_round():
        def program(comm):
            local = decomp.extract(field, comm.rank)
            exchanger = HaloExchanger(comm, decomp, halo=2)
            return exchanger.exchange(local).shape

        return mpi.run_parallel(program, 4)

    shapes = benchmark(exchange_round)
    assert all(s == (4, 68, 68) for s in shapes)


def test_allreduce_weight_volume(benchmark):
    """One allreduce of a Table-I-sized parameter set across 4 ranks
    (the per-epoch cost of the weight-averaging baseline)."""
    benchmark.extra_info["ranks"] = 4
    benchmark.extra_info["params"] = 6032
    payload = np.random.default_rng(0).standard_normal(6032)  # Table-I params

    def round_trip():
        def program(comm):
            return comm.allreduce(payload, op=mpi.SUM)

        return mpi.run_parallel(program, 4)

    results = benchmark(round_trip)
    assert np.allclose(results[0], payload * 4)


#: Rounds / iterations for the metrics-overhead rollout pair.  The
#: <2% ordering gate compares two independently-timed medians, so each
#: round averages several rollouts (mean of ``ITERATIONS``) and the
#: median is taken over many rounds — squeezing scheduler noise well
#: below the 1.02 slack the CI gate allows.
METRICS_ROLLOUT_ROUNDS = 25
METRICS_ROLLOUT_ITERATIONS = 4


def _metrics_rollout_pair_setup():
    from repro.core import ParallelPredictor, build_paper_cnn

    rng = np.random.default_rng(0)
    models = [
        build_paper_cnn("zero", rng=np.random.default_rng(r)) for r in range(2)
    ]
    predictor = ParallelPredictor(models, BlockDecomposition((96, 96), (1, 2)))
    initial = rng.standard_normal((4, 96, 96))
    return predictor, initial


def test_rollout_step_metrics_off_96(benchmark):
    """The B side of the obs-overhead ordering gate: a 3-step two-rank
    rollout with the tracer off (every instrumented site pays only its
    flag check)."""
    from repro.obs import trace

    benchmark.extra_info["grid"] = 96
    benchmark.extra_info["ranks"] = 2
    benchmark.extra_info["steps"] = 3
    benchmark.extra_info["metrics"] = "off"
    predictor, initial = _metrics_rollout_pair_setup()
    assert not trace.enabled()
    predictor.rollout(initial, num_steps=1)  # warm arenas before timing

    out = benchmark.pedantic(
        lambda: predictor.rollout(initial, num_steps=3),
        rounds=METRICS_ROLLOUT_ROUNDS,
        iterations=METRICS_ROLLOUT_ITERATIONS,
        warmup_rounds=2,
    )
    assert out.trajectory.shape == (4, 4, 96, 96)


def test_rollout_step_metrics_on_96(benchmark):
    """The A side of the gate: the identical rollout with the tracer on,
    which also switches the metrics registry (spans, step histograms,
    byte counters, heartbeats).  CI asserts A <= B * 1.02 — obs-enabled
    overhead under 2%."""
    from repro.obs import metrics, trace

    benchmark.extra_info["grid"] = 96
    benchmark.extra_info["ranks"] = 2
    benchmark.extra_info["steps"] = 3
    benchmark.extra_info["metrics"] = "on"
    predictor, initial = _metrics_rollout_pair_setup()
    predictor.rollout(initial, num_steps=1)  # warm arenas before timing

    trace.reset()
    with trace.tracing():
        out = benchmark.pedantic(
            lambda: predictor.rollout(initial, num_steps=3),
            rounds=METRICS_ROLLOUT_ROUNDS,
            iterations=METRICS_ROLLOUT_ITERATIONS,
            warmup_rounds=2,
        )
    assert out.trajectory.shape == (4, 4, 96, 96)
    assert metrics.histogram("rollout.step_seconds").count(0) > 0
    trace.reset()
