"""The tracer's disabled fast path must be free.

The acceptance bar from the design: with tracing off (the one switch
for spans and metrics alike; the metrics side is measured in
``test_metrics_overhead.py``), instrumentation adds < 2% wall-time
to the representative rollout kernel (the 256x256 conv2d forward from
``benchmarks/bench_kernels.py``).  A rollout step crosses on the order
of 32 instrumented sites (engine/rollout spans, halo send/recv hooks,
router waits), so we charge the measured per-site disabled cost times
that count against the kernel time.
"""

import numpy as np

from repro.obs import trace
from repro.tensor import Tensor, conv2d, no_grad

#: Instrumented sites a single rollout step can plausibly cross.
SITES_PER_KERNEL_CALL = 32


def best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = trace.clock()
        fn()
        best = min(best, trace.clock() - start)
    return best


def disabled_site_cost(calls=20_000):
    """Seconds per instrumented site while the tracer is off, taking
    the best of a few batches to shed scheduler noise."""
    assert not trace.enabled()

    def batch():
        t0 = trace.clock()
        for _ in range(calls):
            with trace.span("off", cat="compute"):
                pass
            trace.record("off", "comm", t0, dur=0.0)
        # Each iteration exercises both instrumentation shapes; count
        # them as two sites.

    return best_of(batch, repeats=3) / (2 * calls)


def test_disabled_tracer_costs_under_two_percent_of_conv_kernel():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((1, 4, 256, 256)))
    w = Tensor(rng.standard_normal((6, 4, 5, 5)))

    def forward():
        with no_grad():
            return conv2d(x, w, padding=2)

    forward()  # warm the workspace arena before timing
    kernel_seconds = best_of(forward, repeats=5)
    site_seconds = disabled_site_cost()
    overhead = SITES_PER_KERNEL_CALL * site_seconds
    assert overhead < 0.02 * kernel_seconds, (
        f"disabled tracer overhead {overhead * 1e6:.1f}us per kernel call "
        f"is >= 2% of the {kernel_seconds * 1e3:.2f}ms conv2d forward"
    )


def test_disabled_site_cost_absolute_sanity():
    # Each disabled site is one attribute check + an early return; even
    # on a loaded CI box it must stay well under 10 microseconds.
    assert disabled_site_cost(calls=5_000) < 10e-6
