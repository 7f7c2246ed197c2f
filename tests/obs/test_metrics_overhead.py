"""The metrics registry's disabled fast path must be free.

Same acceptance bar as the tracer (``test_overhead.py``): with the
tracer off (the one switch for spans and metrics alike), metrics add
< 2% wall-time to the representative rollout kernel (the 256x256
conv2d forward from ``benchmarks/bench_kernels.py``).  A rollout step
crosses on the order of 32 metered sites (step histograms, byte
counters, heartbeats, mailbox-depth gauges), so we charge the measured
per-site disabled cost times that count against the kernel time.
"""

import numpy as np

from repro.obs import metrics, trace
from repro.tensor import Tensor, conv2d, no_grad

#: Metered sites a single rollout step can plausibly cross.
SITES_PER_KERNEL_CALL = 32

_COUNTER = metrics.counter("overhead.c")
_GAUGE = metrics.gauge("overhead.g", forward_to_trace=False)
_HISTOGRAM = metrics.histogram("overhead.h")


def best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = trace.clock()
        fn()
        best = min(best, trace.clock() - start)
    return best


def disabled_site_cost(calls=20_000):
    """Seconds per metered site while the tracer is off, taking the
    best of a few batches to shed scheduler noise."""
    assert not trace.enabled()

    def batch():
        for _ in range(calls):
            _COUNTER.inc()
            _GAUGE.set(1.0)
            _HISTOGRAM.observe(0.001)
            metrics.heartbeat()
        # Each iteration exercises all four update shapes; count them
        # as four sites.

    cost = best_of(batch, repeats=3) / (4 * calls)
    assert metrics.snapshot() == {}
    return cost


def test_disabled_metrics_cost_under_two_percent_of_conv_kernel():
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
        f"disabled metrics overhead {overhead * 1e6:.1f}us per kernel call "
        f"is >= 2% of the {kernel_seconds * 1e3:.2f}ms conv2d forward"
    )


def test_disabled_site_cost_absolute_sanity():
    # Each disabled site is one flag check + an early return; even on a
    # loaded CI box it must stay well under 10 microseconds.
    assert disabled_site_cost(calls=5_000) < 10e-6
