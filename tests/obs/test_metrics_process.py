"""Cross-process metrics: snapshot round trips through TraceBundle,
and heartbeat stall detection in the process-backend supervisor."""

import time

import pytest

from repro import mpi
from repro.mpi.api import CommunicatorError
from repro.obs import aggregate, metrics, trace


class TestBundleMetrics:
    def test_capture_carries_metrics_state(self):
        with trace.tracing():
            metrics.counter("bundle.c").inc(3)
        bundle = aggregate.capture(rank=5)
        assert bundle.metrics_state["bundle.c"]["values"] == {None: 3}

    def test_absorb_merges_and_reattributes_rank(self):
        with trace.tracing():
            metrics.counter("bundle.c2").inc(7)
        bundle = aggregate.capture(rank=5)
        trace.reset()
        aggregate.absorb(bundle)
        assert metrics.counter("bundle.c2").value(5) == 7


class TestProcessBackendRoundTrip:
    def test_per_rank_metrics_reach_the_parent(self):
        def program(comm):
            metrics.counter("proc.events").inc(comm.rank + 1)
            metrics.histogram("proc.lat").observe(0.001 * (comm.rank + 1))
            if comm.rank == 0:
                comm.send(b"x" * 64, dest=1, tag=3)
            else:
                comm.recv(source=0, tag=3)
            comm.barrier()
            return comm.rank

        with trace.tracing():
            results = mpi.run_parallel(program, 2, backend="processes", timeout=120)
        assert results == [0, 1]
        events = metrics.counter("proc.events")
        assert events.value(0) == 1
        assert events.value(1) == 2
        lat = metrics.histogram("proc.lat")
        assert lat.count(0) == 1 and lat.count(1) == 1
        # The built-in comm instrumentation records per rank too.
        assert metrics.counter("mpi.bytes_sent").value(0) >= 64
        assert metrics.counter("mpi.bytes_recv").value(1) >= 64

    def test_uncollected_run_ships_no_metrics(self):
        def program(comm):
            metrics.counter("proc.silent").inc()
            comm.barrier()
            return comm.rank

        results = mpi.run_parallel(program, 2, backend="processes", timeout=120)
        assert results == [0, 1]
        assert metrics.snapshot() == {}

    def test_crashed_rank_ships_partial_metrics(self):
        def program(comm):
            metrics.counter("proc.crash").inc(comm.rank + 10)
            comm.barrier()
            if comm.rank == 1:
                raise RuntimeError("rank 1 dies after recording")
            return "ok"

        with trace.tracing():
            with pytest.raises(RuntimeError, match="rank 1 dies"):
                mpi.run_parallel(program, 2, backend="processes", timeout=120)
        assert metrics.counter("proc.crash").value(1) == 11


class TestHeartbeatStall:
    def test_stalled_rank_is_detected_and_its_metrics_absorbed(self):
        # Rank 1 beats once, records metrics, then goes silent for far
        # longer than the heartbeat timeout while rank 0 blocks on a
        # receive.  The supervisor must declare the stall (instead of
        # waiting out the 120 s deadlock timeout) and still absorb rank
        # 1's partial metrics bundle when it finally reports.
        def program(comm):
            metrics.counter("stall.work").inc(comm.rank + 1)
            metrics.heartbeat()
            if comm.rank == 1:
                time.sleep(2.0)  # silent: no beats, no sends
                return "late"
            comm.recv(source=1, tag=9)  # never satisfied
            return "ok"

        start = time.monotonic()
        with trace.tracing():
            with pytest.raises(CommunicatorError, match="rank 1 stalled"):
                mpi.run_parallel(
                    program,
                    2,
                    backend="processes",
                    timeout=120,
                    heartbeat_timeout=0.4,
                )
        elapsed = time.monotonic() - start
        assert elapsed < 60, "stall detection must beat the deadlock timeout"
        # Post-mortem: both ranks' partial metrics were absorbed.
        work = metrics.counter("stall.work")
        assert work.value(0) == 1
        assert work.value(1) == 2
        beats = metrics.snapshot()[metrics.HEARTBEAT_METRIC]["values"]
        assert 1 in beats

    def test_healthy_run_with_heartbeat_timeout_passes(self):
        def program(comm):
            for _ in range(3):
                metrics.heartbeat()
                comm.barrier()
            return comm.rank

        with trace.tracing():
            results = mpi.run_parallel(
                program,
                2,
                backend="processes",
                timeout=120,
                heartbeat_timeout=30.0,
            )
        assert results == [0, 1]

    def test_thread_backend_ignores_heartbeat_timeout(self):
        def program(comm):
            metrics.counter("threads.c").inc()
            comm.barrier()
            return comm.rank

        with trace.tracing():
            results = mpi.run_parallel(
                program, 2, backend="threads", heartbeat_timeout=0.001
            )
        assert results == [0, 1]
        assert metrics.counter("threads.c").total() == 2

    def test_worker_rank_context_tags_builtin_instruments(self):
        # Sanity on the thread backend: rank scopes tag instrument
        # updates without any bundle merge involved.
        def program(comm):
            metrics.counter("threads.tagged").inc()
            return trace.current_rank()

        with trace.tracing():
            ranks = mpi.run_parallel(program, 2, backend="threads")
        assert ranks == [0, 1]
        tagged = metrics.counter("threads.tagged")
        assert tagged.value(0) == 1 and tagged.value(1) == 1
