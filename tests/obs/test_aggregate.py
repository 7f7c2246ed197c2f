"""Cross-process telemetry: bundle capture/absorb and the process
backend's trace round-trip — including the abort (post-mortem) path."""

import time

import numpy as np
import pytest

from repro import mpi
from repro.obs import aggregate, export, metrics, trace
from repro.obs.trace import Metric, Span
from repro.tensor import Workspace, im2col


def _kernel_work() -> None:
    """One traced kernel call drawing scratch from a fresh arena."""
    im2col(np.ones((1, 2, 6, 6)), (3, 3), padding=(1, 1), workspace=Workspace())


class TestBundle:
    def test_capture_returns_none_when_empty(self):
        assert aggregate.capture(rank=0) is None

    def test_capture_and_absorb_round_trip(self):
        with trace.tracing():
            with trace.rank_scope(4):
                with trace.span("work", cat="compute"):
                    pass
            trace.metric("m", 1.5)
        bundle = aggregate.capture()
        trace.reset()
        assert trace.spans() == []
        aggregate.absorb(bundle)
        assert [s.name for s in trace.spans()] == ["work"]
        assert trace.metrics()[0].value == 1.5

    def test_absorb_attributes_rankless_events_to_bundle_rank(self):
        bundle = aggregate.TraceBundle(
            rank=7,
            spans=[Span("early", "app", None, 0, 1.0, 0.1, None)],
            metrics=[Metric("m", None, 1.0, 2.0)],
        )
        aggregate.absorb(bundle)
        assert trace.spans()[0].rank == 7
        assert trace.metrics()[0].rank == 7

    def test_absorb_none_is_noop(self):
        aggregate.absorb(None)
        assert trace.spans() == []

    def test_capture_includes_perf_snapshot_when_collecting(self):
        # Kernel timings ride as spans, workspace bytes as metrics.
        with trace.tracing(), metrics.collecting():
            _kernel_work()
        bundle = aggregate.capture(rank=0)
        assert "im2col" in {s.name for s in bundle.spans}
        assert "workspace.bytes_allocated" in bundle.metrics_state
        allocated = metrics.counter("workspace.bytes_allocated").total()
        trace.reset()
        metrics.reset()
        aggregate.absorb(bundle)
        assert "im2col" in {s.name for s in trace.spans()}
        assert metrics.counter("workspace.bytes_allocated").value(0) == allocated > 0


class TestProcessBackendRoundTrip:
    def test_spans_from_every_rank_reach_the_parent(self):
        def program(comm):
            if comm.rank == 0:
                comm.send({"x": 1}, dest=1, tag=3)
            else:
                comm.recv(source=0, tag=3)
            comm.barrier()
            return comm.rank

        with trace.tracing():
            results = mpi.run_parallel(program, 2, backend="processes", timeout=120)
        assert results == [0, 1]
        spans = trace.spans()
        assert {s.rank for s in spans} == {0, 1}
        names = {(s.rank, s.name) for s in spans}
        assert (0, "mpi.send") in names
        assert (1, "mpi.recv") in names
        assert {s.name for s in spans if s.cat == "comm.collective"} == {"mpi.barrier"}

    def test_merged_timeline_is_clock_aligned(self):
        def program(comm):
            with trace.span("rank.work", cat="compute"):
                comm.barrier()
            return None

        with trace.tracing():
            with trace.span("driver.region", cat="app"):
                mpi.run_parallel(program, 2, backend="processes", timeout=120)
        spans = trace.spans()
        driver = next(s for s in spans if s.name == "driver.region")
        for s in spans:
            if s.name == "rank.work":
                # Child spans land inside the driver's enclosing span on
                # the shared wall-clock timeline, with merge slack for
                # cross-process clock anchoring.
                assert s.ts >= driver.ts - 0.25
                assert s.end <= driver.end + 0.25
        per_rank = export.summary(spans)
        assert set(per_rank) == {0, 1, None}

    def test_abort_path_ships_post_mortem_spans(self):
        def program(comm):
            with trace.span("pre-crash", cat="compute", rank=comm.rank):
                pass
            if comm.rank == 1:
                raise RuntimeError("rank 1 dies after its span closed")
            return "ok"

        with trace.tracing():
            with pytest.raises(RuntimeError, match="rank 1 dies"):
                mpi.run_parallel(program, 2, backend="processes", timeout=120)
        crashed = [
            s for s in trace.spans() if s.name == "pre-crash" and s.rank == 1
        ]
        assert crashed, "the crashed rank's telemetry must survive the abort"

    def test_kernel_spans_and_workspace_counters_merge_across_processes(self):
        def program(comm):
            _kernel_work()
            comm.barrier()
            return None

        with trace.tracing(), metrics.collecting():
            mpi.run_parallel(program, 2, backend="processes", timeout=120)
        kernels = [s for s in trace.spans() if s.name == "im2col"]
        assert {s.rank for s in kernels} == {0, 1}
        assert all(s.cat == "compute" and s.dur > 0 for s in kernels)
        allocated = metrics.counter("workspace.bytes_allocated")
        assert allocated.value(0) > 0
        assert allocated.value(0) == allocated.value(1)

    def test_untraced_run_ships_no_bundles(self):
        def program(comm):
            comm.barrier()
            return comm.rank

        results = mpi.run_parallel(program, 2, backend="processes", timeout=120)
        assert results == [0, 1]
        assert trace.spans() == []

    def test_thread_backend_records_the_same_span_names(self):
        def program(comm):
            if comm.rank == 0:
                comm.send(b"x", dest=1, tag=9)
            else:
                comm.recv(source=0, tag=9)
            comm.barrier()
            return comm.rank

        with trace.tracing():
            mpi.run_parallel(program, 2, backend="threads")
        names = {(s.rank, s.name) for s in trace.spans()}
        assert (0, "mpi.send") in names
        assert (1, "mpi.recv") in names


@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_blocked_recv_reports_wait_on_both_backends(backend):
    def program(comm):
        if comm.rank == 0:
            time.sleep(0.2)
            comm.send(b"late", dest=1, tag=5)
        else:
            comm.recv(source=0, tag=5)
        return None

    with trace.tracing():
        mpi.run_parallel(program, 2, backend=backend, timeout=120)
    per_rank = export.summary(trace.spans())
    assert per_rank[1]["wait_seconds"] >= 0.1
    assert per_rank[0]["wait_seconds"] == 0.0
