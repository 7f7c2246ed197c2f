"""Process-based execution backend: one OS process per rank.

The thread backend executes the communication structure faithfully but
serializes Python-level work on the GIL; this backend gives every rank
its own interpreter so P ranks genuinely occupy P cores.  The transport
is one ``multiprocessing`` queue per destination rank (the mailbox) —
matching receives buffer out-of-order arrivals locally, preserving
MPI's non-overtaking guarantee per ``(source, dest, tag)`` because all
traffic to a rank flows through its single FIFO queue.  Large NumPy
payloads bypass pickling entirely via the shared-memory fast path in
:mod:`repro.mpi.shm`.

Failure semantics mirror the thread backend: a rank that raises reports
its (pickled) exception to the parent, which poisons every mailbox with
an abort sentinel so blocked peers wake with
:class:`~repro.exceptions.DeadlockError`; the parent re-raises the root
cause.  Hard deaths (a worker exiting without reporting) and region
timeouts are detected by the parent's supervision loop, which aborts
and, as a last resort, terminates stragglers.

The default start method is ``fork`` where available (it allows rank
programs that are closures, mirroring the thread backend's contract);
pass ``start_method="spawn"`` for picklable, module-level rank programs
when fork-safety is a concern.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue as queue_module
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..exceptions import CommunicatorError, DeadlockError
from ..obs import metrics as obs_metrics
from ..obs import trace
from .api import ANY_SOURCE, ANY_TAG, Communicator, Request, Status
from .router import _isolate_payload
from .shm import ShmArrayHeader, decode_payload, discard_header, encode_payload

__all__ = ["ProcessCommunicator", "run_parallel_processes"]

#: How long the parent waits, after an abort, for workers to exit on
#: their own before terminating them.
_ABORT_GRACE_SECONDS = 5.0

#: Consecutive empty result-queue polls (at _POLL_SECONDS each) before a
#: cleanly-exited worker with no reported result is declared lost.
_LOST_WORKER_POLLS = 20
_POLL_SECONDS = 0.05

#: Receive-wait chunk while heartbeats are armed: a rank blocked in
#: recv wakes this often to beat, so it reads as alive (not stalled) to
#: the supervisor no matter how long the legitimate wait runs.
_HEARTBEAT_POLL_SECONDS = 0.1

#: Depth of the local out-of-order inbox, sampled on every receive.
_MAILBOX_DEPTH = obs_metrics.gauge("mpi.mailbox_depth", forward_to_trace=False)


@dataclass(frozen=True)
class _Abort:
    """Mailbox poison: wakes a blocked receive with the world's failure."""

    reason: str


@dataclass
class _Envelope:
    source: int
    tag: int
    payload: Any  # still wire-encoded; decoded on delivery


class ProcessCommunicator(Communicator):
    """One rank's endpoint over the per-rank mailbox queues.

    Safe to use from the owning rank's process only (the mailbox buffer
    is process-local state).
    """

    def __init__(
        self,
        rank: int,
        size: int,
        mailboxes: Sequence[Any],  # one multiprocessing queue per rank
        deadlock_timeout: float | None = 120.0,
    ) -> None:
        if not 0 <= rank < size:
            raise CommunicatorError(f"rank {rank} out of range for size {size}")
        self._rank = rank
        self._size = size
        self._mailboxes = mailboxes
        self._inbox: list[_Envelope] = []  # out-of-order arrivals, oldest first
        self._failed: str | None = None
        self._collective_seq = 0
        self.deadlock_timeout = deadlock_timeout

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _send(self, payload: Any, dest: int, tag: int) -> None:
        # The queue's feeder thread pickles items *asynchronously*, so a
        # sender mutating the payload right after send() would race the
        # serialization.  The shm path copies at send time by design;
        # everything else is snapshotted here before it is enqueued.
        wire = encode_payload(payload)
        if not isinstance(wire, ShmArrayHeader):
            wire = _isolate_payload(wire)
        self._mailboxes[dest].put((self._rank, tag, wire))

    def _admit(self, item: Any) -> None:
        if isinstance(item, _Abort):
            self._failed = item.reason
            return
        source, tag, payload = item
        self._inbox.append(_Envelope(source, tag, payload))

    def _drain(self) -> None:
        """Pull every message currently queued into the local inbox."""
        mailbox = self._mailboxes[self._rank]
        while True:
            try:
                item = mailbox.get_nowait()
            except queue_module.Empty:
                return
            self._admit(item)

    def _check_failed(self) -> None:
        if self._failed is not None:
            raise DeadlockError(f"world aborted: {self._failed}")

    def _match(self, source: int, tag: int, *, remove: bool) -> _Envelope | None:
        for i, env in enumerate(self._inbox):
            if (source == ANY_SOURCE or env.source == source) and (
                tag == ANY_TAG or env.tag == tag
            ):
                if remove:
                    del self._inbox[i]
                return env
        return None

    def _deliver(self, env: _Envelope) -> tuple[Any, Status]:
        return decode_payload(env.payload), Status(env.source, env.tag)

    def _recv(self, source: int, tag: int, timeout: float | None) -> tuple[Any, Status]:
        deadline = None if timeout is None else time.monotonic() + timeout
        mailbox = self._mailboxes[self._rank]
        # Blocked-wait accounting, as in MessageRouter.collect: the time
        # spent in mailbox.get becomes one "mailbox.wait" span (cat
        # "comm.wait") on a successful match.
        waited = 0.0
        while True:
            self._drain()
            if obs_metrics.enabled():
                _MAILBOX_DEPTH.set(len(self._inbox))
            self._check_failed()
            env = self._match(source, tag, remove=True)
            if env is not None:
                if waited > 0.0 and trace.enabled():
                    trace.record(
                        "mailbox.wait", "comm.wait",
                        trace.clock() - waited, dur=waited,
                        source=env.source, dest=self._rank, tag=env.tag,
                    )
                return self._deliver(env)
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise DeadlockError(
                    f"rank {self._rank} timed out after {timeout}s blocked in recv "
                    f"on (source={source}, dest={self._rank}, tag={tag}); "
                    f"{len(self._inbox)} non-matching message(s) buffered locally; "
                    "likely deadlock"
                )
            wait = remaining
            if obs_metrics.heartbeat_active():
                # A rank blocked in recv is alive (it is polling its
                # mailbox), not stalled: chunk the wait so it keeps
                # beating and only truly silent ranks trip the
                # supervisor's heartbeat_timeout.
                obs_metrics.heartbeat()
                wait = (
                    _HEARTBEAT_POLL_SECONDS
                    if wait is None
                    else min(wait, _HEARTBEAT_POLL_SECONDS)
                )
            wait_start = trace.clock() if trace.enabled() else None
            try:
                item = mailbox.get(timeout=wait)
            except queue_module.Empty:
                continue
            finally:
                if wait_start is not None:
                    waited += trace.clock() - wait_start
            self._admit(item)

    def _iprobe(self, source: int, tag: int) -> bool:
        self._drain()
        self._check_failed()
        return self._match(source, tag, remove=False) is not None

    def _irecv(self, source: int, tag: int) -> Request:
        def wait(timeout: float | None = None) -> Any:
            payload, status = self._recv(
                source, tag, timeout if timeout is not None else self.deadlock_timeout
            )
            request.status = status
            return payload

        def test() -> tuple[bool, Any]:
            self._drain()
            self._check_failed()
            env = self._match(source, tag, remove=True)
            if env is None:
                return False, None
            payload, status = self._deliver(env)
            request.status = status
            return True, payload

        request = Request(_wait=wait, _test=test)
        return request

    # ------------------------------------------------------------------
    def release_undelivered(self) -> None:
        """Free shared-memory segments behind locally buffered messages."""
        for env in self._inbox:
            discard_header(env.payload)
        self._inbox.clear()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _encode_outcome(rank: int, kind: str, value: Any, bundle: Any = None) -> bytes:
    """Pre-pickle the report so an unpicklable result/exception cannot
    die silently in the queue's feeder thread (which would hang the
    parent's supervision loop).

    ``bundle`` is the rank's telemetry (:class:`repro.obs.aggregate.
    TraceBundle`) riding along with the outcome; if *it* turns out
    unpicklable it is dropped rather than taking the result with it.
    """
    if bundle is not None:
        try:
            pickle.dumps(bundle, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            bundle = None
    try:
        return pickle.dumps((rank, kind, value, bundle), protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        detail = (
            f"rank {rank} produced an unpicklable "
            f"{'result' if kind == 'ok' else 'exception'} "
            f"({type(value).__name__}): {exc!r}"
        )
        if isinstance(value, BaseException):
            detail += "\n" + "".join(
                traceback.format_exception(type(value), value, value.__traceback__)
            )
        return pickle.dumps((rank, "err", CommunicatorError(detail), bundle))


def _worker_main(
    rank: int,
    size: int,
    fns: Sequence[Callable[[Communicator], Any]],
    mailboxes: Sequence[Any],
    result_queue: Any,
    deadlock_timeout: float | None,
    obs_flags: tuple[bool, bool] = (False, False),
    precision: str = "float64",
    heartbeats: Any = None,
) -> None:
    """Entry point of one rank process (module-level for spawn support).

    ``obs_flags`` is ``(tracing, metrics)`` as observed in the
    parent at launch: module-level enable state does not survive a
    ``spawn``, and under ``fork`` the child additionally inherits the
    parent's event buffers, which must be cleared so the rank ships
    only its own telemetry.  ``precision`` is the parent's compute mode
    at launch, re-applied here for the same reason — a float32 training
    run must stay float32 inside every rank process.  ``heartbeats``
    is the shared per-rank last-alive array (or ``None``); when
    present, this rank's :func:`repro.obs.metrics.heartbeat` beats are
    mirrored into slot ``rank`` so the parent's supervisor can detect a
    stall without any queue traffic.
    """
    trace_on, metrics_on = obs_flags
    from ..tensor.precision import set_precision

    set_precision(precision)
    trace.set_rank(rank)
    if trace_on:
        trace.reset()
        trace.enable()
    if metrics_on:
        obs_metrics.reset()
        obs_metrics.enable()
    if heartbeats is not None:
        def _beat_sink(_rank: int | None, wall: float) -> None:
            heartbeats[rank] = wall

        obs_metrics.set_heartbeat_sink(_beat_sink)
        obs_metrics.heartbeat()  # arm the slot: stall detection needs a first beat
    comm = ProcessCommunicator(rank, size, mailboxes, deadlock_timeout)
    try:
        result = fns[rank](comm)
        kind: str = "ok"
        value: Any = result
    except BaseException as exc:  # noqa: BLE001 - must propagate to the parent
        kind, value = "err", exc
    finally:
        comm.release_undelivered()
        obs_metrics.set_heartbeat_sink(None)
    bundle = None
    if trace_on or metrics_on:
        # Captured on the error path too: post-mortem traces must
        # survive a crashed rank.
        from ..obs import aggregate

        bundle = aggregate.capture(rank)
    result_queue.put(_encode_outcome(rank, kind, value, bundle))


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _default_start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def run_parallel_processes(
    fns: Sequence[Callable[[Communicator], Any]],
    size: int,
    timeout: float | None = None,
    deadlock_timeout: float | None = 120.0,
    start_method: str | None = None,
    heartbeat_timeout: float | None = None,
) -> list[Any]:
    """Run ``fns[rank]`` in one OS process per rank; returns per-rank
    results (see :func:`repro.mpi.run_parallel` for the contract).

    With ``heartbeat_timeout`` set, every rank mirrors its
    :func:`repro.obs.metrics.heartbeat` beats into a shared array and
    the supervision loop declares a rank **stalled** once its last beat
    is older than the timeout — aborting the world so live peers wake
    with :class:`DeadlockError` instead of blocking until the (much
    longer) deadlock timeout.  Ranks blocked in a receive keep beating
    while they poll their mailbox, so only truly silent ranks (stuck
    compute, an infinite loop, a wedged syscall) trip the timeout; it
    must comfortably exceed the longest expected gap between beats (an
    epoch of batches, a rollout step).  Beats are armed at worker
    start, so it also bounds the time to the program's first
    instrumented loop.
    """
    method = start_method if start_method is not None else _default_start_method()
    ctx = multiprocessing.get_context(method)
    mailboxes = [ctx.Queue() for _ in range(size)]
    result_queue = ctx.Queue()
    from ..tensor.precision import get_precision

    obs_flags = (trace.enabled(), obs_metrics.enabled())
    precision = get_precision()
    heartbeats = (
        ctx.Array("d", size, lock=False) if heartbeat_timeout is not None else None
    )
    workers = [
        ctx.Process(
            target=_worker_main,
            args=(
                rank,
                size,
                fns,
                mailboxes,
                result_queue,
                deadlock_timeout,
                obs_flags,
                precision,
                heartbeats,
            ),
            name=f"repro-rank-{rank}",
            daemon=True,
        )
        for rank in range(size)
    ]
    for worker in workers:
        worker.start()

    deadline = None if timeout is None else time.monotonic() + timeout
    outcomes: dict[int, tuple[str, Any]] = {}
    aborted = False
    timed_out = False
    empty_polls = 0
    stall_reason: str | None = None

    def abort_world(reason: str) -> None:
        nonlocal aborted
        if aborted:
            return
        aborted = True
        for mailbox in mailboxes:
            try:
                mailbox.put(_Abort(reason))
            except Exception:  # pragma: no cover - queue already torn down
                pass

    try:
        while len(outcomes) < size:
            if deadline is not None and time.monotonic() > deadline:
                timed_out = True
                abort_world(f"parallel region exceeded timeout {timeout}s")
                break
            try:
                report = result_queue.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                empty_polls += 1
                if heartbeats is not None and stall_reason is None:
                    now = time.time()
                    for rank, worker in enumerate(workers):
                        if rank in outcomes or not worker.is_alive():
                            continue
                        beat = heartbeats[rank]
                        if beat > 0 and now - beat > heartbeat_timeout:
                            stall_reason = (
                                f"rank {rank} stalled: no heartbeat for "
                                f"{now - beat:.2f}s (heartbeat_timeout="
                                f"{heartbeat_timeout}s)"
                            )
                            # Record the stall as this rank's outcome so
                            # supervision can finish even if it never
                            # reports; a late report (the rank was merely
                            # slow and wakes into the abort) overwrites
                            # it and ships the rank's telemetry bundle.
                            outcomes[rank] = ("err", CommunicatorError(stall_reason))
                            abort_world(stall_reason)
                            break
                for rank, worker in enumerate(workers):
                    if rank in outcomes or worker.is_alive():
                        continue
                    if worker.exitcode not in (0, None):
                        outcomes[rank] = (
                            "err",
                            CommunicatorError(
                                f"rank {rank} died with exit code {worker.exitcode} "
                                "without reporting a result"
                            ),
                        )
                        abort_world(str(outcomes[rank][1]))
                    elif empty_polls >= _LOST_WORKER_POLLS:
                        # Exited cleanly, queue repeatedly empty: the
                        # report is not coming.
                        outcomes[rank] = (
                            "err",
                            CommunicatorError(
                                f"rank {rank} exited without reporting a result"
                            ),
                        )
                        abort_world(str(outcomes[rank][1]))
                continue
            empty_polls = 0
            rank, kind, value, bundle = pickle.loads(report)
            if bundle is not None:
                # Absorb immediately — before any error handling — so
                # telemetry from a crashed rank survives the re-raise.
                from ..obs import aggregate

                aggregate.absorb(bundle)
            outcomes[rank] = (kind, value)
            if kind == "err":
                abort_world(f"{type(value).__name__}: {value}")

        grace = time.monotonic() + _ABORT_GRACE_SECONDS
        for worker in workers:
            worker.join(max(0.0, grace - time.monotonic()))
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
                worker.join(1.0)
        # The loop above exits once every rank has an outcome — which a
        # detected stall synthesizes without a report.  If the stalled
        # rank was merely slow and reported after the loop ended, its
        # report (with its partial telemetry bundle) is still sitting in
        # the queue: drain it now, before _drain_and_close discards it.
        while True:
            try:
                report = result_queue.get_nowait()
            except (queue_module.Empty, OSError, EOFError):
                break
            try:
                rank, kind, value, bundle = pickle.loads(report)
            except Exception:  # pragma: no cover - torn queue at shutdown
                break
            if bundle is not None:
                from ..obs import aggregate

                aggregate.absorb(bundle)
            outcomes[rank] = (kind, value)
    finally:
        _drain_and_close(mailboxes, result_queue)

    if timed_out and len(outcomes) < size:
        raise CommunicatorError(f"parallel region exceeded timeout {timeout}s")

    errors = sorted(
        (rank, value) for rank, (kind, value) in outcomes.items() if kind == "err"
    )
    if errors:
        # Peers of a failed rank typically die with the induced abort
        # DeadlockError; report the root cause instead.  When the root
        # cause was a detected stall and the stalled rank's own report
        # (a DeadlockError from waking into the abort) overwrote the
        # stall outcome, resurface the stall.
        primary = [e for e in errors if not isinstance(e[1], DeadlockError)]
        if not primary and stall_reason is not None:
            raise CommunicatorError(stall_reason)
        _, first = (primary or errors)[0]
        raise first
    return [outcomes[rank][1] for rank in range(size)]


def _drain_and_close(mailboxes: Sequence[Any], result_queue: Any) -> None:
    """Release undelivered shared-memory segments and shut the queues down."""
    for mailbox in mailboxes:
        while True:
            try:
                item = mailbox.get_nowait()
            except (queue_module.Empty, OSError, EOFError):
                break
            if isinstance(item, tuple) and len(item) == 3:
                discard_header(item[2])
    for q in (*mailboxes, result_queue):
        q.close()
        try:
            q.join_thread()
        except Exception:  # pragma: no cover - defensive
            pass
