"""Abstract message-passing API modeled on MPI / mpi4py.

The :class:`Communicator` interface exposes the MPI surface the paper's
scheme needs: blocking and non-blocking point-to-point messaging (used
by the halo exchange at inference time) and the standard collectives
(used by the baselines and by result gathering — the paper's training
itself is deliberately collective-free).

Collectives are implemented *generically* on top of point-to-point
messaging with reserved internal tags, so every backend that provides
``send`` / ``recv`` gets the full API.  Flat (root-centric) algorithms
are used; at the scales of the paper (≤ 64 ranks) tree algorithms would
change constants, not behaviour.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import reduce as _functools_reduce
from typing import Any, Callable, Sequence

import numpy as np

from ..exceptions import CommunicatorError
from ..obs import metrics as obs_metrics
from ..obs import trace

#: Wildcard source for :meth:`Communicator.recv`.
ANY_SOURCE = -1
#: Wildcard tag for :meth:`Communicator.recv`.
ANY_TAG = -1

#: User tags must be below this; the range above is reserved for the
#: generic collective implementations.
MAX_USER_TAG = 1 << 30

_COLLECTIVE_STRIDE = 16  # distinct internal ops per collective round


def _payload_nbytes(payload: Any) -> int:
    """Best-effort byte size of a message payload (0 when unknown).

    Only used for trace annotation — never for correctness — so the
    duck typing here is deliberately forgiving.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    data = getattr(payload, "data", None)
    if isinstance(data, np.ndarray):  # repro Tensor
        return data.nbytes
    if isinstance(payload, (list, tuple)):
        return sum(_payload_nbytes(item) for item in payload)
    if isinstance(payload, dict):
        return sum(_payload_nbytes(item) for item in payload.values())
    return 0


#: Point-to-point traffic totals per rank (no-ops while the tracer is
#: off); collectives are built from sends/receives, so they count too.
_BYTES_SENT = obs_metrics.counter("mpi.bytes_sent")
_BYTES_RECV = obs_metrics.counter("mpi.bytes_recv")


class ReduceOp:
    """A named, associative reduction operator."""

    def __init__(self, name: str, fn: Callable[[Any, Any], Any]):
        self.name = name
        self.fn = fn

    def __call__(self, a: Any, b: Any) -> Any:
        return self.fn(a, b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReduceOp({self.name})"


def _np_binary(fn):
    def wrapped(a, b):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return fn(np.asarray(a), np.asarray(b))
        return fn(a, b)

    return wrapped


SUM = ReduceOp("SUM", _np_binary(operator.add))
PROD = ReduceOp("PROD", _np_binary(operator.mul))
MAX = ReduceOp("MAX", _np_binary(np.maximum))
MIN = ReduceOp("MIN", _np_binary(np.minimum))
LAND = ReduceOp("LAND", _np_binary(np.logical_and))
LOR = ReduceOp("LOR", _np_binary(np.logical_or))


@dataclass
class Status:
    """Delivery metadata for a received message."""

    source: int
    tag: int


@dataclass
class Request:
    """Handle for a non-blocking operation.

    ``wait()`` blocks until completion and returns the received payload
    (``None`` for sends); ``test()`` polls without blocking.
    """

    _wait: Callable[[float | None], Any]
    _test: Callable[[], tuple[bool, Any]]
    completed: bool = False
    _result: Any = None
    status: Status | None = None
    _statuses: list = field(default_factory=list)

    def wait(self, timeout: float | None = None) -> Any:
        if not self.completed:
            self._result = self._wait(timeout)
            self.completed = True
        return self._result

    def test(self) -> tuple[bool, Any]:
        if self.completed:
            return True, self._result
        done, result = self._test()
        if done:
            self.completed = True
            self._result = result
        return done, result


def wait_all(requests: Sequence[Request], timeout: float | None = None) -> list[Any]:
    """Wait for every request; returns their results in order."""
    return [r.wait(timeout) for r in requests]


class Communicator:
    """Abstract communicator: a rank within a world of ``size`` ranks."""

    #: default number of seconds a blocking receive waits before the
    #: runtime declares a deadlock. ``None`` disables the watchdog.
    deadlock_timeout: float | None = 120.0

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        raise NotImplementedError

    @property
    def size(self) -> int:
        raise NotImplementedError

    # mpi4py-style accessors
    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.size

    # ------------------------------------------------------------------
    # Point-to-point (backends implement _send/_recv)
    # ------------------------------------------------------------------
    def _send(self, payload: Any, dest: int, tag: int) -> None:
        raise NotImplementedError

    def _recv(self, source: int, tag: int, timeout: float | None) -> tuple[Any, Status]:
        raise NotImplementedError

    def _irecv(self, source: int, tag: int) -> Request:
        raise NotImplementedError

    def _check_peer(self, peer: int, what: str) -> None:
        if peer != ANY_SOURCE and not 0 <= peer < self.size:
            raise CommunicatorError(
                f"{what} rank {peer} out of range for world size {self.size}"
            )

    def _check_tag(self, tag: int, allow_any: bool) -> None:
        if tag == ANY_TAG and allow_any:
            return
        if not 0 <= tag < MAX_USER_TAG:
            raise CommunicatorError(
                f"tag {tag} outside the user tag range [0, {MAX_USER_TAG})"
            )

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Buffered send: returns as soon as the payload is enqueued.

        The payload is deep-copied at the sender, matching distributed-
        memory semantics (mutations after ``send`` are not observable by
        the receiver).
        """
        self._check_peer(dest, "destination")
        self._check_tag(tag, allow_any=False)
        if not trace.enabled():
            self._send(payload, dest, tag)
            return
        nbytes = _payload_nbytes(payload)
        _BYTES_SENT.inc(nbytes)
        start = trace.clock()
        self._send(payload, dest, tag)
        trace.record(
            "mpi.send", "comm", start,
            peer=dest, tag=tag, bytes=nbytes,
        )

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ) -> Any:
        """Blocking receive; returns the payload."""
        payload, _ = self.recv_with_status(source, tag, timeout)
        return payload

    def recv_with_status(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        timeout: float | None = None,
    ) -> tuple[Any, Status]:
        """Blocking receive; returns ``(payload, Status)``."""
        self._check_peer(source, "source")
        self._check_tag(tag, allow_any=True)
        effective = timeout if timeout is not None else self.deadlock_timeout
        if not trace.enabled():
            return self._recv(source, tag, effective)
        start = trace.clock()
        payload, status = self._recv(source, tag, effective)
        nbytes = _payload_nbytes(payload)
        _BYTES_RECV.inc(nbytes)
        trace.record(
            "mpi.recv", "comm", start,
            peer=status.source, tag=status.tag, bytes=nbytes,
        )
        return payload, status

    def isend(self, payload: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send (completes immediately: sends are buffered)."""
        self.send(payload, dest, tag)
        return Request(_wait=lambda timeout=None: None, _test=lambda: (True, None), completed=True)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive returning a :class:`Request`."""
        self._check_peer(source, "source")
        self._check_tag(tag, allow_any=True)
        return self._irecv(source, tag)

    def sendrecv(
        self,
        payload: Any,
        dest: int,
        recv_source: int,
        send_tag: int = 0,
        recv_tag: int = ANY_TAG,
    ) -> Any:
        """Combined send+receive, deadlock-free for exchange patterns."""
        if not trace.enabled():
            self.send(payload, dest, send_tag)
            return self.recv(recv_source, recv_tag)
        # cat "comm.compound": the inner send/recv spans carry the comm
        # seconds; this wrapper exists for timeline structure only.
        start = trace.clock()
        self.send(payload, dest, send_tag)
        result = self.recv(recv_source, recv_tag)
        trace.record(
            "mpi.sendrecv", "comm.compound", start, dest=dest, source=recv_source
        )
        return result

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Non-destructively check whether a matching message is waiting.

        Implemented on top of :meth:`irecv` test-and-requeue would break
        ordering, so backends provide :meth:`_iprobe` directly.
        """
        self._check_peer(source, "source")
        self._check_tag(tag, allow_any=True)
        return self._iprobe(source, tag)

    def _iprobe(self, source: int, tag: int) -> bool:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Communicator splitting (MPI_Comm_split)
    # ------------------------------------------------------------------
    def split(self, color: int, key: int | None = None) -> "Communicator | None":
        """Partition the communicator into disjoint sub-communicators.

        Ranks passing the same ``color`` form one group; within a group,
        ranks are ordered by ``(key, old_rank)`` (``key`` defaults to
        the current rank, preserving order).  Passing a negative color
        opts out and returns ``None`` (the ``MPI_UNDEFINED`` analogue).

        This is a collective call: every rank of the parent must
        participate.
        """
        my_key = self.rank if key is None else key
        table = self.allgather((color, my_key, self.rank))
        if color < 0:
            return None
        members = sorted(
            (entry for entry in table if entry[0] == color),
            key=lambda entry: (entry[1], entry[2]),
        )
        ranks = [entry[2] for entry in members]
        return SubCommunicator(self, ranks)

    # ------------------------------------------------------------------
    # Internal tag management for collectives
    # ------------------------------------------------------------------
    def _next_collective_tag(self, opcode: int) -> int:
        seq = getattr(self, "_collective_seq", 0)
        self._collective_seq = seq + 1
        return MAX_USER_TAG + (seq % (1 << 16)) * _COLLECTIVE_STRIDE + opcode

    def _internal_send(self, payload: Any, dest: int, tag: int) -> None:
        self._send(payload, dest, tag)

    def _internal_recv(self, source: int, tag: int) -> Any:
        payload, _ = self._recv(source, tag, self.deadlock_timeout)
        return payload

    # ------------------------------------------------------------------
    # Collectives (generic over point-to-point)
    # ------------------------------------------------------------------
    def _traced_collective(self, name: str, impl: Callable[[], Any]) -> Any:
        """Run a primitive collective under a ``comm.collective`` span.

        Only the primitives (barrier/bcast/gather/scatter/alltoall) are
        traced; composites (allgather/reduce/allreduce) are built from
        them, so their communication seconds are already accounted for
        by the inner spans.
        """
        if not trace.enabled():
            return impl()
        start = trace.clock()
        result = impl()
        trace.record(name, "comm.collective", start)
        return result

    def barrier(self) -> None:
        """Block until every rank of the communicator has arrived."""
        self._traced_collective("mpi.barrier", self._barrier_impl)

    def _barrier_impl(self) -> None:
        tag = self._next_collective_tag(0)
        if self.rank == 0:
            for peer in range(1, self.size):
                self._internal_recv(peer, tag)
            for peer in range(1, self.size):
                self._internal_send(None, peer, tag + 1)
        else:
            self._internal_send(None, 0, tag)
            self._internal_recv(0, tag + 1)

    def bcast(self, payload: Any, root: int = 0) -> Any:
        """Broadcast ``payload`` from ``root`` to every rank."""
        return self._traced_collective("mpi.bcast", lambda: self._bcast_impl(payload, root))

    def _bcast_impl(self, payload: Any, root: int) -> Any:
        self._check_peer(root, "root")
        tag = self._next_collective_tag(2)
        if self.rank == root:
            for peer in range(self.size):
                if peer != root:
                    self._internal_send(payload, peer, tag)
            return payload
        return self._internal_recv(root, tag)

    def gather(self, payload: Any, root: int = 0) -> list[Any] | None:
        """Gather one payload per rank at ``root`` (rank order)."""
        return self._traced_collective("mpi.gather", lambda: self._gather_impl(payload, root))

    def _gather_impl(self, payload: Any, root: int) -> list[Any] | None:
        self._check_peer(root, "root")
        tag = self._next_collective_tag(3)
        if self.rank == root:
            results: list[Any] = [None] * self.size
            results[root] = payload
            for peer in range(self.size):
                if peer != root:
                    results[peer] = self._internal_recv(peer, tag)
            return results
        self._internal_send(payload, root, tag)
        return None

    def scatter(self, payloads: Sequence[Any] | None, root: int = 0) -> Any:
        """Distribute ``payloads[i]`` to rank ``i`` from ``root``."""
        return self._traced_collective("mpi.scatter", lambda: self._scatter_impl(payloads, root))

    def _scatter_impl(self, payloads: Sequence[Any] | None, root: int) -> Any:
        self._check_peer(root, "root")
        tag = self._next_collective_tag(4)
        if self.rank == root:
            if payloads is None or len(payloads) != self.size:
                raise CommunicatorError(
                    f"scatter at root needs exactly {self.size} payloads"
                )
            for peer in range(self.size):
                if peer != root:
                    self._internal_send(payloads[peer], peer, tag)
            return payloads[root]
        return self._internal_recv(root, tag)

    def allgather(self, payload: Any) -> list[Any]:
        """Gather at rank 0, then broadcast the full list."""
        gathered = self.gather(payload, root=0)
        return self.bcast(gathered, root=0)

    def reduce(self, payload: Any, op: ReduceOp = SUM, root: int = 0) -> Any | None:
        """Reduce payloads with ``op`` at ``root`` (deterministic rank order)."""
        gathered = self.gather(payload, root=root)
        if gathered is None:
            return None
        return _functools_reduce(op, gathered)

    def allreduce(self, payload: Any, op: ReduceOp = SUM) -> Any:
        """Reduce then broadcast the result to every rank."""
        reduced = self.reduce(payload, op=op, root=0)
        return self.bcast(reduced, root=0)

    def alltoall(self, payloads: Sequence[Any]) -> list[Any]:
        """Exchange ``payloads[j]`` with rank ``j`` for every pair."""
        return self._traced_collective("mpi.alltoall", lambda: self._alltoall_impl(payloads))

    def _alltoall_impl(self, payloads: Sequence[Any]) -> list[Any]:
        if len(payloads) != self.size:
            raise CommunicatorError(
                f"alltoall needs exactly {self.size} payloads, got {len(payloads)}"
            )
        tag = self._next_collective_tag(5)
        results: list[Any] = [None] * self.size
        for peer in range(self.size):
            if peer == self.rank:
                results[peer] = payloads[peer]
            else:
                self._internal_send(payloads[peer], peer, tag)
        for peer in range(self.size):
            if peer != self.rank:
                payload, status = self._recv(ANY_SOURCE, tag, self.deadlock_timeout)
                results[status.source] = payload
        return results

    # ------------------------------------------------------------------
    # Buffer-style (uppercase) variants for NumPy arrays, mirroring the
    # mpi4py convention from the HPC guides.
    # ------------------------------------------------------------------
    def Send(self, array: np.ndarray, dest: int, tag: int = 0) -> None:
        """Send a NumPy array (copied at the sender)."""
        self.send(np.ascontiguousarray(array), dest, tag)

    def Recv(self, buffer: np.ndarray, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Status:
        """Receive into a preallocated array buffer; returns the status."""
        payload, status = self.recv_with_status(source, tag)
        payload = np.asarray(payload)
        if payload.shape != buffer.shape:
            raise CommunicatorError(
                f"Recv buffer shape {buffer.shape} does not match message "
                f"shape {payload.shape}"
            )
        buffer[...] = payload
        return status


class SubCommunicator(Communicator):
    """A communicator over a subset of a parent's ranks (``split``).

    Ranks are renumbered 0..len(members)-1 in group order; messages are
    routed through the parent with translated rank numbers.  The tag
    space is shared with the parent (a documented simplification of
    this in-process implementation); collective tags are offset so
    parent and child collectives can interleave.
    """

    def __init__(self, parent: Communicator, members: list[int]) -> None:
        if parent.rank not in members:
            raise CommunicatorError(
                f"rank {parent.rank} is not a member of the new group {members}"
            )
        self.parent = parent
        self._members = list(members)
        self._rank = members.index(parent.rank)
        self._collective_seq = 0
        self.deadlock_timeout = parent.deadlock_timeout

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return len(self._members)

    def translate(self, sub_rank: int) -> int:
        """Parent rank of ``sub_rank`` in this group."""
        return self._members[sub_rank]

    def _next_collective_tag(self, opcode: int) -> int:
        # Offset the opcode block so parent and child collectives in
        # flight simultaneously use disjoint tags.
        return super()._next_collective_tag(opcode + _COLLECTIVE_STRIDE // 2)

    def _send(self, payload: Any, dest: int, tag: int) -> None:
        self.parent._send(payload, self._members[dest], tag)

    def _recv(self, source: int, tag: int, timeout: float | None) -> tuple[Any, Status]:
        parent_source = ANY_SOURCE if source == ANY_SOURCE else self._members[source]
        payload, status = self.parent._recv(parent_source, tag, timeout)
        return payload, Status(self._members.index(status.source), status.tag)

    def _irecv(self, source: int, tag: int) -> Request:
        parent_source = ANY_SOURCE if source == ANY_SOURCE else self._members[source]
        return self.parent._irecv(parent_source, tag)

    def _iprobe(self, source: int, tag: int) -> bool:
        parent_source = ANY_SOURCE if source == ANY_SOURCE else self._members[source]
        return self.parent._iprobe(parent_source, tag)
