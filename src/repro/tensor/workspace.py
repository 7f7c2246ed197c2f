"""Shape/dtype-keyed reusable buffer arenas for the kernel hot path.

Every ``conv2d`` call used to allocate (and the OS used to page-zero)
tens of megabytes of scratch — the im2col patch matrix alone is ~52 MiB
at the paper's 256x256/4-channel/5x5 configuration — only to free it
microseconds later.  A :class:`Workspace` keeps those buffers alive
between calls: ``request(slot, shape, dtype)`` returns the *same*
ndarray every time the same key recurs, so steady-state kernels run
against warm, already-faulted memory.

Ownership contract
------------------
A buffer handed out for ``(slot, shape, dtype)`` is valid until the
next ``request`` of that key.  Callers therefore must either (a) finish
with the buffer before anyone can re-request the key — the scratch
pattern used by ``im2col``/``col2im`` — or (b) own the arena outright
and manage slot lifetimes themselves, which is what
:class:`~repro.core.inference.InferencePlan` does.  Results that escape
to user code are never workspace-backed unless the caller explicitly
owns the arena.

Buffers are zero-filled exactly once, at creation; pass ``zero=True``
for slots whose algorithm needs a clean buffer on *every* request (the
``col2im`` scatter-add base).  The padded-input slots instead encode
the padding split in the slot name and only ever write the interior,
so their borders stay zero for the buffer's whole lifetime.

Every hand-out is also counted, while :mod:`repro.obs.metrics` is
collecting, in the rank-tagged ``workspace.bytes_allocated`` and
``workspace.bytes_reused`` counters.

Thread and fork semantics
-------------------------
The default arena returned by :func:`get_workspace` is **per-thread**
(the thread-backed MPI ranks each train in their own thread, and a
shared arena would hand two ranks the same scratch buffer).  Under the
process execution backend each forked rank inherits a copy-on-write
image of the parent's arenas; an ``os.register_at_fork`` hook drops
them in the child so every rank process starts cold and its reuse
statistics describe only its own work.
"""

from __future__ import annotations

import contextlib
import os
import threading
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from ..obs import metrics as obs_metrics

__all__ = [
    "Workspace",
    "WorkspaceStats",
    "get_workspace",
    "workspace_disabled",
]

_BYTES_ALLOCATED = obs_metrics.counter("workspace.bytes_allocated")
_BYTES_REUSED = obs_metrics.counter("workspace.bytes_reused")


@dataclass
class WorkspaceStats:
    """Allocation/reuse accounting for one arena."""

    requests: int = 0
    buffers_created: int = 0
    bytes_allocated: int = 0
    bytes_reused: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from a warm buffer."""
        if self.requests == 0:
            return 0.0
        return 1.0 - self.buffers_created / self.requests


class Workspace:
    """An arena of reusable ndarray buffers keyed by (slot, shape, dtype).

    Not thread-safe by design: an arena belongs to one thread (or to
    one owning object such as an :class:`~repro.core.inference.
    InferencePlan`).  Use :func:`get_workspace` for the calling
    thread's default arena.

    The REP007 lint rule confines construction to ``src/repro/tensor``
    and ``src/repro/core/inference.py``; other code requests buffers
    from an arena it is handed instead of building private ones.
    """

    def __init__(self, name: str = "workspace") -> None:
        self.name = name
        self._buffers: dict[tuple[str, tuple[int, ...], np.dtype], np.ndarray] = {}
        self.stats = WorkspaceStats()

    def request(
        self,
        slot: str,
        shape: tuple[int, ...],
        dtype: Any,
        zero: bool = False,
    ) -> np.ndarray:
        """Return the reusable buffer for ``(slot, shape, dtype)``.

        Fresh buffers are always zero-filled; pass ``zero=True`` when
        the slot needs a clean buffer on every request (scatter-add
        bases).  The returned array is valid until the next request of
        the same key — see the module docstring's ownership contract.
        """
        key = (slot, tuple(int(s) for s in shape), np.dtype(dtype))
        self.stats.requests += 1
        buffer = self._buffers.get(key)
        if buffer is None:
            buffer = np.zeros(key[1], dtype=key[2])
            self._buffers[key] = buffer
            self.stats.buffers_created += 1
            self.stats.bytes_allocated += buffer.nbytes
            _BYTES_ALLOCATED.inc(buffer.nbytes)
        else:
            if zero:
                buffer.fill(0)
            self.stats.bytes_reused += buffer.nbytes
            _BYTES_REUSED.inc(buffer.nbytes)
        return buffer

    @property
    def num_buffers(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the arena."""
        return sum(b.nbytes for b in self._buffers.values())

    def clear(self) -> None:
        """Drop every buffer (statistics are kept)."""
        self._buffers.clear()

    def describe(self) -> str:
        """One-line summary used by reports and the ``repro perf`` CLI."""
        s = self.stats
        return (
            f"{self.name}: {self.num_buffers} buffers, "
            f"{self.nbytes / 1024 / 1024:.1f} MiB held, "
            f"{s.requests} requests, hit rate {s.hit_rate:.0%}"
        )


_tls = threading.local()


def get_workspace() -> Workspace | None:
    """The calling thread's default arena (``None`` while disabled).

    Kernels consult this on their no-grad fast path; each thread —
    including every thread-backed MPI rank — lazily gets its own arena
    so scratch buffers are never shared across ranks.
    """
    if getattr(_tls, "disabled", 0):
        return None
    workspace = getattr(_tls, "workspace", None)
    if workspace is None:
        workspace = Workspace(name=f"thread-{threading.get_ident()}")
        _tls.workspace = workspace
    return workspace


@contextlib.contextmanager
def workspace_disabled() -> Iterator[None]:
    """Disable the calling thread's default arena inside the block.

    Used by the equivalence tests and benchmarks to pin the naive
    allocate-per-call path as the baseline.
    """
    _tls.disabled = getattr(_tls, "disabled", 0) + 1
    try:
        yield
    finally:
        _tls.disabled -= 1


def _drop_after_fork() -> None:
    # A forked rank process inherits the forking thread's arena as a
    # copy-on-write image; drop it so the child starts cold and its
    # statistics are its own.
    _tls.workspace = None


if hasattr(os, "register_at_fork"):  # not on every platform
    os.register_at_fork(after_in_child=_drop_after_fork)
