"""``ObsCallback``: the engine-side metrics emitter.

Rides the :class:`repro.core.engine.Engine` event sequence and samples
training metrics once per epoch::

    train.loss        mean training loss
    train.val_loss    validation loss (when validation data is given)
    train.lr          current learning rate
    train.throughput  training samples / second over the epoch
    train.grad_norm   global gradient norm of the last backward pass

The values publish through the :mod:`repro.obs.metrics` registry as
rank-tagged gauges; each gauge forwards to :func:`repro.obs.trace.
metric` on ``set``, so traced runs keep the exact event stream (and
Chrome-trace counter tracks) this callback emitted before the registry
existed, and also get the last value per rank in snapshots and the
Prometheus export.

The class deliberately does **not** subclass
:class:`repro.core.engine.Callback`: the engine dispatches events by
name (``getattr(callback, event)(engine)``), so duck typing suffices
and ``repro.obs`` never imports ``repro.core`` — the dependency arrow
stays core → obs.
"""

from __future__ import annotations

import math

from . import metrics, trace

__all__ = ["ObsCallback"]

#: The published gauges (module-level: registry instruments are
#: process-wide singletons, construction confined here by REP016).
_TRAIN_LOSS = metrics.gauge("train.loss")
_TRAIN_VAL_LOSS = metrics.gauge("train.val_loss")
_TRAIN_LR = metrics.gauge("train.lr")
_TRAIN_THROUGHPUT = metrics.gauge("train.throughput")
_TRAIN_GRAD_NORM = metrics.gauge("train.grad_norm")
_TRAIN_BATCH_LOSS = metrics.gauge("train.batch_loss")


class ObsCallback:
    """Emit per-epoch training metrics through :mod:`repro.obs.metrics`.

    Parameters
    ----------
    grad_norm:
        Also compute the global gradient norm after each backward pass
        (one extra reduction per batch; skip for hot runs).
    batch_metrics:
        Additionally emit ``train.batch_loss`` per batch — fine-grained
        but chatty; off by default.

    Per-epoch samples are also collected on ``self.history`` (a list of
    dicts) so tests and notebooks can read them without an export step.
    """

    def __init__(self, grad_norm: bool = True, batch_metrics: bool = False) -> None:
        self.grad_norm = grad_norm
        self.batch_metrics = batch_metrics
        self.history: list[dict[str, float]] = []
        self._epoch_start = 0.0
        self._samples = 0
        self._last_grad_norm: float | None = None

    # -- engine events (duck-typed Callback surface) -------------------
    def on_fit_start(self, engine) -> None:
        self.history.clear()

    def on_epoch_start(self, engine) -> None:
        self._epoch_start = trace.clock()
        self._samples = 0

    def on_batch_start(self, engine) -> None: ...

    def on_after_backward(self, engine) -> None:
        if not self.grad_norm:
            return
        total = 0.0
        for param in engine.optimizer.params:
            if param.grad is not None:
                total += float((param.grad * param.grad).sum())
        self._last_grad_norm = math.sqrt(total)

    def on_batch_end(self, engine) -> None:
        self._samples += getattr(engine, "last_batch_size", 0)
        if self.batch_metrics and engine.last_batch_loss is not None:
            _TRAIN_BATCH_LOSS.set(engine.last_batch_loss)

    def on_validation_end(self, engine) -> None: ...

    def on_epoch_end(self, engine) -> None:
        elapsed = trace.clock() - self._epoch_start
        sample: dict[str, float] = {"epoch": engine.epoch}
        if engine.train_loss is not None:
            sample["train.loss"] = engine.train_loss
            _TRAIN_LOSS.set(engine.train_loss)
        if engine.val_loss is not None:
            sample["train.val_loss"] = engine.val_loss
            _TRAIN_VAL_LOSS.set(engine.val_loss)
        if engine.optimizer is not None:
            sample["train.lr"] = engine.optimizer.lr
            _TRAIN_LR.set(engine.optimizer.lr)
        if elapsed > 0 and self._samples:
            throughput = self._samples / elapsed
            sample["train.throughput"] = throughput
            _TRAIN_THROUGHPUT.set(throughput)
        if self._last_grad_norm is not None:
            sample["train.grad_norm"] = self._last_grad_norm
            _TRAIN_GRAD_NORM.set(self._last_grad_norm)
        self.history.append(sample)

    def on_fit_end(self, engine) -> None: ...
