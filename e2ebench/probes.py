"""Per-layer timing of the workloads, measured from outside the program.

Nothing here adds a span inside ``src/``.  The probes time the calls
the benchmark makes into each layer's public functions and record them
with ``repro.obs.trace.record``; spans recorded inside rank processes
return to the parent through the existing trace-bundle merge.

- **Training** (:class:`EngineProbe`): an Engine callback, attached via
  ``ParallelTrainer(callback_factory=...)``, wraps the rank model's
  ``forward``, each conv layer's ``forward`` and ``engine.loss_fn``, and
  splits every batch at the engine's own events: forward, loss, the
  backward residual up to ``on_after_backward``, the optimizer step up
  to ``on_batch_end``, and the data wait before the next batch.
- **Rollout** (:class:`RolloutReplica`): a replica of the rollout rank
  program built only from ``BlockDecomposition.extract``,
  ``HaloExchanger.exchange`` and ``InferencePlan.run``, run through
  ``repro.mpi.run_parallel``.  Its trajectory is checked bit for bit
  against ``ParallelPredictor.rollout`` on every traced call, so the
  split measures the same program.
- **Parareal** (:class:`TimedSimulation`, :class:`TimedCoarse`): timing
  proxies injected into ``PararealDriver`` as ``simulation`` and
  ``coarse``.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from repro import mpi
from repro.core import Callback, InferencePlan
from repro.data import SnapshotDataset
from repro.domain import HaloExchanger
from repro.nn import Conv2d, LeakyReLU, Sequential
from repro.obs import trace
from repro.solver.parareal import CoarseOperator

from workloads import EXECUTION

CAT = "bench"
clock = trace.clock


def mark(name: str) -> None:
    """An instant event on the calling rank's timeline."""
    trace.record(name, CAT, clock(), 0.0)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals (overlaps once)."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def by_rank(spans) -> dict:
    ranks: dict = {}
    for span in spans:
        if span.rank is not None:
            ranks.setdefault(span.rank, []).append(span)
    return ranks


def first(spans, name: str):
    for span in spans:
        if span.name == name:
            return span
    return None


def conv_layers(model) -> list[Conv2d]:
    return [layer for layer in model.layers if isinstance(layer, Conv2d)]


# ======================================================================
# Training
# ======================================================================
class EngineProbe(Callback):
    """Splits each training batch of one rank into its layers."""

    def __init__(self) -> None:
        self.batch: dict | None = None
        self.last_end: float | None = None
        self.t0 = self.t1 = 0.0

    def _wrap(self, fn, key: str):
        def timed(*args, **kwargs):
            start = clock()
            out = fn(*args, **kwargs)
            if self.batch is not None:
                self.batch[key] = self.batch.get(key, 0.0) + clock() - start
            return out

        return timed

    def on_fit_start(self, engine) -> None:
        model = engine.model
        model.forward = self._wrap(model.forward, "forward")
        for index, conv in enumerate(conv_layers(model), 1):
            conv.forward = self._wrap(conv.forward, f"conv{index}")
        engine.loss_fn = self._wrap(engine.loss_fn, "loss")

    def on_batch_start(self, engine) -> None:
        self.t0 = clock()
        wait = None if self.last_end is None else self.t0 - self.last_end
        self.batch = {"wait": wait}

    def on_after_backward(self, engine) -> None:
        self.t1 = clock()

    def on_batch_end(self, engine) -> None:
        end = clock()
        batch = self.batch or {}
        batch["fwdbwd"] = self.t1 - self.t0
        batch["optim"] = end - self.t1
        trace.record("bench.batch", CAT, self.t0, end - self.t0, **batch)
        self.batch = None
        self.last_end = end

    def on_fit_end(self, engine) -> None:
        mark("bench.fit_end")


def engine_callbacks(rank: int) -> list[Callback]:
    """``callback_factory`` for ``ParallelTrainer``: marks the moment the
    rank's data and model are built, then probes its engine."""
    mark("bench.rank_ready")
    return [EngineProbe()]


class MarkedDataset(SnapshotDataset):
    """A snapshot dataset that marks when a rank process first reads it.

    The trainer's rank program reads the snapshots first thing, so the
    mark is the start of the rank program.  Each rank process works on
    its own forked copy of the dataset, which remembers its process.
    """

    def __getattribute__(self, name):
        if name == "snapshots" and trace.current_rank() is not None:
            fields = object.__getattribute__(self, "__dict__")
            if fields.get("_marked_pid") != os.getpid():
                fields["_marked_pid"] = os.getpid()
                mark("bench.rank_start")
        return super().__getattribute__(name)


def batch_records(spans) -> dict:
    """rank -> per-batch breakdown dicts (seconds)."""
    out: dict = {}
    for rank, items in by_rank(spans).items():
        records = []
        for span in items:
            if span.name != "bench.batch":
                continue
            record = dict(span.args or {})
            record["total"] = span.dur
            record["backward"] = (
                record["fwdbwd"] - record.get("forward", 0.0) - record.get("loss", 0.0)
            )
            records.append(record)
        if records:
            out[rank] = records
    return out


def engine_metrics(batches_per_op: list[dict], rank_fit_times: list[list[float]]) -> dict:
    """Per-layer training metrics: each batch figure is the slowest
    rank's median; the fit times are medians over calls of the slowest
    and fastest rank's ``train_time``."""
    merged: dict = {}
    for batches in batches_per_op:
        for rank, records in batches.items():
            merged.setdefault(rank, []).extend(records)
    if not merged:
        return {}

    def worst(key: str) -> float:
        return max(
            median(r[key] for r in records if r.get(key) is not None) * 1e3
            for records in merged.values()
        )

    metrics = {
        "core.engine.batch_ms_p50": worst("total"),
        "nn.loss_ms_p50": worst("loss"),
        "tensor.backward_ms_p50": worst("backward"),
        "optim.step_ms_p50": worst("optim"),
        "data.batch_wait_ms_p50": worst("wait"),
    }
    for index in range(1, 5):
        metrics[f"nn.conv{index}.forward_ms_p50"] = worst(f"conv{index}")
    if rank_fit_times:
        metrics["core.rank_fit_s_max"] = median(max(times) for times in rank_fit_times)
        metrics["core.rank_fit_s_min"] = median(min(times) for times in rank_fit_times)
    return metrics


def train_op_layers(spans, entry: float, ret: float) -> dict:
    """Launch, collect and unattributed time of one traced train call."""
    entry_wall, ret_wall = trace.wall_time(entry), trace.wall_time(ret)
    timelines = {}
    for rank, items in by_rank(spans).items():
        start, ready, end = (
            first(items, name)
            for name in ("bench.rank_start", "bench.rank_ready", "bench.fit_end")
        )
        if start is None or ready is None or end is None:
            continue
        batches = [s for s in items if s.name == "bench.batch"]
        covered = (ready.ts - start.ts) + sum(s.dur + (s.args["wait"] or 0.0) for s in batches)
        timelines[rank] = (start.ts, end.ts, covered)
    out = _split(timelines, entry_wall, ret_wall)
    out["comm_wait"] = comm_wait(spans)
    return out


def comm_wait(spans) -> float:
    """Seconds the slowest rank spent inside MPI calls (send, recv,
    barrier, allreduce, ...), as the program's own ``comm`` spans show;
    on a blocking receive this is mostly waiting on the peer."""
    waits = [
        union_length(
            (s.ts, s.end) for s in items if s.cat in ("comm", "comm.collective")
        )
        for items in by_rank(spans).values()
    ]
    return max(waits, default=0.0)


def _split(timelines: dict, entry_wall: float, ret_wall: float) -> dict:
    """Launch / collect / unattributed share from per-rank
    ``(start, end, covered)`` timelines of one call.

    The call's wall time splits exactly into the last-finishing rank's
    launch delay, its active time, and the collect time after it ends;
    the part of that rank's active time no layer span covers is the
    unattributed share.
    """
    if not timelines:
        return {}
    wall = ret_wall - entry_wall
    critical = max(timelines, key=lambda r: timelines[r][1])
    start, end, covered = timelines[critical]
    return {
        "launch": max(t[0] for t in timelines.values()) - entry_wall,
        "collect": ret_wall - end,
        "unattributed": max(0.0, (end - start) - covered) / wall,
    }


# ======================================================================
# Rollout
# ======================================================================
def layer_plans(model) -> list[InferencePlan]:
    """One single-layer plan per conv step (conv plus its activation)."""
    layers = list(model.layers)
    plans = []
    i = 0
    while i < len(layers):
        group = [layers[i]]
        if i + 1 < len(layers) and isinstance(layers[i + 1], LeakyReLU):
            group.append(layers[i + 1])
        plans.append(InferencePlan(Sequential(*group)))
        i += len(group)
    return plans


class RolloutReplica:
    """The rollout rank program rebuilt from public calls, with spans."""

    def __init__(self, models, decomposition, fill: str = "zero") -> None:
        self.decomposition = decomposition
        self.fill = fill
        self.halo = models[0].input_halo
        self.plans = [InferencePlan(model) for model in models]
        self.layer_plans = [layer_plans(model) for model in models]

    def rollout(self, initial: np.ndarray, steps: int, layered: bool):
        """``(trajectory, entry, return)``; with ``layered`` every step
        runs the single-layer plans in sequence instead of the whole plan."""
        decomposition, halo, fill = self.decomposition, self.halo, self.fill
        plans, per_layer = self.plans, self.layer_plans

        def program(comm):
            mark("bench.rank_start")
            rank = comm.rank
            start = clock()
            local = decomposition.extract(initial, rank)
            trace.record("bench.domain.extract", CAT, start)
            exchanger = HaloExchanger(comm, decomposition, halo, fill)
            trajectory = [local]
            for _ in range(steps):
                start = clock()
                net_input = exchanger.exchange(local)
                trace.record("bench.domain.halo", CAT, start)
                if layered:
                    h = net_input[None]
                    for index, plan in enumerate(per_layer[rank], 1):
                        start = clock()
                        h = plan.run(h)
                        trace.record(f"bench.core.plan.conv{index}", CAT, start)
                    local = h[0]
                else:
                    start = clock()
                    local = plans[rank].run(net_input[None])[0]
                    trace.record("bench.core.plan_run", CAT, start)
                trajectory.append(local)
            mark("bench.rank_end")
            return np.stack(trajectory)

        entry = clock()
        pieces = mpi.run_parallel(program, decomposition.num_subdomains, backend=EXECUTION)
        trajectory = decomposition.assemble(pieces)
        return trajectory, entry, clock()


def rollout_op_layers(spans, entry: float, ret: float) -> dict:
    """Per-step layer times and the launch/collect split of one replica call."""
    timelines = {}
    steps: dict = {}
    for rank, items in by_rank(spans).items():
        start, end = first(items, "bench.rank_start"), first(items, "bench.rank_end")
        if start is None or end is None:
            continue
        ours = [s for s in items if s.name.startswith("bench.") and s.dur > 0]
        timelines[rank] = (start.ts, end.ts, sum(s.dur for s in ours))
        per_name: dict = {}
        for span in ours:
            per_name.setdefault(span.name, []).append(span.dur)
        steps[rank] = per_name
    out = _split(timelines, trace.wall_time(entry), trace.wall_time(ret))
    out["steps"] = steps
    out["comm_wait"] = comm_wait(spans)
    return out


def rollout_metrics(ops: list[dict]) -> dict:
    """Aggregate replica calls: per-rank medians, then the slowest rank."""
    per_rank: dict = {}
    for op in ops:
        for rank, per_name in op.get("steps", {}).items():
            bucket = per_rank.setdefault(rank, {})
            for name, durations in per_name.items():
                bucket.setdefault(name, []).extend(durations)

    def worst(name: str) -> float:
        values = [median(b[name]) for b in per_rank.values() if b.get(name)]
        return max(values) * 1e3 if values else 0.0

    metrics = {
        "core.plan_run_ms_p50": worst("bench.core.plan_run"),
        "domain.halo_exchange_ms_p50": worst("bench.domain.halo"),
        "domain.extract_ms_p50": worst("bench.domain.extract"),
    }
    layer_sum = 0.0
    for index in range(1, 5):
        value = worst(f"bench.core.plan.conv{index}")
        metrics[f"core.plan.conv{index}_ms"] = value
        layer_sum += value
    if metrics["core.plan_run_ms_p50"] > 0:
        metrics["core.plan.layer_sum_ratio"] = layer_sum / metrics["core.plan_run_ms_p50"]
    compute = [
        median(b["bench.core.plan_run"])
        for b in per_rank.values()
        if b.get("bench.core.plan_run")
    ]
    if compute and min(compute) > 0:
        metrics["core.rank_step_imbalance"] = max(compute) / min(compute)
    return metrics


# ======================================================================
# Parareal
# ======================================================================
class TimedSimulation:
    """Fine-propagator proxy: times every ``advance_array`` call."""

    def __init__(self, simulation) -> None:
        self._simulation = simulation

    def __getattr__(self, name):
        return getattr(self._simulation, name)

    def advance_array(self, state, n_steps):
        start = clock()
        out = self._simulation.advance_array(state, n_steps)
        trace.record("bench.solver.fine", CAT, start, steps=n_steps)
        return out


class TimedCoarse(CoarseOperator):
    """Coarse-propagator proxy: marks the rank program's start (the
    driver spawns the per-rank operator first thing) and times every
    coarse application."""

    def __init__(self, inner: CoarseOperator) -> None:
        self.inner = inner

    def spawn(self) -> "TimedCoarse":
        mark("bench.rank_start")
        start = clock()
        spawned = TimedCoarse(self.inner.spawn())
        trace.record("bench.core.coarse_spawn", CAT, start)
        return spawned

    def advance(self, state, num_steps):
        start = clock()
        out = self.inner.advance(state, num_steps)
        trace.record("bench.core.coarse", CAT, start, steps=num_steps)
        return out


def parareal_op_layers(spans, entry: float, ret: float) -> dict:
    timelines = {}
    out = {"fine_s": 0.0, "fine_steps": 0, "coarse_s": 0.0, "coarse_steps": 0}
    for rank, items in by_rank(spans).items():
        start = first(items, "bench.rank_start")
        if start is None:
            continue
        end = max(s.end for s in items)
        fine = [s for s in items if s.name == "bench.solver.fine"]
        coarse = [s for s in items if s.name == "bench.core.coarse"]
        out["fine_s"] += sum(s.dur for s in fine)
        out["fine_steps"] += sum(s.args["steps"] for s in fine)
        out["coarse_s"] += sum(s.dur for s in coarse)
        out["coarse_steps"] += sum(s.args["steps"] for s in coarse)
        # Waiting counts as covered only where a communication span shows it.
        covered = union_length(
            (s.ts, s.end)
            for s in items
            if s.dur > 0
            and (
                s.cat in ("comm", "comm.collective")
                or s.name.startswith(("bench.", "parareal.correct"))
            )
        )
        timelines[rank] = (start.ts, end, covered)
    out.update(_split(timelines, trace.wall_time(entry), trace.wall_time(ret)))
    out["comm_wait"] = comm_wait(spans)
    return out


# ======================================================================
# Computed work
# ======================================================================
def conv_work(model, input_shape: tuple[int, int, int, int]) -> list[dict]:
    """Computed FLOPs and compulsory bytes of each conv layer, forward
    and backward, for an input batch of ``input_shape``.

    Backward computes the weight gradient on every layer and the input
    gradient on all but the first (the data needs none).  Bytes count
    each operand and result once: a lower bound on memory traffic.
    """
    n, c, h, w = input_shape
    work = []
    for index, conv in enumerate(conv_layers(model)):
        oh, ow = conv.output_shape(h, w)
        k = conv.kernel_size
        f = conv.out_channels
        itemsize = conv.weight.data.itemsize
        flops = 2 * n * f * oh * ow * c * k * k
        x, y, weights = n * c * h * w, n * f * oh * ow, f * c * k * k
        input_grad = index > 0
        work.append(
            {
                "fwd_flops": flops,
                "bwd_flops": flops * (2 if input_grad else 1),
                "fwd_bytes": itemsize * (x + weights + y),
                "bwd_bytes": itemsize * (y + x + 2 * weights + (x if input_grad else 0)),
            }
        )
        c, h, w = f, oh, ow
    return work


def gemm_ceiling_gflops(n: int = 512, repeats: int = 15) -> float:
    """Achieved GFLOP/s of a square float64 GEMM on this process's BLAS
    threads (one, under the benchmark's settings)."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    out = np.empty((n, n))
    np.matmul(a, b, out=out)
    times = []
    for _ in range(repeats):
        start = clock()
        np.matmul(a, b, out=out)
        times.append(clock() - start)
    return 2.0 * n**3 / median(times) / 1e9
