"""End-to-end benchmark of domain-decomposed training, halo-exchange
rollout and Parareal.

Run from the repository root::

    python3 e2ebench/run.py --workload rollout-euler-32 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is a separate run that produces the per-layer metrics: it
alternates untraced operations with traced ones, derives the layer split
from the traced ones, and reports the tracing overhead and the share of
wall time no layer span covers.  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the environment and run details.

``--out FILE`` also writes the full record, and ``--compare A B``
compares two such records -- or refuses to, naming the differences,
when they were taken in different environments.
"""

from __future__ import annotations

import os
import sys
import time

_PROCESS_START = time.perf_counter()

# One BLAS thread per rank: two ranks on two cores, never oversubscribed.
# Set before NumPy is first imported, and inherited by every rank process.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import envinfo  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402
from repro.domain import BlockDecomposition  # noqa: E402
from repro.obs import trace  # noqa: E402
from repro.solver.parareal import PararealDriver  # noqa: E402
from workloads import EXECUTION, OpResult  # noqa: E402

clock = trace.clock

#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any rank process it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ranks = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, ranks) / 1024.0


def run_ops(step, seconds: float, min_ops: int = 1) -> list[OpResult]:
    """Call ``step(index)`` until ``seconds`` have passed and at least
    ``min_ops`` calls were made."""
    results: list[OpResult] = []
    deadline = clock() + seconds
    while len(results) < min_ops or clock() < deadline:
        results.append(step(len(results)))
    return results


def mean_error(results: list[OpResult]) -> float:
    errors = [r.error for r in results if r.problem is None and math.isfinite(r.error)]
    return float(np.mean(errors)) if errors else 0.0


# ======================================================================
# Untraced run: the end-to-end metrics
# ======================================================================
def run_untraced(
    workload, seed: int, seconds: float, faults: dict | None = None, min_ops: int = 1
):
    """End-to-end metrics; ``faults`` maps operation index -> planted fault."""
    faults = faults or {}
    import_s = clock() - _PROCESS_START
    setups = []
    prep = None
    for _ in range(SETUP_REPEATS):
        prep = None  # release the previous set-up before building the next
        start = clock()
        prep = workload.setup(seed)
        setups.append(clock() - start)

    def step(index: int) -> OpResult:
        result = workload.op(prep, index, fault=faults.get(index))
        result.output = None  # held outputs would grow every later fork
        return result

    cpu_before = envinfo.cpu_times()
    results = run_ops(step, seconds, min_ops)
    steal = envinfo.steal_share(cpu_before, envinfo.cpu_times())
    latencies = [r.latency_s * 1e3 for r in results]
    failed = sum(r.problem is not None for r in results)
    # Machine speed right after the timed loop, to tell a slow host
    # phase from a slow program when runs disagree.
    calibration = probes.gemm_ceiling_gflops()
    metrics = {
        "setup_s": import_s + float(np.median(setups)),
        "call_ms_p50": percentile(latencies, 50),
        "call_ms_p90": percentile(latencies, 90),
        "peak_rss_mb": peak_rss_mb(),
        "ok_share": (len(results) - failed) / len(results),
    }
    detail = {
        "output_error": mean_error(results),
        "import_s": import_s,
        "setup_s_each": setups,
        "setup_phases_s": prep.phases,
        "operations": len(results),
        "latencies_ms": [round(x, 3) for x in latencies],
        "gemm_gflops_after": calibration,
        "cpu_steal_share": steal,
    }
    if "reference_s" in prep.state:
        detail["serial_fine_s"] = prep.state["reference_s"]
    return results, metrics, detail


# ======================================================================
# Traced run: the per-layer metrics
# ======================================================================
def traced(fn):
    """Run ``fn()`` with tracing on; returns ``(value, spans)``."""
    trace.reset()
    trace.enable()
    try:
        value = fn()
    finally:
        trace.disable()
    spans = trace.spans()
    trace.reset()
    return value, spans


def same_training(a, b) -> bool:
    for left, right in zip(a.rank_results, b.rank_results):
        if left.history.epoch_losses != right.history.epoch_losses:
            return False
        for key, value in left.state_dict.items():
            if not np.array_equal(value, right.state_dict[key]):
                return False
    return True


def traced_train(workload, prep, index: int, plain: OpResult) -> OpResult:
    trainer = workload.trainer(prep.state["seed"], callback_factory=probes.engine_callbacks)
    dataset = probes.MarkedDataset(prep.state["snapshots"])

    def call():
        entry = clock()
        result = trainer.train(dataset, execution=EXECUTION)
        return result, entry, clock()

    (result, entry, ret), spans = traced(call)
    problem, error = workload.check(prep, result)
    if problem is None and plain.problem is None and not same_training(result, plain.output):
        problem = "traced training differs from the untraced call"
    info = probes.train_op_layers(spans, entry, ret)
    info["batches"] = probes.batch_records(spans)
    info["rank_fit"] = [r.train_time for r in result.rank_results]
    return OpResult(ret - entry, problem, error, output=result, info=info)


def traced_rollout(rollouts, index: int, plain: OpResult) -> OpResult:
    slot, start_state = rollouts.start_state(index)
    layered = index % 2 == 1
    (trajectory, entry, ret), spans = traced(
        lambda: rollouts.replica.rollout(start_state, rollouts.steps, layered)
    )
    problem, error = rollouts.check(slot, trajectory)
    if (
        problem is None
        and plain.problem is None
        and not np.array_equal(trajectory, plain.output)
    ):
        problem = "replica trajectory differs from ParallelPredictor.rollout"
    info = probes.rollout_op_layers(spans, entry, ret)
    info["layered"] = layered
    return OpResult(ret - entry, problem, error, output=trajectory, info=info)


def traced_parareal(workload, prep, index: int, plain: OpResult) -> OpResult:
    state = prep.state
    driver = PararealDriver(
        probes.TimedSimulation(state["simulation"]),
        probes.TimedCoarse(state["coarse"]),
        state["config"],
    )
    (result, entry, latency), spans = traced(lambda: workload.solve(prep, driver))
    problem, error = workload.check(prep, result)
    if (
        problem is None
        and plain.problem is None
        and not np.array_equal(result.states, plain.output.states)
    ):
        problem = "traced solve differs from the untraced one"
    info = probes.parareal_op_layers(spans, entry, entry + latency)
    return OpResult(latency, problem, error, output=result, info=info)


TRACED_OPS = {
    workloads.TrainEuler: traced_train,
    workloads.RolloutEuler: lambda workload, prep, index, plain: traced_rollout(
        prep.state["rollouts"], index, plain
    ),
    workloads.PararealAllenCahn: traced_parareal,
}

#: Rollout calls (untraced, traced) made to measure the rollout layers on
#: workloads that time no rollout.
PROBE_CALLS = 4


@dataclass
class RolloutSample:
    """The rollout calls whose traced halves give the rollout layers."""

    rollouts: workloads.Rollouts
    phases: dict
    plain: list
    traced: list


def probe_rollouts(workload, prep, first: OpResult) -> RolloutSample:
    """Roll out the workload's own trained subdomain models.

    Training and Parareal time no rollout; a few calls of their models
    (the trained ranks' networks, the coarse ensemble) measure the
    rollout layers on these workloads too.  They run after the timed
    calls, so they do not disturb them.
    """
    if isinstance(workload, workloads.TrainEuler):
        models = first.output.build_models()
        decomposition = BlockDecomposition((workload.grid, workload.grid), workloads.PGRID)
    else:
        coarse = prep.state["coarse"]
        models, decomposition = coarse.models, coarse.decomposition
    phases: dict = {}
    pool = workloads.windows(prep.state["snapshots"], starts=2, steps=2)
    rollouts = workloads.Rollouts(models, decomposition, pool, 2, phases)
    rollouts.replica = probes.RolloutReplica(models, decomposition)
    sample = RolloutSample(rollouts, phases, [], [])
    for index in range(PROBE_CALLS):
        sample.plain.append(rollouts.op(index))
        sample.traced.append(traced_rollout(rollouts, index, sample.plain[-1]))
    return sample


def run_traced(
    workload, seed: int, seconds: float, faults: dict | None = None, min_ops: int = 2
):
    """Per-layer metrics; ``faults`` maps untraced-call index -> planted fault."""
    faults = faults or {}
    prep, setup_spans = traced(
        lambda: workload.setup(seed, callback_factory=probes.engine_callbacks)
    )
    rollouts = prep.state.get("rollouts")
    if rollouts is not None:
        rollouts.replica = probes.RolloutReplica(rollouts.models, rollouts.decomposition)
    traced_op = TRACED_OPS[type(workload)]
    plain_ops: list[OpResult] = []
    traced_ops: list[OpResult] = []

    def step(index: int) -> OpResult:
        # Alternate untraced and traced calls on the same input so drift
        # cancels out of the overhead ratio.
        if index % 2 == 0:
            plain_ops.append(workload.op(prep, index // 2, fault=faults.get(index // 2)))
            return plain_ops[-1]
        traced_ops.append(traced_op(workload, prep, index // 2, plain_ops[-1]))
        # Held outputs would grow every later fork; keep the first for its counts.
        if len(plain_ops) > 1:
            plain_ops[-1].output = None
        traced_ops[-1].output = None
        return traced_ops[-1]

    results = run_ops(step, seconds, min_ops)
    if len(results) % 2:  # end on a complete pair
        results.append(step(len(results)))
    if rollouts is not None:
        sample = RolloutSample(rollouts, prep.phases, plain_ops, traced_ops)
    else:
        sample = probe_rollouts(workload, prep, plain_ops[0])
        results += sample.plain + sample.traced
    metrics = layer_metrics(workload, prep, setup_spans, plain_ops, traced_ops, sample)
    return results, metrics, {"operations": len(results), "traced_operations": len(traced_ops)}


def layer_metrics(workload, prep, setup_spans, plain_ops, traced_ops, sample) -> dict:
    phases = prep.phases
    infos = [op.info for op in traced_ops]
    rollouts = sample.rollouts
    metrics = {
        "data.generate_s": phases["generate"],
        "core.setup_train_s": phases.get("train", 0.0),
        "core.plan_compile_ms": sample.phases["compile"] * 1e3,
        "solver.fine_ms_per_step": phases["generate"] / prep.solver_steps * 1e3,
        "solver.fine_steps": prep.solver_steps,
        "core.coarse_ms_per_step": sample.phases["reference"]
        / rollouts.coarse_applications
        * 1e3,
        "core.coarse_steps": rollouts.coarse_applications,
        "tensor.gemm_ceiling_gflops": probes.gemm_ceiling_gflops(),
        "bench.output_error": mean_error(plain_ops),
    }
    for key, name in (
        ("launch", "mpi.launch_ms"),
        ("collect", "mpi.collect_ms"),
        ("comm_wait", "mpi.comm_wait_ms"),
    ):
        values = [info[key] for info in infos if key in info]
        if values:
            metrics[name] = probes.median(values) * 1e3
    metrics["bench.unattributed_share"] = probes.median(
        info["unattributed"] for info in infos if "unattributed" in info
    )
    # Overhead: traced calls against the untraced calls they alternate
    # with.  Layered replica calls run extra copies between the
    # single-layer plans, so only whole-plan calls enter the ratio.
    comparable = [op for op in traced_ops if not op.info.get("layered")]
    metrics["obs.tracing_overhead"] = (
        probes.median(op.latency_s for op in comparable)
        / probes.median(op.latency_s for op in plain_ops)
        - 1.0
    )

    if isinstance(workload, workloads.TrainEuler):
        batches = [info["batches"] for info in infos]
        fit_times = [info["rank_fit"] for info in infos]
    else:  # the engine figures describe the set-up training
        batches = [probes.batch_records(setup_spans)]
        fit_times = [[r.train_time for r in prep.state["train_result"].rank_results]]
    metrics.update(probes.engine_metrics(batches, fit_times))

    metrics.update(probes.rollout_metrics([op.info for op in sample.traced]))
    first = sample.plain[0].info
    metrics["domain.halo_bytes_per_step"] = first["bytes"] / rollouts.steps
    metrics["domain.halo_messages_per_step"] = first["messages"] / rollouts.steps

    if isinstance(workload, workloads.PararealAllenCahn):
        result = plain_ops[0].output
        fine_steps = sum(info["fine_steps"] for info in infos)
        coarse_steps = sum(info["coarse_steps"] for info in infos)
        metrics.update(
            {
                "solver.fine_ms_per_step": sum(i["fine_s"] for i in infos) / fine_steps * 1e3,
                "core.coarse_ms_per_step": sum(i["coarse_s"] for i in infos)
                / coarse_steps
                * 1e3,
                "solver.fine_steps": result.fine_steps_applied,
                "core.coarse_steps": result.coarse_steps_applied,
                "core.parareal_sweeps": result.iterations,
            }
        )

    # Computed work per conv layer, and the rate achieved on the timed
    # forward (grad-mode layers in training, single-layer plans otherwise).
    model, shape = workload.network(prep)
    timed = (
        "nn.conv{}.forward_ms_p50"
        if isinstance(workload, workloads.TrainEuler)
        else "core.plan.conv{}_ms"
    )
    for index, work in enumerate(probes.conv_work(model, shape), 1):
        for key, value in work.items():
            metrics[f"tensor.conv{index}.{key}"] = value
        seconds = metrics.get(timed.format(index), 0.0) / 1e3
        metrics[f"tensor.conv{index}.gflops"] = (
            work["fwd_flops"] / seconds / 1e9 if seconds > 0 else 0.0
        )
    return metrics


# ======================================================================
# Output
# ======================================================================
def final_metrics(spec_metrics: list[dict], values: dict, fill_missing: bool) -> dict:
    out = {}
    for metric in spec_metrics:
        name = metric["name"]
        if name not in values:
            if not fill_missing:
                raise KeyError(f"metric {name!r} was not measured")
            value = 0.0  # the layer is not on this workload's path
        else:
            value = float(values[name])
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def run(args) -> dict:
    spec = benchmark_spec()
    workload = workloads.build(args.workload)
    runner = run_traced if args.trace else run_untraced
    results, values, detail = runner(workload, args.seed, args.seconds)
    failures = [r.problem for r in results if r.problem is not None]
    key = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": final_metrics(spec[key], values, fill_missing=bool(args.trace)),
    }
    detail.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "failures": failures[:10],
            "env": envinfo.record(ROOT),
        }
    )
    return {"detail": detail, "result": result}


def compare(first_path: str, second_path: str) -> int:
    records = []
    for path in (first_path, second_path):
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    first, second = records
    problems = envinfo.differences(first["detail"]["env"], second["detail"]["env"])
    for key in ("workload", "trace"):
        if first["detail"][key] != second["detail"][key]:
            problems.append(f"{key}: {first['detail'][key]!r} != {second['detail'][key]!r}")
    if problems:
        print("not comparable, the results were taken under different conditions:")
        for problem in problems:
            print(f"  {problem}")
        return 3
    print(f"{'metric':40s} {'first':>14s} {'second':>14s} {'second/first':>13s}")
    for name, entry in first["result"]["metrics"].items():
        a = entry["value"]
        b = second["result"]["metrics"].get(name, {}).get("value", float("nan"))
        ratio = f"{b / a:13.3f}" if a else f"{'-':>13s}"
        print(f"{name:40s} {a:14.6g} {b:14.6g} {ratio} {entry['unit']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record to this file")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    record = run(args)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    print(json.dumps(record["detail"], default=str))
    print(json.dumps(record["result"], allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
