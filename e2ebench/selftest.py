"""Self-test of the benchmark.

Runs a smoke-sized version of every workload through the same runners
as a real run, untraced and traced, and checks that planted failures --
a wrong-result rollout and a subnormal input state -- are counted as
failed operations.  Exits 0 when every check holds::

    python3 e2ebench/selftest.py
"""

from __future__ import annotations

import math
import sys

import run  # first: pins BLAS threads and puts src/ on the path
import envinfo
import workloads

#: Per-layer metrics each workload's traced smoke run must measure (> 0).
MEASURED = {
    "train-euler": (
        "core.engine.batch_ms_p50",
        "nn.conv2.forward_ms_p50",
        "tensor.backward_ms_p50",
        "mpi.launch_ms",
        "tensor.conv2.gflops",
        "core.plan_run_ms_p50",
    ),
    "rollout-euler-256": (
        "core.plan_run_ms_p50",
        "core.plan.conv2_ms",
        "domain.halo_exchange_ms_p50",
        "domain.halo_bytes_per_step",
        "mpi.launch_ms",
        "mpi.collect_ms",
        "mpi.comm_wait_ms",
        "core.coarse_ms_per_step",
    ),
    "rollout-euler-32": ("core.plan_run_ms_p50", "core.rank_step_imbalance"),
    "parareal-allen-cahn": (
        "solver.fine_ms_per_step",
        "core.coarse_ms_per_step",
        "mpi.comm_wait_ms",
        "core.parareal_sweeps",
        "domain.halo_exchange_ms_p50",
    ),
}

errors: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        errors.append(message)
        print(f"FAIL {message}")


def problems(results) -> list[str]:
    return [r.problem for r in results if r.problem is not None]


def smoke(name: str) -> None:
    before = len(errors)
    workload = workloads.build(name, smoke=True)
    results, metrics, _ = run.run_untraced(workload, seed=0, seconds=0, min_ops=2)
    expect(not problems(results), f"{name}: untraced smoke failed: {problems(results)}")
    for key in ("setup_s", "call_ms_p50", "call_ms_p90", "peak_rss_mb"):
        expect(metrics[key] > 0, f"{name}: {key} = {metrics[key]}")
    expect(metrics["ok_share"] == 1.0, f"{name}: ok_share = {metrics['ok_share']}")

    results, layers, _ = run.run_traced(workload, seed=0, seconds=0, min_ops=4)
    expect(not problems(results), f"{name}: traced smoke failed: {problems(results)}")
    for key in MEASURED[name]:
        expect(layers.get(key, 0) > 0, f"{name}: per-layer {key} = {layers.get(key)}")
    for key, value in layers.items():
        expect(math.isfinite(value), f"{name}: per-layer {key} = {value}")
    if len(errors) == before:
        print(f"ok   {name}: {len(results)} traced-run operations")


def planted() -> None:
    before = len(errors)
    workload = workloads.build("rollout-euler-32", smoke=True)
    faults = {1: "wrong_result", 3: "subnormal_input"}
    results, metrics, _ = run.run_untraced(
        workload, seed=0, seconds=0, faults=faults, min_ops=5
    )
    found = problems(results)
    expect(len(found) == 2, f"planted faults: expected 2 failures, got {found}")
    expect(
        results[1].problem is not None and "reference" in results[1].problem,
        f"wrong-result rollout not caught: {results[1].problem}",
    )
    expect(
        results[3].problem is not None and "subnormal" in results[3].problem,
        f"subnormal input not caught: {results[3].problem}",
    )
    expect(
        metrics["ok_share"] == (len(results) - 2) / len(results),
        f"ok_share {metrics['ok_share']} does not count the planted failures",
    )
    results, _, _ = run.run_traced(workload, seed=0, seconds=0, faults={0: "wrong_result"})
    expect(len(problems(results)) == 1, f"traced run: {problems(results)}")
    if len(errors) == before:
        print(f"ok   planted failures counted: {found}")


def environment() -> None:
    before = len(errors)
    here = envinfo.record(run.ROOT)
    elsewhere = dict(here, cores=(here["cores"] or 0) + 1)
    expect(envinfo.differences(here, here) == [], "an environment differs from itself")
    expect(
        any(d.startswith("cores") for d in envinfo.differences(here, elsewhere)),
        "a different core count was not reported",
    )
    if len(errors) == before:
        print("ok   environment comparison")


def main() -> int:
    for name in workloads.NAMES:
        smoke(name)
    planted()
    environment()
    if errors:
        print(f"{len(errors)} self-test check(s) failed")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
