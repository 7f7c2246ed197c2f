"""The benchmark's four workloads: set-up, one timed operation, output checks.

Every workload runs 2 ranks on the ``processes`` backend (a 1x2 process
grid, one rank per core) and calls the program through its public APIs
only: ``ParallelTrainer.train``, ``ParallelPredictor.rollout`` and
``PararealDriver.solve``.  All inputs -- snapshots, start states and
model weights -- derive from the workload seed.

An *operation* is one train call, one rollout call or one solve.  Each
returns an :class:`OpResult` whose ``problem`` is ``None`` when every
output check passed; a failed check makes the operation count as
failed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core import (
    CNNConfig,
    ParallelPredictor,
    ParallelTrainer,
    SubdomainCNN,
    TrainingConfig,
)
from repro.data import SnapshotDataset
from repro.domain import BlockDecomposition
from repro.obs import trace
from repro.scenarios import (
    build_grid,
    build_simulation,
    cnn_config,
    get_scenario,
    parareal_config,
    simulate,
)
from repro.solver.parareal import EnsembleCoarseOperator, PararealDriver, serial_fine

RANKS = 2
PGRID = (1, 2)
EXECUTION = "processes"

clock = trace.clock

#: Largest magnitude a valid field may reach.  Briefly trained models
#: can amplify a field over a rollout; far below overflow, the kernels
#: still run at their normal speed.
MAX_MAGNITUDE = 1e100

#: With two slices Parareal is exact after two sweeps, so the converged
#: states must match serial fine stepping to rounding.
PARAREAL_REL_L2_BOUND = 1e-9


@dataclass
class OpResult:
    """One timed operation."""

    latency_s: float
    #: ``None`` when every output check passed, else what failed
    problem: str | None
    #: the workload's quality figure for this operation
    error: float
    #: the raw output, kept for bit-for-bit comparison with a traced replica
    output: Any = None
    #: workload-specific extras (rank times, halo counts, ...)
    info: dict = field(default_factory=dict)


@dataclass
class Prepared:
    """What a workload's set-up produced."""

    #: set-up phase -> seconds (``generate``, ``train``, ``compile``, ``warmup``)
    phases: dict
    #: solver steps taken while generating data
    solver_steps: int
    state: dict


def state_problem(array: np.ndarray) -> str | None:
    """Why ``array`` is not a valid field, or ``None``.

    Non-finite values fail, and so do subnormal ones and ones growing
    towards overflow: both silently change kernel speed, so a timing
    taken on them would mislead.
    """
    values = np.asarray(array)
    if not np.all(np.isfinite(values)):
        return "non-finite values"
    magnitude = np.abs(values)
    if np.any((magnitude > 0) & (magnitude < np.finfo(values.dtype).tiny)):
        return "subnormal values"
    if magnitude.max(initial=0.0) > MAX_MAGNITUDE:
        return f"values above {MAX_MAGNITUDE:g}"
    return None


def relative_l2(prediction: np.ndarray, reference: np.ndarray) -> float:
    return float(np.linalg.norm(prediction - reference) / np.linalg.norm(reference))


def digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def stepwise(operator, start: np.ndarray, steps: int) -> np.ndarray:
    """``(steps + 1, C, H, W)`` trajectory of a coarse operator applied
    one step at a time."""
    states = [start]
    for _ in range(steps):
        states.append(operator.advance(states[-1], 1))
    return np.stack(states)


def euler_trajectory(rng: np.random.Generator, grid_size: int, count: int) -> np.ndarray:
    """``count`` snapshots of the euler-gaussian pulse, its centre drawn
    from ``rng`` so each seed gets its own trajectory."""
    centre = [float(c) for c in rng.uniform(-0.2, 0.2, size=2)]
    spec = get_scenario("euler-gaussian").replace(
        initial_condition="gaussian_pulse",
        ic_params={"center": centre, "half_width": 0.3},
    )
    return simulate(spec, grid_size=grid_size, num_snapshots=count).snapshots


def network_input(model, decomposition: BlockDecomposition, batch: int) -> tuple:
    """Shape of one rank's network input batch: the rank-0 block plus
    the model's input halo on every side."""
    h, w = decomposition.subdomain(0).shape
    halo = model.input_halo
    return (batch, model.config.channels[0], h + 2 * halo, w + 2 * halo)


def _timed(phases: dict, name: str, fn: Callable[[], Any]) -> Any:
    start = clock()
    result = fn()
    phases[name] = phases.get(name, 0.0) + clock() - start
    return result


# ======================================================================
# train-euler
# ======================================================================
class TrainEuler:
    """Per-rank training on euler-gaussian snapshots (the Fig. 4 quantity)."""

    name = "train-euler"

    def __init__(self, smoke: bool = False) -> None:
        self.grid = 32 if smoke else 96
        self.snapshots = 5 if smoke else 9
        self.batch = 2 if smoke else 8
        self.epochs = 2

    def trainer(self, seed: int, callback_factory=None) -> ParallelTrainer:
        return ParallelTrainer(
            CNNConfig(),
            TrainingConfig(epochs=self.epochs, batch_size=self.batch, loss="mape", seed=seed),
            num_ranks=RANKS,
            pgrid=PGRID,
            seed=seed,
            callback_factory=callback_factory,
        )

    def setup(self, seed: int, callback_factory=None) -> Prepared:
        phases: dict = {}
        rng = np.random.default_rng(seed)
        snaps = _timed(
            phases, "generate", lambda: euler_trajectory(rng, self.grid, self.snapshots)
        )
        trainer = self.trainer(seed)
        # Warm-up: one small training call through the same code path.
        _timed(
            phases,
            "train",
            lambda: trainer.train(SnapshotDataset(snaps[:3]), execution=EXECUTION),
        )
        state = {"snapshots": snaps, "trainer": trainer, "seed": seed, "reference": None}
        return Prepared(phases, self.snapshots - 1, state)

    def network(self, prep: Prepared) -> tuple:
        """(a rank's model, the input shape of one training batch)."""
        model = SubdomainCNN(CNNConfig(), rng=np.random.default_rng(0))  # shapes only
        decomposition = BlockDecomposition((self.grid, self.grid), PGRID)
        return model, network_input(model, decomposition, self.batch)

    def check(self, prep: Prepared, result) -> tuple[str | None, float]:
        losses = np.array(result.final_losses)
        error = float(np.mean(losses)) / 100.0  # MAPE percent -> ratio
        if not np.all(np.isfinite(losses)):
            return "non-finite loss", error
        # Training is seed-deterministic: every call must reproduce the
        # first call's losses exactly.
        reference = prep.state["reference"]
        if reference is None:
            prep.state["reference"] = losses
        elif not np.array_equal(losses, reference):
            return f"losses {losses} differ from the first call's {reference}", error
        return None, error

    def op(self, prep: Prepared, index: int, fault: str | None = None) -> OpResult:
        dataset = SnapshotDataset(prep.state["snapshots"])
        start = clock()
        result = prep.state["trainer"].train(dataset, execution=EXECUTION)
        latency = clock() - start
        problem, error = self.check(prep, result)
        return OpResult(latency, problem, error, output=result)


# ======================================================================
# rollout-euler-256 / rollout-euler-32
# ======================================================================
class Rollouts:
    """Rollout calls of trained subdomain models, each from a fresh
    solver snapshot.

    Every start state in the pool gets a reference trajectory in
    set-up, computed independently of the rollout under test: the same
    models stepped by ``EnsembleCoarseOperator``, which cuts each rank's
    halo straight from the global field instead of exchanging it.  A
    rollout must match its reference bit for bit.
    """

    def __init__(self, models, decomposition, pool: list, steps: int, phases: dict) -> None:
        self.models = models
        self.decomposition = decomposition
        #: solver windows ``(steps + 1, C, H, W)``; element 0 starts a call
        self.pool = pool
        self.steps = steps
        self.predictor = _timed(
            phases, "compile", lambda: ParallelPredictor(models, decomposition)
        )
        ensemble = EnsembleCoarseOperator(models, decomposition)
        self.references = _timed(
            phases,
            "reference",
            lambda: [stepwise(ensemble, window[0], steps) for window in pool],
        )
        #: ``EnsembleCoarseOperator`` applications the references took
        self.coarse_applications = len(pool) * steps

    def network(self) -> tuple:
        """(a rank's model, the input shape of one rollout step)."""
        return self.models[0], network_input(self.models[0], self.decomposition, 1)

    def start_state(self, index: int) -> tuple[int, np.ndarray]:
        """(pool slot, start snapshot) of call ``index``."""
        slot = index % len(self.pool)
        return slot, self.pool[slot][0]

    def check(self, slot: int, trajectory: np.ndarray) -> tuple[str | None, float]:
        problem = state_problem(trajectory)
        error = float("nan")
        if problem is None:
            error = relative_l2(trajectory[1:], self.pool[slot][1:])
            if not np.array_equal(trajectory, self.references[slot]):
                problem = "trajectory differs from the independent reference"
        return problem, error

    def op(self, index: int, fault: str | None = None) -> OpResult:
        slot, start_state = self.start_state(index)
        if fault == "subnormal_input":
            start_state = start_state * 1e-310
        start = clock()
        result = self.predictor.rollout(start_state, self.steps, execution=EXECUTION)
        latency = clock() - start
        trajectory = result.trajectory
        if fault == "wrong_result":
            trajectory = trajectory.copy()
            trajectory[-1, 0, 0, 0] += 1e-6
        problem, error = self.check(slot, trajectory)
        return OpResult(
            latency,
            problem,
            error,
            output=trajectory,
            info={"bytes": result.bytes_sent, "messages": result.messages_sent},
        )


def windows(snapshots: np.ndarray, starts: int, steps: int) -> list[np.ndarray]:
    """The first ``starts`` solver windows of ``steps + 1`` snapshots."""
    return [snapshots[offset : offset + steps + 1] for offset in range(starts)]


class RolloutEuler:
    """Short halo-exchange rollouts on euler-gaussian fields."""

    def __init__(
        self,
        name: str,
        grid: int,
        steps: int,
        trajectories: int,
        starts: int,
        train_crop: int | None,
        epochs: int,
        smoke: bool = False,
    ) -> None:
        self.name = name
        self.grid = grid
        self.steps = steps
        self.trajectories = trajectories
        self.starts = starts  # start offsets per trajectory
        self.train_crop = train_crop
        self.train_snapshots = 17
        self.epochs = epochs
        if smoke:
            self.grid, self.steps, self.trajectories, self.starts = 32, 2, 1, 3
            self.train_crop, self.train_snapshots, self.epochs = None, 5, 1

    def setup(self, seed: int, callback_factory=None) -> Prepared:
        phases: dict = {}
        rng = np.random.default_rng(seed)
        length = max(self.train_snapshots, self.starts + self.steps)
        trajectories = _timed(
            phases,
            "generate",
            lambda: [
                euler_trajectory(rng, self.grid, length) for _ in range(self.trajectories)
            ],
        )
        # Train on the first trajectory.  At the paper's grid the models
        # train on a central crop: the step map is local, so a crop at the
        # same resolution teaches the same map at a fraction of the cost.
        train = trajectories[0][: self.train_snapshots]
        if self.train_crop is not None:
            lo = (self.grid - self.train_crop) // 2
            train = train[..., lo : lo + self.train_crop, lo : lo + self.train_crop]
        trainer = ParallelTrainer(
            CNNConfig(),
            TrainingConfig(epochs=self.epochs, batch_size=4, loss="mse", seed=seed),
            num_ranks=RANKS,
            pgrid=PGRID,
            seed=seed,
            callback_factory=callback_factory,
        )
        trained = _timed(
            phases,
            "train",
            lambda: trainer.train(
                SnapshotDataset(np.ascontiguousarray(train)), execution=EXECUTION
            ),
        )
        # Interleave the trajectories so consecutive calls start far apart.
        per_trajectory = [windows(snaps, self.starts, self.steps) for snaps in trajectories]
        pool = [window for group in zip(*per_trajectory) for window in group]
        decomposition = BlockDecomposition((self.grid, self.grid), PGRID)
        rollouts = Rollouts(trained.build_models(), decomposition, pool, self.steps, phases)
        _timed(phases, "warmup", lambda: rollouts.op(0))
        state = {"rollouts": rollouts, "train_result": trained}
        return Prepared(phases, self.trajectories * (length - 1), state)

    def network(self, prep: Prepared) -> tuple:
        return prep.state["rollouts"].network()

    def op(self, prep: Prepared, index: int, fault: str | None = None) -> OpResult:
        return prep.state["rollouts"].op(index, fault)


def rollout_256(smoke: bool = False) -> RolloutEuler:
    return RolloutEuler(
        "rollout-euler-256", grid=256, steps=2, trajectories=1, starts=3, train_crop=64,
        epochs=1, smoke=smoke,
    )


def rollout_32(smoke: bool = False) -> RolloutEuler:
    return RolloutEuler(
        "rollout-euler-32", grid=32, steps=20, trajectories=4, starts=2, train_crop=None,
        epochs=3, smoke=smoke,
    )


# ======================================================================
# parareal-allen-cahn
# ======================================================================
class PararealAllenCahn:
    """Two-slice Parareal: FD fine propagator, CNN ensemble coarse one."""

    name = "parareal-allen-cahn"

    def __init__(self, smoke: bool = False) -> None:
        self.grid = 32 if smoke else 64
        #: fine solver steps spanned by one coarse application
        self.fine_per_coarse = 100 if smoke else 1000
        self.coarse_steps = 2
        self.snapshots = 4 if smoke else 8
        self.epochs = 1 if smoke else 5

    def setup(self, seed: int, callback_factory=None) -> Prepared:
        phases: dict = {}
        spec = get_scenario("allen-cahn")
        simulation = build_simulation(spec, build_grid(spec, self.grid))
        snaps = _timed(
            phases,
            "generate",
            lambda: simulate(
                spec,
                grid_size=self.grid,
                num_snapshots=self.snapshots,
                steps_per_snapshot=self.fine_per_coarse,
                seed=seed,
            ).snapshots,
        )
        trainer = ParallelTrainer(
            cnn_config(spec, channels=(1, 4, 8, 4, 1)),
            TrainingConfig(epochs=self.epochs, batch_size=4, loss="mse", seed=seed),
            num_ranks=RANKS,
            pgrid=PGRID,
            seed=seed,
            callback_factory=callback_factory,
        )
        trained = _timed(
            phases,
            "train",
            lambda: trainer.train(SnapshotDataset(snaps), execution=EXECUTION),
        )
        decomposition = BlockDecomposition((self.grid, self.grid), PGRID)
        coarse = _timed(
            phases,
            "compile",
            lambda: EnsembleCoarseOperator(trained.build_models(), decomposition),
        )
        # A tolerance far below the coarse model's error: the iteration
        # runs to its two-slice exactness bound, a fixed amount of work.
        config = parareal_config(
            spec,
            slices=RANKS,
            coarse_steps=self.coarse_steps,
            fine_steps_per_coarse=self.fine_per_coarse,
            tolerance=1e-8,
        )
        start_state = snaps[1]  # the developed phase field
        reference_start = clock()
        reference = serial_fine(simulation, start_state, config)
        reference_s = clock() - reference_start
        state = {
            "simulation": simulation,
            "coarse": coarse,
            "config": config,
            "driver": PararealDriver(simulation, coarse, config),
            "start": start_state,
            "snapshots": snaps,
            "reference": reference,
            "reference_s": reference_s,
            "first": None,
            "train_result": trained,
        }
        prep = Prepared(phases, (self.snapshots - 1) * self.fine_per_coarse, state)
        _timed(phases, "warmup", lambda: self.op(prep, 0))
        prep.state["first"] = None
        return prep

    def network(self, prep: Prepared) -> tuple:
        """(a subdomain's coarse model, the input shape of one application)."""
        coarse = prep.state["coarse"]
        model = coarse.models[0]
        return model, network_input(model, coarse.decomposition, 1)

    def check(self, prep: Prepared, result) -> tuple[str | None, float]:
        states = result.states
        problem = state_problem(states)
        error = float("nan")
        if problem is None:
            error = relative_l2(states, prep.state["reference"])
        if problem is None and not result.converged:
            problem = f"no convergence after {result.iterations} sweeps"
        if problem is None and not error < PARAREAL_REL_L2_BOUND:
            problem = f"relative L2 error {error:.3g} against serial fine"
        if problem is None:
            first = prep.state["first"]
            if first is None:
                prep.state["first"] = digest(states)
            elif first != digest(states):
                problem = "states differ from the first solve"
        return problem, error

    def solve(self, prep: Prepared, driver: PararealDriver | None = None):
        driver = driver if driver is not None else prep.state["driver"]
        start = clock()
        result = driver.solve(prep.state["start"], execution=EXECUTION)
        return result, start, clock() - start

    def op(self, prep: Prepared, index: int, fault: str | None = None) -> OpResult:
        result, start, latency = self.solve(prep)
        problem, error = self.check(prep, result)
        return OpResult(latency, problem, error, output=result)


def build(name: str, smoke: bool = False):
    """The workload called ``name``."""
    factories = {
        "train-euler": TrainEuler,
        "rollout-euler-256": rollout_256,
        "rollout-euler-32": rollout_32,
        "parareal-allen-cahn": PararealAllenCahn,
    }
    if name not in factories:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(factories)}")
    return factories[name](smoke=smoke)


NAMES = ("train-euler", "rollout-euler-256", "rollout-euler-32", "parareal-allen-cahn")
