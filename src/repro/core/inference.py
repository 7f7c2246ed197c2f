"""Parallel inference with point-to-point halo exchange (Sec. III).

Each rank predicts only its own subdomain.  Single-step prediction is
embarrassingly parallel; for multi-step rollout the network input at
step *t+1* needs the neighbour overlap of the *predicted* fields, which
ranks obtain through the fully point-to-point halo exchange — no
central instance, exactly as the paper prescribes.

Rollout is the inference hot loop, so this module also hosts
:class:`InferencePlan`: a per-model compilation of the fixed layer
sequence into raw-ndarray steps whose scratch, GEMM outputs, and
activation masks are all pre-bound to a private
:class:`~repro.tensor.workspace.Workspace`.  After the first (warmup)
step every buffer request hits a warm slot, so each subsequent rollout
step — including the stretches between halo exchanges — runs without
allocating.  Plan outputs are bit-identical to the module-by-module
forward; the equivalence tests pin this per strategy and over seeded
multi-step MPI rollouts on both execution backends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import mpi
from ..domain.decomposition import BlockDecomposition
from ..domain.halo import HaloExchanger
from ..exceptions import ConfigurationError, ShapeError
from ..nn import Conv2d, ConvTranspose2d, LeakyReLU, Module, Sequential
from ..obs import metrics as obs_metrics
from ..obs import trace
from ..tensor import Tensor, no_grad
from ..tensor.blocked import conv2d_forward_blocked, should_block
from ..tensor.im2col import col2im, conv_output_size
from ..tensor.precision import default_dtype
from ..tensor.ops_conv import conv2d_forward
from ..tensor.workspace import Workspace
from .model import SubdomainCNN
from .padding import PaddingStrategy

#: Rollout-loop latency instrument (no-op while metrics are off).
_ROLLOUT_STEP_SECONDS = obs_metrics.histogram("rollout.step_seconds")


@dataclass
class RolloutResult:
    """Predicted trajectory plus communication statistics."""

    #: shape ``(num_steps + 1, C, H, W)`` — element 0 is the initial state
    trajectory: np.ndarray
    #: total point-to-point messages sent across all ranks and steps
    messages_sent: int
    #: total payload volume in bytes
    bytes_sent: int

    @property
    def num_steps(self) -> int:
        return self.trajectory.shape[0] - 1


class _ConvStep:
    """One (possibly activation-fused) convolution of a compiled plan."""

    def __init__(self, index: int, layer: Conv2d, slope: float | None) -> None:
        self.index = index
        self.layer = layer
        self.slope = slope  # fused leaky-ReLU negative slope, or None

    def apply(self, x: np.ndarray, ws: Workspace, owned: bool) -> np.ndarray:
        layer = self.layer
        weight = layer.weight.data  # re-read each run: training may update it
        n, c = x.shape[0], x.shape[1]
        k, s, p = layer.kernel_size, layer.stride, layer.padding
        oh = conv_output_size(x.shape[2], k, s, p)
        ow = conv_output_size(x.shape[3], k, s, p)
        compute = np.result_type(x.dtype, weight.dtype)
        bias = None if layer.bias is None else layer.bias.data
        activation = None if self.slope is None else "leaky_relu"
        slope = self.slope if self.slope is not None else 0.01
        if should_block(n, c, oh, ow, k, k, compute.itemsize):
            # Large shapes: the strip-mined kernel, writing into an
            # arena-owned C-contiguous output (the peephole's shape
            # selection — small shapes keep the bit-pinned path below).
            out_buf = ws.request(
                f"plan.conv{self.index}.out", (n, layer.out_channels, oh, ow), compute
            )
            out, _ = conv2d_forward_blocked(
                x,
                weight,
                bias,
                (s, s),
                (p, p),
                activation=activation,
                negative_slope=slope,
                workspace=ws,
                out=out_buf,
                slot_prefix=f"plan.conv{self.index}",
            )
            return out
        gemm = ws.request(
            f"plan.conv{self.index}.gemm",
            (n * oh * ow, layer.out_channels),
            compute,
        )
        out, _, _, _, _ = conv2d_forward(
            x,
            weight,
            bias,
            (s, s),
            (p, p),
            activation=activation,
            negative_slope=slope,
            workspace=ws,
            gemm_out=gemm,
            slot_prefix=f"plan.conv{self.index}",
        )
        return out


class _LeakyStep:
    """A standalone leaky ReLU, applied in place on plan-owned storage."""

    def __init__(self, index: int, slope: float) -> None:
        self.index = index
        self.slope = slope

    def apply(self, x: np.ndarray, ws: Workspace, owned: bool) -> np.ndarray:
        if not owned:
            # Never mutate the caller's input array in place.
            copy = ws.request(f"plan.leaky{self.index}.copy", x.shape, x.dtype)
            np.copyto(copy, x)
            x = copy
        # max(z, slope*z) — bit-identical to the masked multiply for
        # 0 <= slope <= 1 and several times faster (dense vector ops
        # instead of NumPy's buffered where= path).
        scaled = ws.request(f"plan.leaky{self.index}.scaled", x.shape, x.dtype)
        np.multiply(x, self.slope, out=scaled)
        np.maximum(x, scaled, out=x)
        return x


class _ConvTransposeStep:
    """A transposed convolution with workspace-backed scratch."""

    def __init__(self, index: int, layer: ConvTranspose2d) -> None:
        self.index = index
        self.layer = layer

    def apply(self, x: np.ndarray, ws: Workspace, owned: bool) -> np.ndarray:
        layer = self.layer
        weight = layer.weight.data
        c, f = weight.shape[0], weight.shape[1]
        n, _, h, w = x.shape
        k, s, p = layer.kernel_size, layer.stride, layer.padding
        oh = (h - 1) * s - 2 * p + k
        ow = (w - 1) * s - 2 * p + k
        wmat = weight.reshape(c, f * k * k)
        # Same element order as the op's transpose-then-reshape copy,
        # landed in a warm buffer instead of a fresh allocation.
        xmat = ws.request(f"plan.tconv{self.index}.xmat", (n * h * w, c), x.dtype)
        np.copyto(xmat.reshape(n, h, w, c), x.transpose(0, 2, 3, 1))
        cols = ws.request(
            f"plan.tconv{self.index}.cols",
            (n * h * w, f * k * k),
            np.result_type(x.dtype, weight.dtype),
        )
        np.matmul(xmat, wmat, out=cols)
        out = col2im(cols, (n, f, oh, ow), (k, k), (s, s), (p, p), workspace=ws)
        if layer.bias is not None:
            out += layer.bias.data[None, :, None, None]
        return out


class InferencePlan:
    """A model's layer sequence compiled to allocation-free steps.

    Compilation flattens the module tree (``SubdomainCNN`` →
    ``Sequential`` → layers), fuses every ``Conv2d`` directly followed
    by a ``LeakyReLU`` into one GEMM-epilogue step, and binds all
    scratch to a plan-owned :class:`Workspace`.  After the first
    ``run`` call the arena is warm and subsequent runs create zero new
    buffers (asserted in the tests via the ``workspace.bytes_allocated``
    metrics counter).

    The plan holds *references* to the model's parameter storage, so it
    stays valid across in-place weight updates; structural edits
    (adding/removing layers) require recompiling.  Like the workspace
    it owns, a plan belongs to one thread at a time.

    Raises :class:`~repro.exceptions.ConfigurationError` when the model
    contains a module the step vocabulary cannot express — use
    :meth:`try_compile` to fall back to the module-by-module forward.
    """

    SUPPORTED = (Conv2d, ConvTranspose2d, LeakyReLU)

    def __init__(self, model: Module, workspace: Workspace | None = None) -> None:
        self.model = model
        self.steps = self._compile(model)
        if not self.steps:
            raise ConfigurationError("InferencePlan: model has no layers")
        # Each plan owns its arena: two plans sharing one workspace
        # would collide on the per-step slot names.
        self.workspace = (
            workspace
            if workspace is not None
            else Workspace(name=f"plan-{type(model).__name__}")
        )
        # The plan computes in its parameters' dtype: a float64 field
        # fed to a float32 model is cast once at the entry (into an
        # arena buffer), not silently promoted to float64 inside every
        # step's np.result_type.
        self.compute_dtype = self._parameter_dtype(model)

    @staticmethod
    def _parameter_dtype(model: Module) -> np.dtype:
        for param in model.parameters():
            return np.dtype(param.data.dtype)
        return np.dtype(default_dtype())  # parameter-free plans follow the policy

    @classmethod
    def try_compile(
        cls, model: Module, workspace: Workspace | None = None
    ) -> "InferencePlan | None":
        """Compile if possible, else ``None`` (caller keeps naive path)."""
        try:
            return cls(model, workspace=workspace)
        except ConfigurationError:
            return None

    @staticmethod
    def _flatten(module: Module) -> list[Module]:
        if isinstance(module, SubdomainCNN):
            module = module.layers
        if isinstance(module, Sequential):
            flat: list[Module] = []
            for child in module:
                flat.extend(InferencePlan._flatten(child))
            return flat
        return [module]

    @classmethod
    def _compile(cls, model: Module) -> list:
        layers = cls._flatten(model)
        for layer in layers:
            if not isinstance(layer, cls.SUPPORTED):
                raise ConfigurationError(
                    f"InferencePlan cannot compile {type(layer).__name__}"
                )
        steps: list = []
        i = 0
        while i < len(layers):
            layer = layers[i]
            if isinstance(layer, Conv2d):
                follower = layers[i + 1] if i + 1 < len(layers) else None
                if isinstance(follower, LeakyReLU):
                    steps.append(_ConvStep(len(steps), layer, follower.negative_slope))
                    i += 2
                    continue
                steps.append(_ConvStep(len(steps), layer, None))
            elif isinstance(layer, ConvTranspose2d):
                steps.append(_ConvTransposeStep(len(steps), layer))
            else:  # LeakyReLU not preceded by a Conv2d
                steps.append(_LeakyStep(len(steps), layer.negative_slope))
            i += 1
        return steps

    def run(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Forward ``x`` (N, C, H, W) through the compiled steps.

        Intermediate results live entirely in the plan's workspace; the
        final result is copied out (into ``out`` when given) because
        arena storage is recycled by the next ``run``.
        """
        data = np.asarray(x)
        if data.ndim != 4:
            raise ShapeError(f"InferencePlan.run expects (N, C, H, W), got {data.shape}")
        with trace.span("plan.run", cat="compute"):
            h = data
            owned = False
            if h.dtype != self.compute_dtype:
                # One casting copy at the boundary (float64 fields into
                # a float32 plan); the arena buffer is plan-owned so
                # later steps may mutate it in place.
                cast = self.workspace.request(
                    "plan.input.cast", h.shape, self.compute_dtype
                )
                np.copyto(cast, h)
                h = cast
                owned = True
            for step in self.steps:
                h = step.apply(h, self.workspace, owned)
                owned = True
            if out is not None:
                np.copyto(out, h)
                return out
            return h.copy()

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return self.run(x, out=out)


class ParallelPredictor:
    """Drives P trained subdomain networks as a coupled surrogate.

    Parameters
    ----------
    models:
        One trained :class:`SubdomainCNN` per rank (rank order).
    decomposition:
        The block decomposition used during training.
    fill:
        Physical-boundary halo fill, matching training.
    use_plan:
        Compile each model to an :class:`InferencePlan` once, so rollout
        steps reuse warm workspace buffers (bit-identical results).
        Models the plan cannot express fall back to the module forward.
    """

    def __init__(
        self,
        models: list[SubdomainCNN],
        decomposition: BlockDecomposition,
        fill: str = "zero",
        use_plan: bool = True,
    ) -> None:
        if len(models) != decomposition.num_subdomains:
            raise ConfigurationError(
                f"{len(models)} models for {decomposition.num_subdomains} subdomains"
            )
        strategies = {m.config.strategy for m in models}
        if len(strategies) > 1:
            raise ConfigurationError(
                f"all models must share one padding strategy, got {strategies}"
            )
        self.strategy = strategies.pop()
        if self.strategy is PaddingStrategy.INNER_CROP:
            raise ConfigurationError(
                "INNER_CROP outputs miss the subdomain interface lines, so "
                "they cannot seed the next step (the drawback the paper "
                "notes); use another strategy for rollout"
            )
        self.models = models
        self.decomposition = decomposition
        self.fill = fill
        self.halo = models[0].input_halo
        # Compiled once per model; plans hold references to parameter
        # storage, so later in-place weight updates stay visible.
        self._plans = [
            InferencePlan.try_compile(m) if use_plan else None for m in models
        ]

    # ------------------------------------------------------------------
    def predict_step(self, state: np.ndarray, execution: str = "threads") -> np.ndarray:
        """One global step ``t -> t+1`` (embarrassingly parallel)."""
        return self.rollout(state, num_steps=1, execution=execution).trajectory[1]

    def rollout(
        self, initial: np.ndarray, num_steps: int, execution: str = "threads"
    ) -> RolloutResult:
        """Autoregressive multi-step prediction from a global field.

        ``initial`` has shape ``(C, H, W)``; each step exchanges halos
        (when the strategy uses neighbour data), forwards the local
        network, and feeds the prediction back as the next input.
        ``execution`` selects the MPI runtime backend (``"threads"`` or
        ``"processes"``); results are identical either way.
        """
        if num_steps < 1:
            raise ConfigurationError(f"num_steps must be >= 1, got {num_steps}")
        if initial.ndim != 3 or initial.shape[-2:] != self.decomposition.field_shape:
            raise ShapeError(
                f"initial state shape {initial.shape} does not match the "
                f"decomposition {self.decomposition.field_shape}"
            )
        decomposition = self.decomposition
        halo = self.halo
        size = decomposition.num_subdomains

        def program(comm: mpi.Communicator):
            local = decomposition.extract(initial, comm.rank)
            model = self.models[comm.rank]
            plan = self._plans[comm.rank]
            exchanger = (
                HaloExchanger(comm, decomposition, halo, self.fill)
                if halo > 0
                else None
            )
            messages = 0
            volume = 0
            trajectory = [local]
            metered = obs_metrics.enabled()
            for step in range(num_steps):
                step_start = trace.clock() if metered else 0.0
                with trace.span("rollout.step", cat="rollout", step=step):
                    if exchanger is not None:
                        net_input = exchanger.exchange(local)
                        messages += exchanger.messages_per_exchange
                        # Each message carries a halo strip of the local block.
                        volume += sum(
                            strip_bytes
                            for strip_bytes in _strip_volumes(
                                local.shape, halo, exchanger, local.dtype.itemsize
                            )
                        )
                    elif self.strategy is PaddingStrategy.ZERO or self.strategy is PaddingStrategy.TRANSPOSE:
                        net_input = local
                    else:  # pragma: no cover - excluded in __init__
                        raise ConfigurationError(f"strategy {self.strategy} cannot roll out")
                    with trace.span("rollout.forward", cat="compute", step=step):
                        if plan is not None:
                            # Allocation-free after the first (warmup) step.
                            local = plan.run(net_input[None])[0]
                        else:
                            with no_grad():
                                prediction = model(Tensor(net_input[None]))
                            local = prediction.numpy()[0]
                    if local.shape[-2:] != trajectory[0].shape[-2:]:
                        raise ShapeError(
                            f"network output {local.shape[-2:]} does not match the "
                            f"subdomain block {trajectory[0].shape[-2:]}"
                        )
                    trajectory.append(local)
                if metered:
                    _ROLLOUT_STEP_SECONDS.observe(trace.clock() - step_start)
                obs_metrics.heartbeat()
            return np.stack(trajectory), messages, volume

        rank_outputs = mpi.run_parallel(program, size, backend=execution)
        pieces = [out[0] for out in rank_outputs]
        messages = sum(out[1] for out in rank_outputs)
        volume = sum(out[2] for out in rank_outputs)
        # pieces[r] has shape (steps+1, C, h, w): assemble per step.
        trajectory = self.decomposition.assemble(pieces)
        return RolloutResult(trajectory, messages, volume)


def _strip_volumes(
    local_shape: tuple[int, ...],
    halo: int,
    exchanger: HaloExchanger,
    itemsize: int = 8,
):
    """Byte volume of each halo strip this rank sends in one exchange.

    ``itemsize`` follows the exchanged array's dtype — 4 under the
    float32 compute mode, 8 under the float64 default.
    """
    c, h, w = local_shape
    for (axis, _direction), peer in exchanger.neighbours.items():
        if peer is None:
            continue
        if axis == 0:
            yield c * halo * w * itemsize
        else:
            # Phase 2 sends strips of the y-extended array.
            yield c * (h + 2 * halo) * halo * itemsize


class SequentialPredictor:
    """Reference single-network predictor on the undecomposed domain."""

    def __init__(self, model: Module, use_plan: bool = True) -> None:
        self.model = model
        self._plan = InferencePlan.try_compile(model) if use_plan else None

    def rollout(self, initial: np.ndarray, num_steps: int) -> RolloutResult:
        """Autoregressive rollout with one network (no communication).

        Only meaningful for networks whose output size equals their
        input size (ZERO / TRANSPOSE strategies, or NEIGHBOR_* networks
        trained at P=1 where halo=0 padding was applied externally).
        """
        if num_steps < 1:
            raise ConfigurationError(f"num_steps must be >= 1, got {num_steps}")
        state = np.asarray(initial)
        halo = getattr(self.model, "input_halo", 0)
        trajectory = [state]
        with no_grad():
            for _ in range(num_steps):
                net_input = state
                if halo:
                    # The physical-boundary halo is plain zero padding.
                    pad = ((0, 0), (halo, halo), (halo, halo))
                    net_input = np.pad(state, pad)
                if self._plan is not None:
                    state = self._plan.run(net_input[None])[0]
                else:
                    state = self.model(Tensor(net_input[None])).numpy()[0]
                trajectory.append(state)
        return RolloutResult(np.stack(trajectory), messages_sent=0, bytes_sent=0)
