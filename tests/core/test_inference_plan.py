"""InferencePlan equivalence and allocation-freedom.

The acceptance bar for the workspace/fusion layer: a compiled plan must
be bit-identical to the module-by-module forward for every padding
strategy, must stop allocating after its warmup run (pinned through the
``workspace.bytes_allocated`` metrics counter), and must leave MPI
rollouts unchanged on both execution backends.
"""

import numpy as np
import pytest

from repro.core import (
    CNNConfig,
    InferencePlan,
    PaddingStrategy,
    ParallelPredictor,
    SubdomainCNN,
)
from repro.domain import BlockDecomposition
from repro.exceptions import ConfigurationError, ShapeError
from repro.nn import Conv2d, LeakyReLU, Module, Sequential
from repro.obs import metrics, trace
from repro.tensor import Tensor, no_grad

STRATEGIES = [
    PaddingStrategy.ZERO,
    PaddingStrategy.NEIGHBOR_FIRST,
    PaddingStrategy.NEIGHBOR_ALL,
    PaddingStrategy.TRANSPOSE,
]


def make_model(strategy, seed=0, channels=(4, 6, 4)):
    config = CNNConfig(channels=channels, kernel_size=3, strategy=strategy)
    return SubdomainCNN(config, rng=np.random.default_rng(seed))


def model_forward(model, x):
    with no_grad():
        return model(Tensor(x)).numpy()


class TestPlanEquivalence:
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
    def test_bit_identical_to_module_forward(self, rng, strategy):
        model = make_model(strategy)
        plan = InferencePlan(model)
        halo = model.input_halo
        x = rng.standard_normal((2, 4, 10 + 2 * halo, 10 + 2 * halo))
        expected = model_forward(model, x)
        # Cold, warm, and hot runs must all match exactly.
        for _ in range(3):
            assert np.array_equal(plan.run(x), expected)

    def test_sees_in_place_weight_updates(self, rng):
        """Plans hold references to parameter storage, so an optimizer
        stepping the model in place must be visible without recompiling."""
        model = make_model(PaddingStrategy.ZERO)
        plan = InferencePlan(model)
        x = rng.standard_normal((1, 4, 8, 8))
        plan.run(x)  # warmup with old weights
        for param in model.parameters():
            param.data += 0.25
        assert np.array_equal(plan.run(x), model_forward(model, x))

    def test_input_not_mutated(self, rng):
        model = make_model(PaddingStrategy.ZERO)
        plan = InferencePlan(model)
        x = rng.standard_normal((1, 4, 8, 8))
        original = x.copy()
        plan.run(x)
        plan.run(x)
        assert np.array_equal(x, original)

    def test_out_parameter(self, rng):
        model = make_model(PaddingStrategy.ZERO)
        plan = InferencePlan(model)
        x = rng.standard_normal((1, 4, 8, 8))
        expected = plan.run(x)
        out = np.empty_like(expected)
        returned = plan.run(x, out=out)
        assert returned is out
        assert np.array_equal(out, expected)

    def test_result_detached_from_arena(self, rng):
        """run() results must survive the next run() (copied out, not a
        view of recycled arena storage)."""
        model = make_model(PaddingStrategy.ZERO)
        plan = InferencePlan(model)
        a_in = rng.standard_normal((1, 4, 8, 8))
        b_in = rng.standard_normal((1, 4, 8, 8))
        a = plan.run(a_in)
        a_snapshot = a.copy()
        plan.run(b_in)
        assert np.array_equal(a, a_snapshot)

    def test_callable_alias(self, rng):
        model = make_model(PaddingStrategy.ZERO)
        plan = InferencePlan(model)
        x = rng.standard_normal((1, 4, 8, 8))
        assert np.array_equal(plan(x), plan.run(x))

    def test_wrong_rank_raises(self, rng):
        plan = InferencePlan(make_model(PaddingStrategy.ZERO))
        with pytest.raises(ShapeError):
            plan.run(rng.standard_normal((4, 8, 8)))


class TestAllocationFreedom:
    def test_zero_new_buffers_after_warmup(self, rng):
        """The tentpole property, asserted through the workspace
        metrics counters: after the warmup run every workspace request
        is a hit, so they record reused bytes and zero allocated bytes."""
        model = make_model(PaddingStrategy.TRANSPOSE)  # conv + tconv steps
        plan = InferencePlan(model)
        x = rng.standard_normal((1, 4, 12, 12))
        plan.run(x)  # warmup
        created = plan.workspace.stats.buffers_created
        trace.reset()
        with trace.tracing():
            for _ in range(3):
                plan.run(x)
        allocated = metrics.counter("workspace.bytes_allocated").total()
        reused = metrics.counter("workspace.bytes_reused").total()
        runs = [s for s in trace.spans() if s.name == "plan.run"]
        trace.reset()
        assert plan.workspace.stats.buffers_created == created
        assert allocated == 0
        assert reused > 0
        assert len(runs) == 3

    def test_warm_arena_is_fully_hit(self, rng):
        model = make_model(PaddingStrategy.NEIGHBOR_ALL)
        plan = InferencePlan(model)
        halo = model.input_halo
        x = rng.standard_normal((1, 4, 8 + 2 * halo, 8 + 2 * halo))
        plan.run(x)
        before = plan.workspace.stats
        requests, created = before.requests, before.buffers_created
        plan.run(x)
        after = plan.workspace.stats
        assert after.buffers_created == created
        assert after.requests > requests  # warm requests did happen

    def test_blocked_steps_write_arena_output_in_place(self, rng, monkeypatch):
        """With every conv forced onto the strip-mined kernel, each step's
        result is its arena output slot itself, filled by the strip GEMMs
        rather than by a copy, and the plan still matches the module
        forward."""
        from repro.core import inference
        from repro.tensor import blocked

        monkeypatch.setattr(blocked, "BLOCK_MIN_COLS_BYTES", 0)
        calls = []

        def spy(*args, **kwargs):
            result = conv2d_forward_blocked(*args, **kwargs)
            calls.append((kwargs["out"], result[0]))
            return result

        conv2d_forward_blocked = inference.conv2d_forward_blocked
        monkeypatch.setattr(inference, "conv2d_forward_blocked", spy)
        model = make_model(PaddingStrategy.ZERO)
        plan = InferencePlan(model)
        x = rng.standard_normal((2, 4, 12, 12))
        expected = model_forward(model, x)
        for _ in range(2):
            np.testing.assert_allclose(plan.run(x), expected, rtol=1e-12, atol=1e-12)
        assert len(calls) == 4  # two conv steps, two runs
        for out_buf, result in calls:
            assert result is out_buf
        # The warm run reuses the cold run's slots.
        assert calls[2][0] is calls[0][0] and calls[3][0] is calls[1][0]


class TestCompilation:
    def test_fuses_conv_leaky_pairs(self):
        model = make_model(PaddingStrategy.ZERO, channels=(4, 6, 4))
        # 2 conv layers, each followed by LeakyReLU (last layer has no
        # activation only when the config says so — check actual count).
        plan = InferencePlan(model)
        flat = InferencePlan._flatten(model)
        fused = sum(1 for s in plan.steps if getattr(s, "slope", None) is not None)
        assert len(plan.steps) < len(flat)
        assert fused >= 1

    def test_try_compile_unsupported_returns_none(self):
        class Exotic(Module):
            def forward(self, x):  # pragma: no cover - never run
                return x

        assert InferencePlan.try_compile(Exotic()) is None
        assert InferencePlan.try_compile(Sequential()) is None

    def test_compile_unsupported_raises(self):
        class Exotic(Module):
            def forward(self, x):  # pragma: no cover - never run
                return x

        with pytest.raises(ConfigurationError):
            InferencePlan(Sequential(Conv2d(2, 2, 3), Exotic()))

    def test_plain_sequential_supported(self, rng):
        model = Sequential(
            Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0)),
            LeakyReLU(0.1),
            Conv2d(3, 2, 3, padding=1, rng=np.random.default_rng(1)),
        )
        plan = InferencePlan(model)
        x = rng.standard_normal((1, 2, 6, 6))
        assert np.array_equal(plan.run(x), model_forward(model, x))

    def test_leading_leaky_relu_copies_input(self, rng):
        """A LeakyReLU that is the first step must not mutate the
        caller's array (the in-place step copies into the arena)."""
        model = Sequential(LeakyReLU(0.1), Conv2d(2, 2, 3, padding=1))
        plan = InferencePlan(model)
        x = rng.standard_normal((1, 2, 6, 6))
        original = x.copy()
        assert np.array_equal(plan.run(x), model_forward(model, x))
        assert np.array_equal(x, original)

    def test_state_dict_unchanged_by_compilation(self):
        model = make_model(PaddingStrategy.ZERO)
        keys_before = sorted(model.state_dict())
        InferencePlan(model)
        assert sorted(model.state_dict()) == keys_before


class TestRolloutEquivalence:
    """Seeded multi-step MPI rollout: plans must change nothing."""

    def clone_models(self, config, num, seed=7):
        reference = SubdomainCNN(config, rng=np.random.default_rng(seed))
        models = []
        for _ in range(num):
            model = SubdomainCNN(config, rng=np.random.default_rng(99))
            model.load_state_dict(reference.state_dict())
            models.append(model)
        return models

    @pytest.mark.parametrize("execution", ["threads", "processes"])
    @pytest.mark.parametrize(
        "strategy",
        [PaddingStrategy.ZERO, PaddingStrategy.NEIGHBOR_FIRST],
        ids=lambda s: s.value,
    )
    def test_plan_rollout_matches_naive(self, rng, strategy, execution):
        config = CNNConfig(channels=(4, 5, 4), kernel_size=3, strategy=strategy)
        models = self.clone_models(config, 4)
        decomp = BlockDecomposition.from_num_ranks((16, 16), 4)
        field = rng.standard_normal((4, 16, 16))

        naive = ParallelPredictor(models, decomp, use_plan=False)
        planned = ParallelPredictor(models, decomp, use_plan=True)
        expected = naive.rollout(field, num_steps=3, execution=execution)
        got = planned.rollout(field, num_steps=3, execution=execution)

        assert np.array_equal(got.trajectory, expected.trajectory)
        assert got.messages_sent == expected.messages_sent
        assert got.bytes_sent == expected.bytes_sent

    def test_predict_step_matches_rollout(self, rng):
        config = CNNConfig(channels=(4, 4), kernel_size=3, strategy=PaddingStrategy.ZERO)
        models = self.clone_models(config, 2)
        decomp = BlockDecomposition.from_num_ranks((12, 12), 2)
        field = rng.standard_normal((4, 12, 12))
        predictor = ParallelPredictor(models, decomp)
        step = predictor.predict_step(field)
        assert np.array_equal(
            step, predictor.rollout(field, num_steps=1).trajectory[1]
        )
