import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deeprain import reference
from deeprain.optim import AdamState, adam_step, sgd_step


class TestAdam:
    def test_first_step_magnitude_near_lr(self):
        for g in (1.0, -3.0, 0.5, 10.0, 4000.0):
            state = AdamState()
            params = {"w": np.array([1.0])}
            adam_step(state, params, {"w": np.array([g])})
            delta = params["w"][0] - 1.0
            assert abs(abs(delta) - 0.001) < 1e-6 * 0.001
            assert np.sign(delta) == -np.sign(g)

    def test_first_step_exact_value(self):
        # delta = -lr * g / (|g| + eps) at g=1
        state = AdamState()
        params = {"w": np.array([1.0])}
        adam_step(state, params, {"w": np.array([1.0])})
        assert abs(params["w"][0] - (1.0 - 0.0009999999900000003)) < 1e-18

    def test_zero_gradient_leaves_parameters_unchanged(self):
        state = AdamState()
        params = {"w": np.array([2.5, -1.0])}
        before = params["w"].copy()
        for _ in range(5):
            adam_step(state, params, {"w": np.zeros(2)})
        assert np.array_equal(params["w"], before)

    def test_three_step_hand_trace_on_quadratic(self):
        # frozen from the plain-float recurrence below
        expected = [0.999000000005, 0.9980000262138343, 0.9970000960651408]
        state = AdamState()
        params = {"w": np.array([1.0])}
        seen = []
        for _ in range(3):
            adam_step(state, params, {"w": np.array([2.0 * params["w"][0]])})
            seen.append(params["w"][0])
        for got, want in zip(seen, expected):
            assert abs(got - want) < 1e-12
        recurrence = reference.adam_trace_scalar(1.0, lambda t: 2.0 * t, 0.001, 0.9, 0.999, 1e-8, 3)
        for got, want in zip(seen, recurrence):
            assert abs(got - want) < 1e-12

    def test_quadratic_converges_within_2000_steps(self):
        state = AdamState()
        params = {"w": np.array([1.0])}
        for step in range(2000):
            adam_step(state, params, {"w": np.array([2.0 * params["w"][0]])})
            if abs(params["w"][0]) < 0.1:
                break
        assert abs(params["w"][0]) < 0.1
        assert state.t == step + 1

    def test_missing_gradient_rejected(self):
        state = AdamState()
        with pytest.raises(ValueError, match="missing gradient"):
            adam_step(state, {"a": np.zeros(1), "b": np.zeros(1)}, {"a": np.zeros(1)})

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_second_moment_stays_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        state = AdamState()
        params = {"w": rng.normal(0, 1, 4)}
        for _ in range(10):
            adam_step(state, params, {"w": rng.normal(0, 10, 4)})
        assert np.all(state.v["w"] >= 0.0)

    def test_steps_are_deterministic(self):
        def run():
            state = AdamState()
            params = {"w": np.array([1.0, -2.0])}
            for k in range(7):
                adam_step(state, params, {"w": np.array([0.3 * k, -1.1])})
            return params["w"]

        assert np.array_equal(run(), run())


class TestSgd:
    def test_single_step(self):
        params = {"w": np.array([5.0])}
        sgd_step(0.1, params, {"w": np.array([2.0])})
        assert params["w"][0] == 4.8

    def test_zero_lr_is_identity(self):
        params = {"w": np.array([1.25, -0.5])}
        before = params["w"].copy()
        sgd_step(0.0, params, {"w": np.array([3.0, 4.0])})
        assert np.array_equal(params["w"], before)

    def test_geometric_decay_on_quadratic(self):
        params = {"w": np.array([1.0])}
        for _ in range(10):
            sgd_step(0.1, params, {"w": np.array([2.0 * params["w"][0]])})
        assert abs(params["w"][0] - 0.8**10) < 1e-12

    def test_missing_gradient_rejected(self):
        with pytest.raises(ValueError, match="missing gradient"):
            sgd_step(0.1, {"w": np.zeros(1)}, {})

