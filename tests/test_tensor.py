import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deeprain import reference
from deeprain.tensor import (
    ShapeError,
    add,
    affine,
    affine_input_grad,
    affine_weight_grad,
    avg_pool2d,
    conv2d,
    global_avg_pool,
    hadamard,
    map_sigmoid,
    map_tanh,
)


def arr(values):
    return np.asarray(values, dtype=np.float64)


class TestConv2d:
    def test_1x1_kernel_is_scalar_multiply(self):
        x = arr([[[1, 2], [3, 4]]])
        k = arr([[[[2.0]]]])
        out = conv2d(x, k, arr([0.0]))
        assert np.array_equal(out, arr([[[2, 4], [6, 8]]]))

    def test_3x3_ones_kernel_sums_padded_window(self):
        # brute-force window sums: every output cell sees all four values
        x = arr([[[1, 2], [3, 4]]])
        k = np.ones((1, 1, 3, 3))
        out = conv2d(x, k, arr([0.0]))
        assert np.allclose(out, 10.0, atol=1e-12)

    def test_zero_input_gives_bias(self):
        x = np.zeros((2, 3, 3))
        k = np.arange(2 * 2 * 9, dtype=np.float64).reshape(2, 2, 3, 3)
        out = conv2d(x, k, arr([3.5, -1.25]))
        assert np.array_equal(out[0], np.full((3, 3), 3.5))
        assert np.array_equal(out[1], np.full((3, 3), -1.25))

    def test_channel_mismatch_names_axis(self):
        with pytest.raises(ShapeError, match="channel"):
            conv2d(np.zeros((3, 2, 2)), np.zeros((1, 2, 3, 3)), arr([0.0]))

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            conv2d(np.zeros((1, 2, 2)), np.zeros((1, 1, 2, 2)), arr([0.0]))

    def test_bias_extent_rejected(self):
        with pytest.raises(ShapeError, match="bias"):
            conv2d(np.zeros((1, 2, 2)), np.zeros((2, 1, 3, 3)), arr([0.0]))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_reference(self, seed):
        rng = np.random.default_rng(seed)
        o = int(rng.integers(1, 5))
        c = int(rng.integers(1, 9))
        kh = int(rng.choice([1, 3, 5, 9]))
        kw = int(rng.choice([1, 3, 5, 9]))
        h = int(rng.integers(1, 8))
        w = int(rng.integers(1, 8))
        x = rng.normal(0, 1, (c, h, w))
        k = rng.normal(0, 1, (o, c, kh, kw))
        b = rng.normal(0, 1, o)
        assert np.abs(conv2d(x, k, b) - reference.conv2d_naive(x, k, b)).max() < 1e-12

    @given(st.integers(0, 10_000), st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, seed, alpha, beta):
        rng = np.random.default_rng(seed)
        k = rng.normal(0, 1, (2, 2, 3, 3))
        x = rng.normal(0, 1, (2, 4, 5))
        y = rng.normal(0, 1, (2, 4, 5))
        lhs = conv2d(alpha * x + beta * y, k)
        rhs = alpha * conv2d(x, k) + beta * conv2d(y, k)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, (3, 6, 6))
        k = rng.normal(0, 1, (4, 3, 3, 3))
        b = rng.normal(0, 1, 4)
        assert np.array_equal(conv2d(x, k, b), conv2d(x, k, b))


class TestAffine:
    def test_identity(self):
        out = affine(arr([1, 2]), np.eye(2), np.zeros(2))
        assert np.array_equal(out, arr([1, 2]))

    def test_single_row(self):
        assert affine(arr([1, 2]), arr([[3, 4]]), arr([5]))[0] == 16.0

    def test_zero_weight_returns_bias(self):
        out = affine(arr([9, -2, 4]), np.zeros((1, 3)), arr([7.0]))
        assert out[0] == 7.0

    def test_extent_mismatch(self):
        with pytest.raises(ShapeError, match="inner extent"):
            affine(arr([1, 2, 3]), np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(ShapeError, match="inner extent"):
            affine(np.array(1.0), np.zeros((1, 1)))  # rank 0 has no extent

    @pytest.mark.parametrize("m, n", [(1, 8), (32, 128), (5, 3)])
    def test_stacked_vectors_have_the_bytes_of_their_own_calls(self, m, n):
        rng = np.random.default_rng(m * 1000 + n)
        w, b = rng.normal(0, 1, (m, n)), rng.normal(0, 1, m)
        xs, gs = rng.normal(0, 1, (3, n)), rng.normal(0, 1, (3, m))
        xs[1] = -xs[0]
        stacked = (affine(xs, w, b), affine(xs, w), affine_input_grad(gs, w),
                   affine_weight_grad(gs, xs))
        for r in range(3):
            single = (affine(xs[r], w, b), affine(xs[r], w), affine_input_grad(gs[r], w),
                      affine_weight_grad(gs[r], xs[r]))
            for a, e in zip(stacked, single):
                assert a[r].shape == e.shape
                assert np.ascontiguousarray(a[r]).tobytes() == e.tobytes()
        assert affine_weight_grad(gs[0], xs[0]).tobytes() == np.outer(gs[0], xs[0]).tobytes()
        assert affine_input_grad(gs[0], w).tobytes() == (w.T @ gs[0]).tobytes()


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert map_sigmoid(arr([0.0]))[0] == 0.5

    def test_tanh_at_zero(self):
        assert map_tanh(arr([0.0]))[0] == 0.0

    def test_sigmoid_symmetry(self):
        s = map_sigmoid(arr([2.0, -2.0]))
        assert abs(s[0] + s[1] - 1.0) < 1e-15

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_open_intervals_for_all_finite_inputs(self, values):
        v = arr(values)
        s = map_sigmoid(v)
        t = map_tanh(v)
        assert np.all((s > 0.0) & (s < 1.0))
        assert np.all((t > -1.0) & (t < 1.0))
        assert s.shape == v.shape and t.shape == v.shape

    def test_gate_maps_equal_the_clip_formulas_bytewise(self):
        # the np.clip / two-branch formulas that map_sigmoid and map_tanh
        # replaced; the current ones must give the same bytes
        one_minus = np.nextafter(1.0, 0.0)
        tiny = np.finfo(np.float64).tiny

        def clip_sigmoid(t):
            e = np.exp(-np.abs(t))
            out = np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
            return np.clip(out, tiny, one_minus)

        def clip_tanh(t):
            return np.clip(np.tanh(t), -one_minus, one_minus)

        sub = np.nextafter(0.0, 1.0)
        special = arr([0.0, -0.0, sub, -sub, 4 * sub, -tiny, tiny, 745.0, -745.0,
                       744.5, -744.5, 36.7, -36.7, 19.1, -19.1, np.inf, -np.inf])
        rng = np.random.default_rng(5)
        values = np.concatenate([special, rng.standard_normal(500) * 30.0,
                                 rng.standard_normal(500) * 1e-300])
        for new, old in ((map_sigmoid, clip_sigmoid), (map_tanh, clip_tanh)):
            for v in (values, values[:600].reshape(2, 3, 100)[:, :, ::2], arr([np.nan, 1.0])):
                got, want = new(v), old(v)
                nan = np.isnan(want)
                assert np.array_equal(np.isnan(got), nan)
                assert got[~nan].tobytes() == want[~nan].tobytes()
        assert np.isnan(map_sigmoid(arr([np.nan]))[0])
        assert np.isnan(map_tanh(arr([np.nan]))[0])

    def test_hadamard(self):
        assert np.array_equal(hadamard(arr([1, 2]), arr([3, 4])), arr([3, 8]))

    def test_hadamard_identity_and_zero(self):
        a = arr([[1.5, -2.0], [0.25, 3.0]])
        assert np.array_equal(hadamard(a, np.ones_like(a)), a)
        assert np.array_equal(hadamard(a, np.zeros_like(a)), np.zeros_like(a))

    def test_add_and_mismatch(self):
        assert np.array_equal(add(arr([1, 2]), arr([3, 4])), arr([4, 6]))
        with pytest.raises(ShapeError, match="shape"):
            add(arr([1, 2]), arr([1, 2, 3]))
        with pytest.raises(ShapeError, match="shape"):
            hadamard(arr([[1.0]]), arr([1.0]))


class TestPooling:
    def test_global_avg_pool_single_channel(self):
        assert global_avg_pool(arr([[[1, 2], [3, 4]]]))[0] == 2.5

    def test_global_avg_pool_constant_channel(self):
        assert global_avg_pool(np.full((1, 5, 7), 3.25))[0] == 3.25

    def test_global_avg_pool_two_channels(self):
        x = np.stack([np.zeros((2, 2)), np.full((2, 2), 4.0)])
        assert np.array_equal(global_avg_pool(x), arr([0.0, 4.0]))

    def test_global_avg_pool_stacked_maps_have_the_bytes_of_their_own_calls(self):
        maps = np.random.default_rng(2).normal(0, 1, (3, 4, 5, 7))
        got = global_avg_pool(maps)
        assert got.shape == (3, 4)
        for i in range(3):
            assert got[i].tobytes() == global_avg_pool(maps[i]).tobytes(), i

    def test_factor_one_is_identity(self):
        x = np.random.default_rng(0).normal(0, 1, (2, 5, 4))
        assert np.array_equal(avg_pool2d(x, 1), x)

    def test_two_by_two(self):
        assert avg_pool2d(arr([[[1, 2], [3, 4]]]), 2)[0, 0, 0] == 2.5

    def test_odd_extent_edge_windows(self):
        # 101x101 pooled by 2: 51x51 output, the far corner covers one cell
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (1, 101, 101))
        out = avg_pool2d(x, 2)
        assert out.shape == (1, 51, 51)
        assert out[0, 50, 50] == x[0, 100, 100]
        assert abs(out[0, 0, 0] - x[0, :2, :2].mean()) < 1e-12

    @pytest.mark.parametrize("shape,factor", [((2, 7, 5), 3), ((1, 8, 8), 2), ((3, 5, 9), 4)])
    def test_matches_window_enumeration(self, shape, factor):
        rng = np.random.default_rng(sum(shape) + factor)
        x = rng.normal(0, 1, shape)
        assert np.abs(avg_pool2d(x, factor) - reference.avg_pool2d_naive(x, factor)).max() < 1e-12

    def test_factor_zero_rejected(self):
        with pytest.raises(ShapeError, match="factor"):
            avg_pool2d(np.zeros((1, 2, 2)), 0)
