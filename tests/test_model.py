import math
import struct
import tracemalloc

import numpy as np
import pytest

from deeprain import reference
from deeprain.autodiff import Tape
from deeprain.model import (
    CellState,
    CheckpointError,
    ConvLstmCellParams,
    FcLstmCellParams,
    Model,
    ModelSpec,
    build_prediction,
    convlstm_cell_step,
    encode_sequence,
    fclstm_cell_step,
    init_params,
    lift,
    load_checkpoint,
    param_shapes,
    predict,
    preprocess,
    regression_head,
    save_checkpoint,
)
from deeprain.tensor import ShapeError


def cell_arrays(rng, hidden, cin, k, scale=0.4):
    out = {}
    for n in ("w_xi", "w_xf", "w_xo", "w_xc"):
        out[n] = rng.normal(0, scale, (hidden, cin, k, k))
    for n in ("w_hi", "w_hf", "w_ho", "w_hc"):
        out[n] = rng.normal(0, scale, (hidden, hidden, k, k))
    for n in ("b_i", "b_f", "b_o", "b_c"):
        out[n] = rng.normal(0, scale, hidden)
    return out


def conv_cell_on_tape(tape, arrays):
    return ConvLstmCellParams(**{k: tape.const(v) for k, v in arrays.items()})


def zero_state(tape, shape):
    return CellState(tape.const(np.zeros(shape)), tape.const(np.zeros(shape)))


class TestModelSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ModelSpec("transformer")

    def test_even_kernel(self):
        with pytest.raises(ValueError, match="odd"):
            ModelSpec("conv-lstm", kernel=4)

    def test_pooled_dims_round_up(self):
        spec = ModelSpec("conv-lstm", pool_factor=2, in_h=101, in_w=101)
        assert (spec.pooled_h, spec.pooled_w) == (51, 51)

    def test_frame_dim(self):
        spec = ModelSpec("fc-lstm", in_t=5, in_c=2, in_h=8, in_w=8)
        assert spec.frame_dim == 128


class TestConvLstmCell:
    def test_zero_parameters_give_zero_state(self):
        tape = Tape()
        arrays = {k: np.zeros_like(v) for k, v in cell_arrays(np.random.default_rng(0), 2, 1, 3).items()}
        cell = conv_cell_on_tape(tape, arrays)
        x = tape.const(np.random.default_rng(1).normal(0, 1, (1, 4, 4)))
        state = convlstm_cell_step(tape, cell, x, zero_state(tape, (2, 4, 4)))
        # sigma(0)=0.5 gates, tanh(0)=0 candidate: both H and C stay zero
        assert np.array_equal(state.h.value, np.zeros((2, 4, 4)))
        assert np.array_equal(state.c.value, np.zeros((2, 4, 4)))

    def test_saturated_forget_gate_preserves_memory(self):
        rng = np.random.default_rng(2)
        arrays = {k: np.zeros_like(v) for k, v in cell_arrays(rng, 2, 1, 3).items()}
        arrays["b_f"] = np.full(2, 20.0)
        tape = Tape()
        cell = conv_cell_on_tape(tape, arrays)
        c0 = rng.normal(0, 1, (2, 3, 3))
        state = CellState(tape.const(np.zeros((2, 3, 3))), tape.const(c0))
        out = convlstm_cell_step(tape, cell, tape.const(np.zeros((1, 3, 3))), state)
        assert np.abs(out.c.value - c0).max() < 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_straight_line_transcription(self, seed):
        rng = np.random.default_rng(seed)
        arrays = cell_arrays(rng, 3, 2, 3)
        x = rng.normal(0, 1, (2, 4, 4))
        h0 = rng.normal(0, 0.5, (3, 4, 4))
        c0 = rng.normal(0, 0.5, (3, 4, 4))
        tape = Tape()
        cell = conv_cell_on_tape(tape, arrays)
        state = convlstm_cell_step(
            tape, cell, tape.const(x), CellState(tape.const(h0), tape.const(c0))
        )
        h_ref, c_ref = reference.convlstm_cell_naive(arrays, x, h0, c0)
        assert np.abs(state.h.value - h_ref).max() < 1e-12
        assert np.abs(state.c.value - c_ref).max() < 1e-12

    def test_channel_mismatch_names_gate(self):
        tape = Tape()
        cell = conv_cell_on_tape(tape, cell_arrays(np.random.default_rng(0), 2, 2, 3))
        with pytest.raises(ShapeError, match="input gate"):
            convlstm_cell_step(
                tape, cell, tape.const(np.zeros((3, 4, 4))), zero_state(tape, (2, 4, 4))
            )

    def test_state_mismatch_names_gate(self):
        tape = Tape()
        cell = conv_cell_on_tape(tape, cell_arrays(np.random.default_rng(0), 2, 2, 3))
        with pytest.raises(ShapeError, match="recurrent gate"):
            convlstm_cell_step(
                tape, cell, tape.const(np.zeros((2, 4, 4))), zero_state(tape, (3, 4, 4))
            )

    def test_hidden_in_open_interval_and_cell_growth_bound(self):
        # H_t in (-1,1) always; with zero initial state |C_t| < t
        rng = np.random.default_rng(7)
        arrays = cell_arrays(rng, 2, 2, 3, scale=2.0)
        tape = Tape()
        cell = conv_cell_on_tape(tape, arrays)
        state = zero_state(tape, (2, 5, 5))
        for t in range(1, 8):
            x = tape.const(rng.normal(0, 3, (2, 5, 5)))
            state = convlstm_cell_step(tape, cell, x, state)
            assert state.h.value.shape == state.c.value.shape
            assert np.all(np.abs(state.h.value) < 1.0)
            assert np.all(np.abs(state.c.value) < t)


class TestFcLstmCell:
    def test_zero_parameters_give_zero_state(self):
        tape = Tape()
        cell = FcLstmCellParams(
            **{
                k: tape.const(np.zeros_like(v[..., 0, 0] if v.ndim == 4 else v))
                for k, v in cell_arrays(np.random.default_rng(0), 2, 3, 1).items()
            }
        )
        out = fclstm_cell_step(
            tape, cell, tape.const(np.ones(3)), zero_state(tape, (2,))
        )
        assert np.array_equal(out.h.value, np.zeros(2))

    def test_hand_evaluated_hidden_one(self):
        # single hidden unit, handpicked weights, evaluated from the raw
        # gate formulas with plain floats
        wxi, whi, bi = 0.3, -0.2, 0.1
        wxf, whf, bf = -0.4, 0.5, 1.0
        wxo, who, bo = 0.2, 0.3, -0.1
        wxc, whc, bc = 0.6, -0.5, 0.2
        x, h0, c0 = 0.8, 0.25, -0.5

        def sig(z):
            return 1.0 / (1.0 + math.exp(-z))

        i = sig(wxi * x + whi * h0 + bi)
        f = sig(wxf * x + whf * h0 + bf)
        o = sig(wxo * x + who * h0 + bo)
        g = math.tanh(wxc * x + whc * h0 + bc)
        c1 = f * c0 + i * g
        h1 = o * math.tanh(c1)

        tape = Tape()
        cell = FcLstmCellParams(
            w_xi=tape.const(np.array([[wxi]])),
            w_xf=tape.const(np.array([[wxf]])),
            w_xo=tape.const(np.array([[wxo]])),
            w_xc=tape.const(np.array([[wxc]])),
            w_hi=tape.const(np.array([[whi]])),
            w_hf=tape.const(np.array([[whf]])),
            w_ho=tape.const(np.array([[who]])),
            w_hc=tape.const(np.array([[whc]])),
            b_i=tape.const(np.array([bi])),
            b_f=tape.const(np.array([bf])),
            b_o=tape.const(np.array([bo])),
            b_c=tape.const(np.array([bc])),
        )
        out = fclstm_cell_step(
            tape,
            cell,
            tape.const(np.array([x])),
            CellState(tape.const(np.array([h0])), tape.const(np.array([c0]))),
        )
        assert abs(out.h.value[0] - h1) < 1e-12
        assert abs(out.c.value[0] - c1) < 1e-12

    def test_state_mismatch_names_gate(self):
        tape = Tape()
        arrays = cell_arrays(np.random.default_rng(0), 2, 3, 1)
        cell = FcLstmCellParams(
            **{k: tape.const(v[..., 0, 0] if v.ndim == 4 else v) for k, v in arrays.items()}
        )
        with pytest.raises(ShapeError, match="recurrent gate"):
            fclstm_cell_step(tape, cell, tape.const(np.ones(3)), zero_state(tape, (3,)))

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_convlstm_on_degenerate_geometry(self, seed):
        rng = np.random.default_rng(seed)
        hidden, cin = 3, 2
        conv_arrays = cell_arrays(rng, hidden, cin, 1)
        fc_arrays = {k: (v[..., 0, 0] if v.ndim == 4 else v) for k, v in conv_arrays.items()}
        x = rng.normal(0, 1, cin)
        h0 = rng.normal(0, 0.5, hidden)
        c0 = rng.normal(0, 0.5, hidden)

        tc = Tape()
        cs = convlstm_cell_step(
            tc,
            conv_cell_on_tape(tc, conv_arrays),
            tc.const(x.reshape(cin, 1, 1)),
            CellState(tc.const(h0.reshape(hidden, 1, 1)), tc.const(c0.reshape(hidden, 1, 1))),
        )
        tf = Tape()
        fcell = FcLstmCellParams(**{k: tf.const(v) for k, v in fc_arrays.items()})
        fs = fclstm_cell_step(tf, fcell, tf.const(x), CellState(tf.const(h0), tf.const(c0)))
        assert np.abs(cs.h.value.ravel() - fs.h.value).max() < 1e-12
        assert np.abs(cs.c.value.ravel() - fs.c.value).max() < 1e-12


class TestEncodeSequence:
    def test_single_step_reduction(self):
        rng = np.random.default_rng(3)
        arrays = cell_arrays(rng, 2, 1, 3)
        x = rng.normal(0, 1, (1, 4, 4))
        tape = Tape()
        cell = conv_cell_on_tape(tape, arrays)
        top = encode_sequence(tape, [cell], [tape.const(x)])
        direct = convlstm_cell_step(tape, cell, tape.const(x), zero_state(tape, (2, 4, 4)))
        assert np.array_equal(top.value, direct.h.value)

    def test_zero_parameter_stack_outputs_zero(self):
        tape = Tape()
        zeros = {
            k: np.zeros_like(v)
            for k, v in cell_arrays(np.random.default_rng(0), 2, 1, 3).items()
        }
        zeros2 = {
            k: np.zeros_like(v)
            for k, v in cell_arrays(np.random.default_rng(0), 2, 2, 3).items()
        }
        cells = [conv_cell_on_tape(tape, zeros), conv_cell_on_tape(tape, zeros2)]
        seq = [tape.const(np.random.default_rng(1).normal(0, 1, (1, 3, 3))) for _ in range(4)]
        top = encode_sequence(tape, cells, seq)
        assert np.array_equal(top.value, np.zeros((2, 3, 3)))

    def test_two_stack_equals_manual_unrolling(self):
        rng = np.random.default_rng(5)
        a0 = cell_arrays(rng, 2, 1, 3)
        a1 = cell_arrays(rng, 2, 2, 3)
        xs = [rng.normal(0, 1, (1, 4, 4)) for _ in range(3)]

        tape = Tape()
        cells = [conv_cell_on_tape(tape, a0), conv_cell_on_tape(tape, a1)]
        top = encode_sequence(tape, cells, [tape.const(x) for x in xs])

        manual = Tape()
        c0 = conv_cell_on_tape(manual, a0)
        c1 = conv_cell_on_tape(manual, a1)
        s0 = zero_state(manual, (2, 4, 4))
        s1 = zero_state(manual, (2, 4, 4))
        for x in xs:
            s0 = convlstm_cell_step(manual, c0, manual.const(x), s0)
            s1 = convlstm_cell_step(manual, c1, s0.h, s1)
        assert np.abs(top.value - s1.h.value).max() < 1e-12

    def test_empty_sequence_rejected(self):
        tape = Tape()
        cell = conv_cell_on_tape(tape, cell_arrays(np.random.default_rng(0), 2, 1, 3))
        with pytest.raises(ValueError, match="empty"):
            encode_sequence(tape, [cell], [])


class TestRegressionHead:
    def test_zero_weight_returns_bias(self):
        tape = Tape()
        w, b = tape.const(np.zeros((1, 3))), tape.const(np.array([3.2]))
        h = tape.const(np.random.default_rng(0).normal(0, 1, (3, 4, 4)))
        assert regression_head(tape, w, b, h).value[0] == 3.2

    def test_constant_map_single_channel(self):
        tape = Tape()
        w, b = tape.const(np.array([[2.0]])), tape.const(np.array([0.5]))
        h = tape.const(np.full((1, 3, 3), 1.5))
        assert regression_head(tape, w, b, h).value[0] == 2.0 * 1.5 + 0.5

    def test_matches_pool_then_affine_by_hand(self):
        rng = np.random.default_rng(4)
        h = rng.normal(0, 1, (3, 4, 5))
        w = rng.normal(0, 1, (1, 3))
        b = rng.normal(0, 1, 1)
        tape = Tape()
        got = regression_head(tape, tape.const(w), tape.const(b), tape.const(h)).value[0]
        want = float((w @ h.mean(axis=(1, 2)) + b)[0])
        assert abs(got - want) < 1e-12

    def test_bad_rank_rejected(self):
        tape = Tape()
        w, b = tape.const(np.zeros((1, 3))), tape.const(np.zeros(1))
        with pytest.raises(ShapeError, match="rank"):
            regression_head(tape, w, b, tape.const(np.zeros((3, 3))))


class TestInitParams:
    def test_same_seed_is_bitwise_identical(self):
        spec = ModelSpec("conv-lstm", stacks=2, hidden=3, in_t=2, in_c=2, in_h=4, in_w=4)
        a = init_params(spec, 123).named_parameters()
        b = init_params(spec, 123).named_parameters()
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name], b[name])

    def test_forget_bias_is_one_others_zero(self):
        spec = ModelSpec("conv-lstm", stacks=2, hidden=4, in_t=2, in_c=1, in_h=3, in_w=3)
        named = init_params(spec, 0).named_parameters()
        for i in range(2):
            assert np.all(named[f"cell{i}.b_f"] == 1.0)
            for gate in ("b_i", "b_o", "b_c"):
                assert np.all(named[f"cell{i}.{gate}"] == 0.0)
        assert np.all(named["head.bias"] == 0.0)

    def test_weight_sample_statistics(self):
        # 10^4 draws from uniform(-a, a): mean near 0, all inside bounds
        spec = ModelSpec("linear", in_t=10, in_c=4, in_h=25, in_w=10)
        w = init_params(spec, 11).named_parameters()["linear.weight"]
        assert w.size == 10_000
        a = math.sqrt(6.0 / (w.size + 1))
        assert abs(w.mean()) < 0.05 * a * 2
        assert np.all(np.abs(w) <= a)

    def test_param_shapes_pin_names_order_and_shapes(self):
        geometry = dict(in_t=4, in_c=2, in_h=6, in_w=6)
        conv = ModelSpec("conv-lstm", stacks=2, hidden=3, kernel=5, **geometry)
        assert list(param_shapes(conv).items()) == [
            ("cell0.w_xi", (3, 2, 5, 5)), ("cell0.w_xf", (3, 2, 5, 5)),
            ("cell0.w_xo", (3, 2, 5, 5)), ("cell0.w_xc", (3, 2, 5, 5)),
            ("cell0.w_hi", (3, 3, 5, 5)), ("cell0.w_hf", (3, 3, 5, 5)),
            ("cell0.w_ho", (3, 3, 5, 5)), ("cell0.w_hc", (3, 3, 5, 5)),
            ("cell0.b_i", (3,)), ("cell0.b_f", (3,)), ("cell0.b_o", (3,)), ("cell0.b_c", (3,)),
            ("cell1.w_xi", (3, 3, 5, 5)), ("cell1.w_xf", (3, 3, 5, 5)),
            ("cell1.w_xo", (3, 3, 5, 5)), ("cell1.w_xc", (3, 3, 5, 5)),
            ("cell1.w_hi", (3, 3, 5, 5)), ("cell1.w_hf", (3, 3, 5, 5)),
            ("cell1.w_ho", (3, 3, 5, 5)), ("cell1.w_hc", (3, 3, 5, 5)),
            ("cell1.b_i", (3,)), ("cell1.b_f", (3,)), ("cell1.b_o", (3,)), ("cell1.b_c", (3,)),
            ("head.weight", (1, 3)), ("head.bias", (1,)),
        ]
        # pooled to 3x3, so a frame holds 2 * 3 * 3 = 18 values
        fc = ModelSpec("fc-lstm", stacks=2, hidden=3, pool_factor=2, **geometry)
        assert list(param_shapes(fc).items()) == [
            ("cell0.w_xi", (3, 18)), ("cell0.w_xf", (3, 18)),
            ("cell0.w_xo", (3, 18)), ("cell0.w_xc", (3, 18)),
            ("cell0.w_hi", (3, 3)), ("cell0.w_hf", (3, 3)),
            ("cell0.w_ho", (3, 3)), ("cell0.w_hc", (3, 3)),
            ("cell0.b_i", (3,)), ("cell0.b_f", (3,)), ("cell0.b_o", (3,)), ("cell0.b_c", (3,)),
            ("cell1.w_xi", (3, 3)), ("cell1.w_xf", (3, 3)),
            ("cell1.w_xo", (3, 3)), ("cell1.w_xc", (3, 3)),
            ("cell1.w_hi", (3, 3)), ("cell1.w_hf", (3, 3)),
            ("cell1.w_ho", (3, 3)), ("cell1.w_hc", (3, 3)),
            ("cell1.b_i", (3,)), ("cell1.b_f", (3,)), ("cell1.b_o", (3,)), ("cell1.b_c", (3,)),
            ("head.weight", (1, 3)), ("head.bias", (1,)),
        ]
        linear = ModelSpec("linear", pool_factor=2, **geometry)
        assert list(param_shapes(linear).items()) == [
            ("linear.weight", (1, 72)), ("linear.bias", (1,)),
        ]

    def test_shapes_follow_registry(self):
        spec = ModelSpec("fc-lstm", stacks=2, hidden=3, in_t=4, in_c=2, in_h=5, in_w=5)
        named = init_params(spec, 0).named_parameters()
        for name, shape in param_shapes(spec).items():
            assert named[name].shape == shape


class TestPredict:
    def test_zero_parameter_model_returns_head_bias(self):
        spec = ModelSpec("conv-lstm", stacks=1, hidden=2, in_t=2, in_c=1, in_h=4, in_w=4)
        named = {n: np.zeros(s) for n, s in param_shapes(spec).items()}
        named["head.bias"] = np.array([1.75])
        model = Model.from_named(spec, named)
        frames = np.random.default_rng(0).integers(0, 256, (2, 1, 4, 4))
        assert predict(model, frames) == 1.75

    def test_linear_zero_weight_returns_bias(self):
        spec = ModelSpec("linear", in_t=2, in_c=1, in_h=4, in_w=4)
        named = {n: np.zeros(s) for n, s in param_shapes(spec).items()}
        named["linear.bias"] = np.array([-0.5])
        model = Model.from_named(spec, named)
        frames = np.random.default_rng(0).integers(0, 256, (2, 1, 4, 4))
        assert predict(model, frames) == -0.5
        assert predict(model, frames, clamp=True) == 0.0

    def test_seeded_single_stack_matches_manual_trace(self):
        # normalize by hand, unroll with the naive cell, pool and project
        spec = ModelSpec("conv-lstm", stacks=1, hidden=2, kernel=3, in_t=2, in_c=1, in_h=2, in_w=2)
        model = init_params(spec, 21)
        frames = np.random.default_rng(22).integers(0, 256, (2, 1, 2, 2))
        named = model.named_parameters()
        cell = {k.split(".")[1]: v for k, v in named.items() if k.startswith("cell0.")}
        h = np.zeros((2, 2, 2))
        c = np.zeros((2, 2, 2))
        for t in range(2):
            h, c = reference.convlstm_cell_naive(cell, frames[t].astype(np.float64) / 255.0, h, c)
        want = float((named["head.weight"] @ h.mean(axis=(1, 2)) + named["head.bias"])[0])
        assert abs(predict(model, frames) - want) < 1e-12

    def test_dimension_mismatch_rejected(self):
        spec = ModelSpec("conv-lstm", stacks=1, hidden=2, in_t=2, in_c=1, in_h=4, in_w=4)
        model = init_params(spec, 0)
        with pytest.raises(ShapeError, match="record dims"):
            predict(model, np.zeros((2, 1, 5, 5), dtype=np.uint8))

    def test_prediction_is_pure(self):
        spec = ModelSpec("fc-lstm", stacks=2, hidden=3, in_t=3, in_c=2, in_h=4, in_w=4)
        model = init_params(spec, 5)
        frames = np.random.default_rng(6).integers(0, 256, (3, 2, 4, 4))
        assert predict(model, frames) == predict(model, frames)

    def test_pooling_path(self):
        spec = ModelSpec("conv-lstm", stacks=1, hidden=2, pool_factor=2, in_t=2, in_c=1, in_h=5, in_w=5)
        model = init_params(spec, 9)
        frames = np.random.default_rng(9).integers(0, 256, (2, 1, 5, 5))
        steps = preprocess(frames, spec)
        assert steps[0].shape == (1, 3, 3)
        assert math.isfinite(predict(model, frames))


CHECKPOINT_SPECS = [
    ModelSpec("conv-lstm", stacks=2, hidden=3, kernel=3, in_t=2, in_c=2, in_h=4, in_w=4),
    ModelSpec("fc-lstm", stacks=1, hidden=4, in_t=3, in_c=1, in_h=5, in_w=5),
    ModelSpec("linear", in_t=2, in_c=1, in_h=3, in_w=3, pool_factor=2),
]


class TestCheckpoint:
    @pytest.mark.parametrize("spec", CHECKPOINT_SPECS)
    def test_roundtrip_bit_exact(self, spec, tmp_path):
        model = init_params(spec, 77)
        path = tmp_path / "model.drnp"
        save_checkpoint(str(path), model)
        back = load_checkpoint(str(path))
        assert back.spec == spec
        a = model.named_parameters()
        b = back.named_parameters()
        assert list(a) == list(b)
        for name in a:
            assert np.array_equal(a[name], b[name])

    @pytest.mark.parametrize("spec", CHECKPOINT_SPECS)
    def test_from_named_orders_a_shuffled_dict_and_resaves_identical_bytes(self, spec, tmp_path):
        model = init_params(spec, 5)
        named = model.named_parameters()
        order = np.random.default_rng(6).permutation(len(named))
        shuffled = Model.from_named(spec, {list(named)[i]: list(named.values())[i] for i in order})
        assert list(shuffled.named_parameters()) == list(param_shapes(spec))
        assert all(shuffled.named_parameters()[n] is a for n, a in named.items())
        paths = [tmp_path / f"{i}.drnp" for i in range(3)]
        save_checkpoint(str(paths[0]), model)
        save_checkpoint(str(paths[1]), shuffled)
        save_checkpoint(str(paths[2]), load_checkpoint(str(paths[0])))
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()

    def test_named_parameters_is_a_new_dict_over_the_model_arrays(self):
        model = init_params(ModelSpec("linear", in_t=1, in_c=1, in_h=2, in_w=2), 0)
        named = model.named_parameters()
        named["linear.bias"] += 2.5
        del named["linear.weight"]
        assert model.named_parameters()["linear.bias"][0] == 2.5
        assert "linear.weight" in model.named_parameters()

    def test_load_holds_the_data_once(self, tmp_path):
        # 82k weights: reading the whole file, slicing each tensor out of it
        # and converting the slice would peak at three times the file's size
        spec = ModelSpec("linear", in_t=5, in_c=4, in_h=64, in_w=64)
        model = init_params(spec, 2)
        path = tmp_path / "model.drnp"
        save_checkpoint(str(path), model)
        tracemalloc.start()
        try:
            back = load_checkpoint(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for name, arr in model.named_parameters().items():
            assert np.array_equal(back.named_parameters()[name], arr)
        assert peak <= 1.25 * path.stat().st_size, (peak, path.stat().st_size)

    def test_save_holds_the_data_once(self, tmp_path):
        # 612k weights, a 4.9 MB file: building the file in memory before
        # writing it would peak at twice the file's size
        spec = ModelSpec("linear", in_t=15, in_c=4, in_h=101, in_w=101)
        model = init_params(spec, 2)
        path = tmp_path / "model.drnp"
        tracemalloc.start()
        try:
            save_checkpoint(str(path), model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * path.stat().st_size, (peak, path.stat().st_size)
        for name, arr in model.named_parameters().items():
            assert np.array_equal(load_checkpoint(str(path)).named_parameters()[name], arr)

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path):
        target = tmp_path / "model.drnp"
        target.mkdir()
        (target / "kept").write_bytes(b"x")
        spec = ModelSpec("linear", in_t=1, in_c=1, in_h=2, in_w=2)
        with pytest.raises(OSError):
            save_checkpoint(str(target), init_params(spec, 0))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.drnp"]
        assert [p.name for p in target.iterdir()] == ["kept"]
        assert (target / "kept").read_bytes() == b"x"

    def test_save_refuses_a_non_finite_tensor_and_leaves_no_file(self, tmp_path):
        model = init_params(ModelSpec("linear", in_t=1, in_c=1, in_h=2, in_w=2), 0)
        model.params["linear.bias"][0] = float("nan")
        with pytest.raises(CheckpointError, match="tensor linear.bias: non-finite values"):
            save_checkpoint(str(tmp_path / "model.drnp"), model)
        assert list(tmp_path.iterdir()) == []

    def test_roundtrip_preserves_predictions(self, tmp_path):
        spec = ModelSpec("conv-lstm", stacks=1, hidden=2, in_t=2, in_c=1, in_h=4, in_w=4)
        model = init_params(spec, 3)
        frames = np.random.default_rng(4).integers(0, 256, (2, 1, 4, 4))
        path = tmp_path / "model.drnp"
        save_checkpoint(str(path), model)
        assert predict(load_checkpoint(str(path)), frames) == predict(model, frames)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.drnp"
        spec = ModelSpec("linear", in_t=1, in_c=1, in_h=2, in_w=2)
        save_checkpoint(str(path), init_params(spec, 0))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(str(path))

    def test_file_shorter_than_the_header_is_truncated(self, tmp_path):
        path = tmp_path / "model.drnp"
        path.write_bytes(b"DRNP" + bytes(40))  # the header is 45 bytes
        with pytest.raises(CheckpointError, match="truncated file"):
            load_checkpoint(str(path))

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "model.drnp"
        spec = ModelSpec("linear", in_t=1, in_c=1, in_h=2, in_w=2)
        save_checkpoint(str(path), init_params(spec, 0))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(path))

    def test_overflowing_tensor_extents_rejected(self, tmp_path):
        # (2**32-1)**2 elements wrap around in int64 arithmetic
        path = tmp_path / "model.drnp"
        spec = ModelSpec("linear", in_t=1, in_c=1, in_h=2, in_w=2)
        save_checkpoint(str(path), init_params(spec, 0))
        raw = bytearray(path.read_bytes())
        shape_at = raw.index(b"linear.weight") + len(b"linear.weight") + 4  # past the rank
        raw[shape_at : shape_at + 8] = struct.pack("<2I", 2**32 - 1, 2**32 - 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(path))

    @staticmethod
    def _corrupt_header_field(tmp_path, field: int, value: int):
        """Save a small conv-lstm checkpoint, then overwrite one u32 of the
        eight after kind (0 stacks, 1 hidden, 2 kernel, 3 pool_factor, ...)."""
        path = tmp_path / "model.drnp"
        spec = ModelSpec("conv-lstm", stacks=1, hidden=2, in_t=1, in_c=1, in_h=3, in_w=3)
        save_checkpoint(str(path), init_params(spec, 0))
        raw = bytearray(path.read_bytes())
        at = struct.calcsize("<4sIB") + 4 * field
        raw[at : at + 4] = struct.pack("<I", value)
        path.write_bytes(bytes(raw))
        return path

    def test_zero_stacks_rejected(self, tmp_path):
        path = self._corrupt_header_field(tmp_path, 0, 0)
        with pytest.raises(CheckpointError, match="stacks"):
            load_checkpoint(str(path))

    def test_zero_pool_factor_rejected(self, tmp_path):
        path = self._corrupt_header_field(tmp_path, 3, 0)
        with pytest.raises(CheckpointError, match="pool_factor"):
            load_checkpoint(str(path))

    def test_even_conv_kernel_rejected(self, tmp_path):
        path = self._corrupt_header_field(tmp_path, 2, 4)
        with pytest.raises(CheckpointError, match="kernel"):
            load_checkpoint(str(path))

    def test_stack_count_beyond_the_tensors_rejected(self, tmp_path):
        # 2**31 stacks would size a 2**31-stack parameter table from a 1 KB file
        path = self._corrupt_header_field(tmp_path, 0, 2**31)
        with pytest.raises(CheckpointError, match="stacks"):
            load_checkpoint(str(path))

    def test_tensor_count_beyond_the_file_rejected(self, tmp_path):
        # 2**31 stacks and 2**32-1 declared tensors in a 1 KB file
        path = self._corrupt_header_field(tmp_path, 0, 2**31)
        raw = bytearray(path.read_bytes())
        at = struct.calcsize("<4sIB8I")
        raw[at : at + 4] = struct.pack("<I", 2**32 - 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(path))

    def test_repeated_tensor_name_rejected(self, tmp_path):
        path = tmp_path / "model.drnp"
        spec = ModelSpec("linear", in_t=1, in_c=1, in_h=2, in_w=2)
        save_checkpoint(str(path), init_params(spec, 0))
        raw = path.read_bytes()
        at = struct.calcsize("<4sIB8I")
        weight_at = at + 4
        bias_at = raw.index(b"linear.bias") - 4
        bias = struct.pack("<I11sIId", 11, b"linear.bias", 1, 1, 7.0)
        # a third tensor that repeats the bias, declared in the count
        path.write_bytes(raw[:at] + struct.pack("<I", 3) + raw[weight_at:] + bias)
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))
        # the repeat in place of the weight, with the count of the spec
        path.write_bytes(raw[:weight_at] + raw[bias_at:] + bias)
        with pytest.raises(CheckpointError, match="twice"):
            load_checkpoint(str(path))

    def test_many_tiny_tensors_rejected_before_they_are_read(self, tmp_path):
        # Two files whose counts pass the 12-bytes-per-tensor bound:
        # - 100,000 rank-0 linear tensors (2.09 MB): reading them all before
        #   the names are compared would peak at 15 times the file's size;
        # - a conv-lstm header declaring 8,329 stacks and 8,329 tensors, then
        #   as many empty rank-1 tensors (132,199 bytes): building the spec's
        #   99,950-name table before the counts are compared peaks at 126
        #   times the file's size.
        linear = ModelSpec("linear", in_t=1, in_c=1, in_h=2, in_w=2)
        conv = ModelSpec("conv-lstm", in_t=1, in_c=1, in_h=2, in_w=2)
        # spec, declared stacks and count, and each tensor's rank, extents, values
        cases = (
            (linear, 1, 100_000, struct.pack("<Id", 0, 1.0)),
            (conv, 8_329, 8_329, struct.pack("<II", 1, 0)),
        )
        for spec, stacks, count, body in cases:
            path = tmp_path / f"{spec.kind}.drnp"
            save_checkpoint(str(path), init_params(spec, 0))
            header = bytearray(path.read_bytes()[: struct.calcsize("<4sIB8I")])
            struct.pack_into("<I", header, struct.calcsize("<4sIB"), stacks)
            names = [str(i).encode() for i in range(count)]
            path.write_bytes(
                bytes(header)
                + struct.pack("<I", count)
                + b"".join(struct.pack(f"<I{len(n)}s", len(n), n) + body for n in names)
            )
            if spec is conv:
                assert path.stat().st_size == 132_199
            tracemalloc.start()
            try:
                with pytest.raises(CheckpointError, match="tensors"):
                    load_checkpoint(str(path))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * path.stat().st_size, (spec.kind, peak, path.stat().st_size)

    def test_empty_tensor_with_unindexable_extents_rejected(self, tmp_path):
        path = tmp_path / "model.drnp"
        spec = ModelSpec("linear", in_t=1, in_c=1, in_h=2, in_w=2)
        save_checkpoint(str(path), init_params(spec, 0))
        raw = path.read_bytes()
        rank_at = raw.index(b"linear.weight") + len(b"linear.weight")
        values_end = rank_at + 4 + 2 * 4 + 4 * 8  # rank 2, shape (1, 4)
        empty = struct.pack("<5I", 4, 0, 2**31, 2**31, 2**31)  # zero elements
        path.write_bytes(raw[:rank_at] + empty + raw[values_end:])
        with pytest.raises(CheckpointError, match="unusable shape"):
            load_checkpoint(str(path))

    def test_non_utf8_tensor_name_rejected(self, tmp_path):
        path = tmp_path / "model.drnp"
        spec = ModelSpec("linear", in_t=1, in_c=1, in_h=2, in_w=2)
        save_checkpoint(str(path), init_params(spec, 0))
        raw = bytearray(path.read_bytes())
        at = raw.index(b"linear.weight")
        raw[at] = 0xFF  # never valid in UTF-8
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="UTF-8"):
            load_checkpoint(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.drnp"
        spec = ModelSpec("linear", in_t=1, in_c=1, in_h=2, in_w=2)
        save_checkpoint(str(path), init_params(spec, 0))
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(str(path))


def test_lift_registers_every_parameter():
    spec = ModelSpec("conv-lstm", stacks=2, hidden=2, in_t=2, in_c=1, in_h=3, in_w=3)
    model = init_params(spec, 1)
    tape = Tape()
    lifted = lift(tape, model)
    assert set(tape.params) == set(param_shapes(spec))
    frames = np.random.default_rng(2).integers(0, 256, (2, 1, 3, 3))
    pred = build_prediction(tape, lifted, preprocess(frames, spec))
    assert pred.value.shape == (1,)
