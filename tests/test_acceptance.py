"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line (visible with ``pytest -s``).

The heavy criteria (4 and 5) train on the canonical synthetic benchmark
from configs/benchmark.cfg; the README ("Install and test") gives the
module's measured wall time.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from deeprain import reference
from deeprain.autodiff import Tape, grad_check
from deeprain.cli import main
from deeprain.data import (
    DataFormatError,
    SynthConfig,
    minibatches,
    parse_text_file,
    read_binary,
    split,
    synth_generate,
    write_binary,
)
from deeprain.model import (
    CellState,
    CheckpointError,
    ConvLstmCellParams,
    FcLstmCellParams,
    Model,
    ModelSpec,
    build_prediction,
    convlstm_cell_step,
    fclstm_cell_step,
    init_params,
    load_checkpoint,
    preprocess,
    save_checkpoint,
)
from deeprain.optim import AdamState, adam_step
from deeprain.train import TrainConfig, evaluate, train

BENCHMARK = SynthConfig(count=1000, t=5, c=2, h=8, w=8, noise=0.02, a=0.5, b=1.0, seed=42)
BENCH_DIMS = dict(in_t=5, in_c=2, in_h=8, in_w=8)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


@pytest.fixture(scope="module")
def benchmark_records():
    return synth_generate(BENCHMARK)


def tiny_gradcheck_spec(kind, stacks):
    return ModelSpec(kind=kind, stacks=stacks, hidden=2, kernel=3, in_t=3, in_c=2, in_h=5, in_w=5)


def run_gradcheck(kind, stacks, seed=42):
    spec = tiny_gradcheck_spec(kind, stacks)
    rng = np.random.default_rng(seed)
    frames = rng.integers(0, 256, (spec.in_t, spec.in_c, spec.in_h, spec.in_w))
    inputs = preprocess(frames, spec)
    target = np.array([float(rng.uniform(0.0, 5.0))])
    params = init_params(spec, seed=seed).named_parameters()

    def loss_fn(values):
        tape = Tape()
        nodes = {name: tape.param(name, arr) for name, arr in values.items()}
        pred = build_prediction(tape, Model.from_named(spec, nodes), inputs)
        tape.squared_error(pred, tape.const(target))
        return tape

    return grad_check(loss_fn, params, step=1e-3, tol=1e-4)


def test_criterion_1_gradient_correctness():
    with criterion(1, "gradient correctness"):
        started = time.perf_counter()
        for kind, stacks in (("linear", 1), ("fc-lstm", 1), ("conv-lstm", 1), ("conv-lstm", 2)):
            report = run_gradcheck(kind, stacks)
            assert report.passed, f"{kind} x{stacks}:\n{report.render()}"
        assert time.perf_counter() - started < 60.0


def test_criterion_2_cell_equation_fidelity():
    with criterion(2, "cell-equation fidelity"):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            hidden, cin = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            k = int(rng.choice([1, 3, 5]))
            h = int(rng.integers(2, 6))
            w = int(rng.integers(2, 6))
            arrays = {}
            for n in ("w_xi", "w_xf", "w_xo", "w_xc"):
                arrays[n] = rng.normal(0, 0.6, (hidden, cin, k, k))
            for n in ("w_hi", "w_hf", "w_ho", "w_hc"):
                arrays[n] = rng.normal(0, 0.6, (hidden, hidden, k, k))
            for n in ("b_i", "b_f", "b_o", "b_c"):
                arrays[n] = rng.normal(0, 0.6, hidden)
            x = rng.normal(0, 1, (cin, h, w))
            h0 = rng.normal(0, 0.7, (hidden, h, w))
            c0 = rng.normal(0, 0.7, (hidden, h, w))
            tape = Tape()
            cell = ConvLstmCellParams(**{kk: tape.const(v) for kk, v in arrays.items()})
            state = convlstm_cell_step(
                tape, cell, tape.const(x), CellState(tape.const(h0), tape.const(c0))
            )
            h_ref, c_ref = reference.convlstm_cell_naive(arrays, x, h0, c0)
            assert np.abs(state.h.value - h_ref).max() < 1e-12
            assert np.abs(state.c.value - c_ref).max() < 1e-12


def test_criterion_3_degenerate_equivalence():
    with criterion(3, "degenerate conv/fc equivalence"):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            hidden, cin = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            conv_arrays = {}
            for n in ("w_xi", "w_xf", "w_xo", "w_xc"):
                conv_arrays[n] = rng.normal(0, 0.8, (hidden, cin, 1, 1))
            for n in ("w_hi", "w_hf", "w_ho", "w_hc"):
                conv_arrays[n] = rng.normal(0, 0.8, (hidden, hidden, 1, 1))
            for n in ("b_i", "b_f", "b_o", "b_c"):
                conv_arrays[n] = rng.normal(0, 0.8, hidden)
            fc_arrays = {
                kk: (v[..., 0, 0] if v.ndim == 4 else v) for kk, v in conv_arrays.items()
            }
            x = rng.normal(0, 1, cin)
            h0 = rng.normal(0, 0.7, hidden)
            c0 = rng.normal(0, 0.7, hidden)

            tc = Tape()
            conv_cell = ConvLstmCellParams(**{kk: tc.const(v) for kk, v in conv_arrays.items()})
            cs = convlstm_cell_step(
                tc,
                conv_cell,
                tc.const(x.reshape(cin, 1, 1)),
                CellState(tc.const(h0.reshape(hidden, 1, 1)), tc.const(c0.reshape(hidden, 1, 1))),
            )
            tf = Tape()
            fc_cell = FcLstmCellParams(**{kk: tf.const(v) for kk, v in fc_arrays.items()})
            fs = fclstm_cell_step(tf, fc_cell, tf.const(x), CellState(tf.const(h0), tf.const(c0)))
            assert np.abs(cs.h.value.ravel() - fs.h.value).max() < 1e-12
            assert np.abs(cs.c.value.ravel() - fs.c.value).max() < 1e-12


def test_criterion_4_table_ordering(benchmark_records):
    with criterion(4, "benchmark model ordering"):
        started = time.perf_counter()
        records = benchmark_records
        sp = split(len(records), seed=42)

        def run(spec):
            result = train(TrainConfig(model=spec, seed=42), records, sp)
            return evaluate(result.model, records, sp.test)

        conv_rmse = run(ModelSpec("conv-lstm", stacks=2, hidden=8, kernel=3, **BENCH_DIMS))
        fc_rmse = run(ModelSpec("fc-lstm", stacks=1, hidden=8, **BENCH_DIMS))
        linear_rmse = run(ModelSpec("linear", **BENCH_DIMS))
        elapsed = time.perf_counter() - started
        print(
            f"[acceptance] benchmark test RMSE: conv-lstm(2)={conv_rmse:.4f} "
            f"fc-lstm={fc_rmse:.4f} linear={linear_rmse:.4f} ({elapsed:.0f}s)"
        )
        assert conv_rmse < linear_rmse
        assert conv_rmse <= fc_rmse
        assert elapsed < 1800.0


def test_criterion_5_convergence_speed(benchmark_records):
    # The documented claim is the seed-42 ordering only: across seeds 42-55
    # neither model leads reliably at epoch 5 (see CHANGES.md).
    with criterion(5, "epoch-5 convergence ordering"):
        records = benchmark_records
        sp = split(len(records), seed=42)

        def epoch5_val(kind, stacks):
            spec = ModelSpec(kind, stacks=stacks, hidden=8, kernel=3, **BENCH_DIMS)
            cfg = TrainConfig(model=spec, max_epochs=5, early_stop_patience=5, seed=42)
            return train(cfg, records, sp).stats[4].val_rmse

        conv5 = epoch5_val("conv-lstm", 2)
        fc5 = epoch5_val("fc-lstm", 1)
        print(f"[acceptance] seed 42: conv ep5 val={conv5:.4f} fc ep5 val={fc5:.4f}")
        assert conv5 < fc5, f"conv ep5 val={conv5:.4f} >= fc ep5 val={fc5:.4f}"


def test_criterion_6_protocol_fidelity():
    with criterion(6, "protocol fidelity"):
        sp = split(10_000, seed=42)
        assert (len(sp.train), len(sp.validation), len(sp.test)) == (9000, 500, 500)
        batches = minibatches(sp.train, 30, epoch=0, seed=42)
        assert all(len(b) == 30 for b in batches)
        assert sorted(i for b in batches for i in b) == sorted(sp.train)
        cfg = TrainConfig(model=ModelSpec("linear", **BENCH_DIMS))
        assert cfg.lr == 0.001
        assert cfg.batch_size == 30
        assert cfg.max_epochs == 50


def test_criterion_7_data_roundtrips(tmp_path):
    with criterion(7, "data round-trips"):
        records = synth_generate(SynthConfig(count=5, t=2, c=2, h=5, w=5, noise=0.1, seed=3))
        # text -> memory vs text -> binary -> memory
        text_path = tmp_path / "fixture.txt"
        lines = ["# fixture"]
        for rec in records:
            lines.append(f"{rec.label!r} " + " ".join(str(v) for v in rec.frames.ravel()))
        text_path.write_text("\n".join(lines) + "\n")
        parsed = parse_text_file(str(text_path), (2, 2, 5, 5))
        bin_path = tmp_path / "fixture.drn1"
        write_binary(parsed, str(bin_path))
        assert read_binary(str(bin_path)) == parsed
        assert parsed == records

        # DRN1 writes are byte-identical
        again = tmp_path / "fixture2.drn1"
        write_binary(read_binary(str(bin_path)), str(again))
        assert again.read_bytes() == bin_path.read_bytes()

        # DRNP round-trip, byte-identical rewrite
        model = init_params(ModelSpec("conv-lstm", stacks=2, hidden=3, in_t=2, in_c=2, in_h=5, in_w=5), 9)
        ckpt = tmp_path / "model.drnp"
        save_checkpoint(str(ckpt), model)
        loaded = load_checkpoint(str(ckpt))
        for name, arr in model.named_parameters().items():
            assert np.array_equal(arr, loaded.named_parameters()[name])
        ckpt2 = tmp_path / "model2.drnp"
        save_checkpoint(str(ckpt2), loaded)
        assert ckpt2.read_bytes() == ckpt.read_bytes()

        # corrupted magic rejected in both containers
        bad_bin = bytearray(bin_path.read_bytes())
        bad_bin[:4] = b"ZZZZ"
        (tmp_path / "bad.drn1").write_bytes(bytes(bad_bin))
        with pytest.raises(DataFormatError, match="bad magic"):
            read_binary(str(tmp_path / "bad.drn1"))
        bad_ckpt = bytearray(ckpt.read_bytes())
        bad_ckpt[:4] = b"ZZZZ"
        (tmp_path / "bad.drnp").write_bytes(bytes(bad_ckpt))
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(str(tmp_path / "bad.drnp"))


def test_criterion_8_cli_determinism(tmp_path, capsys):
    with criterion(8, "training determinism"):
        records = synth_generate(SynthConfig(count=60, t=3, c=1, h=6, w=6, noise=0.05, seed=8))
        data = tmp_path / "det.drn1"
        write_binary(records, str(data))

        def run(tag, threads):
            curve = tmp_path / f"curve_{tag}.csv"
            ckpt = tmp_path / f"model_{tag}.drnp"
            code = main([
                "train", "--data", str(data), "--model", "conv-lstm",
                "--stacks", "1", "--hidden", "4", "--epochs", "3",
                "--batch", "10", "--seed", "17",
                "--curve", str(curve), "--ckpt", str(ckpt),
                "--threads", str(threads),
            ])
            assert code == 0
            return curve.read_bytes(), ckpt.read_bytes()

        first = run("a", 1)
        second = run("b", 1)
        threaded = run("c", 4)
        capsys.readouterr()
        assert first == second
        assert first == threaded


def test_criterion_9_adam_unit_behavior():
    with criterion(9, "adam unit behavior"):
        for g in (1.0, -1.0, 0.5, -2.5, 10.0, 300.0, 0.05):
            state = AdamState()
            params = {"w": np.array([0.0])}
            adam_step(state, params, {"w": np.array([g])})
            magnitude = abs(params["w"][0])
            assert abs(magnitude - 0.001) <= 1e-6 * 0.001
            assert np.sign(params["w"][0]) == -np.sign(g)

        expected = reference.adam_trace_scalar(1.0, lambda t: 2.0 * t, 0.001, 0.9, 0.999, 1e-8, 3)
        assert abs(expected[0] - 0.999000000005) < 1e-15
        state = AdamState()
        params = {"w": np.array([1.0])}
        for want in expected:
            adam_step(state, params, {"w": np.array([2.0 * params["w"][0]])})
            assert abs(params["w"][0] - want) < 1e-12
