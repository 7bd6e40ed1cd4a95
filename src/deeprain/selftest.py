"""Named runtime checks behind the ``selftest`` command: oracle
equivalences, format round-trips, and determinism, each independent of the
test suite so a fresh install can verify itself."""

from __future__ import annotations

import os
import tempfile

import numpy as np

from . import reference
from .autodiff import Tape
from .data import (
    DataFormatError,
    SynthConfig,
    atomic_write,
    minibatches,
    read_binary,
    split,
    synth_generate,
    synth_label,
    write_binary,
)
from .model import (
    CellState,
    LstmCellParams,
    ModelSpec,
    _cell_layout,
    gradcheck_model,
    init_params,
    load_checkpoint,
    lstm_cell_step,
    save_checkpoint,
)
from .optim import AdamState, adam_step
from .tensor import conv2d, map_sigmoid, map_tanh
from .train import TrainConfig, train


def _random_cell_arrays(rng, hidden, cin, k):
    return {name: rng.normal(0, 0.4, shape) for name, shape in _cell_layout(hidden, cin, (k, k))}


def check_conv2d_matches_naive_reference():
    rng = np.random.default_rng(1)
    for _ in range(3):
        x = rng.normal(0, 1, (3, 5, 6))
        k = rng.normal(0, 1, (2, 3, 3, 3))
        b = rng.normal(0, 1, 2)
        fast = conv2d(x, k, b)
        slow = reference.conv2d_naive(x, k, b)
        assert np.max(np.abs(fast - slow)) < 1e-12


def check_conv2d_linearity():
    rng = np.random.default_rng(2)
    k = rng.normal(0, 1, (2, 2, 3, 3))
    x = rng.normal(0, 1, (2, 4, 4))
    y = rng.normal(0, 1, (2, 4, 4))
    lhs = conv2d(1.5 * x + 2.5 * y, k)
    rhs = 1.5 * conv2d(x, k) + 2.5 * conv2d(y, k)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def check_sigmoid_tanh_open_intervals():
    v = np.array([-1e6, -50.0, -2.0, 0.0, 2.0, 50.0, 1e6])
    s = map_sigmoid(v)
    t = map_tanh(v)
    assert np.all((s > 0) & (s < 1))
    assert np.all((t > -1) & (t < 1))
    assert s[3] == 0.5 and t[3] == 0.0


def check_convlstm_cell_matches_transcription():
    rng = np.random.default_rng(3)
    arrays = _random_cell_arrays(rng, hidden=3, cin=2, k=3)
    x = rng.normal(0, 1, (2, 4, 4))
    h0 = rng.normal(0, 0.5, (3, 4, 4))
    c0 = rng.normal(0, 0.5, (3, 4, 4))
    tape = Tape()
    cell = LstmCellParams(**{k: tape.const(v) for k, v in arrays.items()})
    state = lstm_cell_step(
        tape, cell, tape.const(x), CellState(tape.const(h0), tape.const(c0))
    )
    h_ref, c_ref = reference.convlstm_cell_naive(arrays, x, h0, c0)
    assert np.max(np.abs(state.h.value - h_ref)) < 1e-12
    assert np.max(np.abs(state.c.value - c_ref)) < 1e-12


def check_degenerate_equivalence():
    # 1x1 spatial input with a 1x1 kernel is exactly a matrix product.
    rng = np.random.default_rng(4)
    hidden, cin = 3, 2
    conv_arrays = _random_cell_arrays(rng, hidden, cin, 1)
    fc_arrays = {
        k: (v[..., 0, 0] if v.ndim == 4 else v) for k, v in conv_arrays.items()
    }
    x = rng.normal(0, 1, cin)
    tc = Tape()
    conv_cell = LstmCellParams(**{k: tc.const(v) for k, v in conv_arrays.items()})
    cs = lstm_cell_step(
        tc,
        conv_cell,
        tc.const(x.reshape(cin, 1, 1)),
        CellState(tc.const(np.zeros((hidden, 1, 1))), tc.const(np.zeros((hidden, 1, 1)))),
    )
    tf = Tape()
    fc_cell = LstmCellParams(**{k: tf.const(v) for k, v in fc_arrays.items()})
    fs = lstm_cell_step(
        tf,
        fc_cell,
        tf.const(x),
        CellState(tf.const(np.zeros(hidden)), tf.const(np.zeros(hidden))),
    )
    assert np.max(np.abs(cs.h.value.ravel() - fs.h.value)) < 1e-12
    assert np.max(np.abs(cs.c.value.ravel() - fs.c.value)) < 1e-12


def check_gradients_match_finite_differences():
    spec = ModelSpec("conv-lstm", stacks=1, hidden=2, kernel=3, in_t=2, in_c=2, in_h=4, in_w=4)
    report = gradcheck_model(spec, seed=7)
    assert report.passed, report.render()


def check_adam_first_step_and_trace():
    state = AdamState()
    params = {"w": np.array([1.0])}
    adam_step(state, params, {"w": np.array([4.0])})
    assert abs(abs(1.0 - params["w"][0]) - 0.001) < 1e-6 * 0.001
    trace = reference.adam_trace_scalar(1.0, lambda t: 2.0 * t, 0.001, 0.9, 0.999, 1e-8, 3)
    state = AdamState()
    params = {"w": np.array([1.0])}
    for expected in trace:
        adam_step(state, params, {"w": np.array([2.0 * params["w"][0]])})
        assert abs(params["w"][0] - expected) < 1e-12


def check_binary_roundtrip():
    records = synth_generate(SynthConfig(count=3, t=2, c=1, h=4, w=4, seed=9))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rt.drn1")
        write_binary(records, path)
        back = read_binary(path)
    assert back == records


def check_binary_rejects_corruption():
    records = synth_generate(SynthConfig(count=1, t=2, c=1, h=4, w=4, seed=10))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.drn1")
        write_binary(records, path)
        with open(path, "rb") as fh:
            good = fh.read()
        atomic_write(path, lambda fh: fh.write(b"XXXX" + good[4:]))
        try:
            read_binary(path)
        except DataFormatError:
            return
    raise AssertionError("corrupted magic was accepted")


def check_checkpoint_roundtrip():
    spec = ModelSpec("conv-lstm", stacks=2, hidden=3, kernel=3, in_t=2, in_c=2, in_h=4, in_w=4)
    model = init_params(spec, seed=11)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rt.drnp")
        save_checkpoint(path, model)
        back = load_checkpoint(path)
    for name, arr in model.named_parameters().items():
        other = back.named_parameters()[name]
        assert arr.shape == other.shape and np.array_equal(arr, other)
    assert back.spec == spec


def check_split_partitions():
    for n, seed in ((10, 0), (97, 3), (10000, 42)):
        s = split(n, seed=seed)
        combined = sorted(s.train + s.validation + s.test)
        assert combined == list(range(n))
    s = split(10000, seed=42)
    assert (len(s.train), len(s.validation), len(s.test)) == (9000, 500, 500)


def check_minibatch_permutations():
    idxs = list(range(91))
    for epoch in range(3):
        batches = minibatches(idxs, 30, epoch, seed=5)
        assert [len(b) for b in batches] == [30, 30, 30, 1]
        assert sorted(i for b in batches for i in b) == idxs


def check_synth_label_closed_form():
    cfg = SynthConfig(count=5, t=5, c=2, h=8, w=8, noise=0.0, seed=12)
    for rec in synth_generate(cfg):
        assert abs(rec.label - synth_label(rec.frames, cfg.a, cfg.b)) < 1e-12


def check_forward_backward_rerun_bitwise():
    rng = np.random.default_rng(13)
    x = rng.normal(0, 1, (2, 3, 3))
    k = rng.normal(0, 1, (1, 2, 3, 3))
    tape = Tape()
    kn = tape.param("k", k)
    pred = tape.global_avg_pool(tape.tanh(tape.conv2d(tape.const(x), kn)))
    tape.squared_error(pred, tape.const(np.array([0.5])))
    first_loss = tape.forward()
    first = tape.backward()["k"].copy()
    second_loss = tape.forward()
    second = tape.backward()["k"]
    assert first_loss == second_loss
    assert np.array_equal(first, second)


def check_train_rerun_bitwise():
    records = synth_generate(SynthConfig(count=24, t=2, c=1, h=4, w=4, seed=14))
    spec = ModelSpec("conv-lstm", stacks=1, hidden=2, kernel=3, in_t=2, in_c=1, in_h=4, in_w=4)
    sp = split(len(records), (0.75, 0.125, 0.125), seed=14)
    cfg = TrainConfig(model=spec, batch_size=6, max_epochs=2, seed=14)
    a = train(cfg, records, sp)
    b = train(cfg, records, sp)
    assert [(s.train_rmse, s.val_rmse) for s in a.stats] == [
        (s.train_rmse, s.val_rmse) for s in b.stats
    ]
    for name, arr in a.model.named_parameters().items():
        assert np.array_equal(arr, b.model.named_parameters()[name])


# Every check above, in definition order: defining one registers it.
ALL_CHECKS = [fn for name, fn in globals().items() if name.startswith("check_")]


def run_checks(checks=None, out=print) -> bool:
    """Run every check, print one line each plus a summary; True iff all pass."""
    checks = ALL_CHECKS if checks is None else checks
    passed = 0
    for check in checks:
        name = check.__name__.removeprefix("check_")
        try:
            check()
        except Exception as exc:  # report and continue; the summary decides
            out(f"FAIL {name}: {exc}")
        else:
            out(f"ok {name}")
            passed += 1
    out(f"selftest: {passed}/{len(checks)} checks passed")
    return passed == len(checks)
