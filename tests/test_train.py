import csv
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deeprain.data import RadarRecord, SynthConfig, split, synth_generate
from deeprain.autodiff import Tape
from deeprain.model import (
    Model,
    ModelSpec,
    build_prediction,
    init_params,
    lift,
    param_shapes,
    predict,
    preprocess,
    record_bytes,
)
from deeprain.train import (
    DivergenceError,
    EpochStats,
    TrainConfig,
    emit_curve,
    evaluate,
    minibatch_gradient,
    rmse,
    train,
)

TINY = dict(in_t=2, in_c=1, in_h=4, in_w=4)


def tiny_dataset(count=40, seed=1):
    records = synth_generate(SynthConfig(count=count, t=2, c=1, h=4, w=4, noise=0.1, a=1.0, b=1.0, seed=seed))
    sp = split(count, (0.8, 0.1, 0.1), seed=seed)
    return records, sp


class TestRmse:
    def test_basic(self):
        assert abs(rmse([1, 2], [1, 4]) - math.sqrt(2)) < 1e-12

    def test_identical_lists(self):
        assert rmse([0.5, 1.5, 2.5], [0.5, 1.5, 2.5]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rmse([], [])

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            rmse([1.0], [1.0, 2.0])

    def test_overflowing_sum_is_inf(self):
        # both squares are finite (8.41e306 and 1.7689e308); their sum is not
        assert rmse([2.9e153, 1.33e154], [0, 0]) == math.inf

    @given(st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)), min_size=1, max_size=40),
           st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_exactly_permutation_invariant(self, pairs, seed):
        base = rmse([p for p, _ in pairs], [t for _, t in pairs])
        rng = random.Random(seed)
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        assert rmse([p for p, _ in shuffled], [t for _, t in shuffled]) == base


class TestTrainConfig:
    def test_defaults_match_protocol(self):
        cfg = TrainConfig(model=ModelSpec("linear", **TINY))
        assert cfg.optimizer == "adam"
        assert cfg.lr == 0.001
        assert cfg.batch_size == 30
        assert cfg.max_epochs == 50
        assert cfg.early_stop_patience == 3

    def test_validation(self):
        spec = ModelSpec("linear", **TINY)
        with pytest.raises(ValueError):
            TrainConfig(model=spec, lr=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(model=spec, lr=math.nan)
        with pytest.raises(ValueError):
            TrainConfig(model=spec, batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(model=spec, max_epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(model=spec, optimizer="lbfgs")


class TestTrain:
    def test_zero_lr_is_noop_and_stops_early(self):
        records, sp = tiny_dataset()
        spec = ModelSpec("linear", **TINY)
        cfg = TrainConfig(model=spec, lr=0.0, optimizer="gd", batch_size=8, max_epochs=10, seed=4)
        before = init_params(spec, cfg.seed).named_parameters()
        result = train(cfg, records, sp)
        after = result.model.named_parameters()
        for name in before:
            assert np.array_equal(before[name], after[name])
        train_vals = [s.train_rmse for s in result.stats]
        assert all(v == train_vals[0] for v in train_vals)
        # no validation improvement after epoch 0: patience 3 stops at epoch 3
        assert len(result.stats) == 4

    def test_selection_property(self):
        records, sp = tiny_dataset(count=60, seed=7)
        spec = ModelSpec("conv-lstm", stacks=2, hidden=2, kernel=3, **TINY)
        cfg = TrainConfig(model=spec, batch_size=10, max_epochs=6, early_stop_patience=6, seed=7)
        result = train(cfg, records, sp)
        assert result.best_val_rmse == min(s.val_rmse for s in result.stats)
        got = evaluate(result.model, records, sp.validation)
        assert abs(got - result.best_val_rmse) < 1e-12

    def test_selection_returns_the_best_epoch_not_the_last(self):
        records = synth_generate(SynthConfig(count=40, t=3, c=1, h=4, w=4, noise=0.05, seed=4))
        sp = split(40, (0.6, 0.2, 0.2), seed=4)
        spec = ModelSpec("fc-lstm", hidden=2, in_t=3, in_c=1, in_h=4, in_w=4)
        cfg = TrainConfig(model=spec, lr=0.05, batch_size=8, max_epochs=6, early_stop_patience=6, seed=4)
        result = train(cfg, records, sp)
        stats = result.stats
        # the fixture's precondition: the last epoch's parameters are not the best
        assert result.best_epoch < len(stats) - 1
        assert evaluate(result.model, records, sp.validation) == stats[result.best_epoch].val_rmse

    def test_rerun_reproduces_stats_and_model(self):
        records, sp = tiny_dataset(count=30, seed=9)
        spec = ModelSpec("fc-lstm", stacks=1, hidden=3, **TINY)
        cfg = TrainConfig(model=spec, batch_size=6, max_epochs=3, seed=9)
        a = train(cfg, records, sp)
        b = train(cfg, records, sp)
        assert [(s.epoch, s.train_rmse, s.val_rmse, s.seconds) for s in a.stats] == [
            (s.epoch, s.train_rmse, s.val_rmse, s.seconds) for s in b.stats
        ]
        for name, arr in a.model.named_parameters().items():
            assert np.array_equal(arr, b.model.named_parameters()[name])

    def test_divergence_aborts_with_diagnostic(self):
        records, sp = tiny_dataset(count=30, seed=13)
        spec = ModelSpec("linear", **TINY)
        cfg = TrainConfig(
            model=spec, optimizer="gd", lr=1e12, batch_size=8, max_epochs=10,
            early_stop_patience=10, seed=13,
        )
        with pytest.raises(DivergenceError, match="epoch"):
            train(cfg, records, sp)

    def test_overflowing_batch_loss_aborts(self):
        # each squared error, about 1.44e308, is finite; the batch's sum is not
        records, sp = tiny_dataset(count=40, seed=13)
        records = [RadarRecord(1.2e154, r.frames) for r in records]
        cfg = TrainConfig(model=ModelSpec("linear", **TINY), batch_size=8, seed=13)
        with pytest.raises(DivergenceError, match=r"^non-finite loss inf at epoch 0, batch 0$"):
            train(cfg, records, sp)

    def test_non_finite_validation_rmse_aborts(self):
        # one batch holds every training record: its loss is finite, and the
        # update it makes sends every validation prediction to inf
        records, sp = tiny_dataset(count=40, seed=13)
        cfg = TrainConfig(
            model=ModelSpec("linear", **TINY), optimizer="gd", lr=1e200, batch_size=60,
            max_epochs=1, early_stop_patience=1, seed=13,
        )
        with pytest.raises(DivergenceError, match="validation RMSE"):
            train(cfg, records, sp)

    def test_non_finite_step_names_its_tensor_and_batch(self, monkeypatch):
        # Adam turns an infinite gradient into inf/inf = NaN in the weights;
        # the next batch's loss would blame batch 2
        records, sp = tiny_dataset(count=40, seed=13)
        calls = []

        def injected(model, inputs, labels):
            preds, loss, grads = minibatch_gradient(model, inputs, labels)
            calls.append(None)
            if len(calls) == 2:
                grads["linear.weight"][0, 0] = math.inf
            return preds, loss, grads

        monkeypatch.setattr("deeprain.train.minibatch_gradient", injected)
        cfg = TrainConfig(model=ModelSpec("linear", **TINY), batch_size=8, max_epochs=1, seed=13)
        with pytest.raises(DivergenceError, match=r"non-finite linear\.weight after the step "
                           r"at epoch 0, batch 1$"):
            train(cfg, records, sp)

    def test_requires_nonempty_split(self):
        records, sp = tiny_dataset(count=10)
        sp.validation = []
        with pytest.raises(ValueError, match="nonempty"):
            train(TrainConfig(model=ModelSpec("linear", **TINY), seed=0), records, sp)

    def test_timing_flag_fills_seconds(self):
        records, sp = tiny_dataset(count=20, seed=15)
        spec = ModelSpec("linear", **TINY)
        timed = train(TrainConfig(model=spec, batch_size=8, max_epochs=2, seed=15, timing=True), records, sp)
        plain = train(TrainConfig(model=spec, batch_size=8, max_epochs=2, seed=15), records, sp)
        assert all(s.seconds > 0 for s in timed.stats)
        assert all(s.seconds == 0.0 for s in plain.stats)


def one_tape_gradient(model, inputs, labels):
    """The reference: every record of the batch on one tape under one
    mean_scalars node, and one backward pass."""
    tape = Tape()
    lifted = lift(tape, model)
    preds, losses = [], []
    for x, y in zip(inputs, labels):
        pred = build_prediction(tape, lifted, x)
        preds.append(float(pred.value[0]))
        losses.append(tape.squared_error(pred, tape.const(np.array([y]))))
    tape.mean_scalars(losses)
    loss = tape.forward()
    return preds, loss, tape.backward()


STREAM_SPECS = [
    ModelSpec("linear", in_t=3, in_c=2, in_h=6, in_w=6),
    ModelSpec("fc-lstm", stacks=1, hidden=3, in_t=3, in_c=2, in_h=6, in_w=6),
    ModelSpec("conv-lstm", stacks=2, hidden=3, kernel=3, in_t=3, in_c=2, in_h=6, in_w=6),
]


class TestStreamedBatch:
    @pytest.mark.parametrize("spec", STREAM_SPECS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_equals_one_tape_batch_bitwise(self, spec, n):
        # Channel 1 is blank and every label exceeds its prediction, so each
        # record gives the linear channel-1 weights a gradient of -0.0: a
        # fold started from +0.0 instead of the first record would show.
        records = synth_generate(SynthConfig(count=n, t=3, c=2, h=6, w=6, noise=0.1, seed=n))
        for r in records:
            r.frames[:, 1] = 0
        inputs = [preprocess(r.frames, spec) for r in records]
        labels = [r.label + 5.0 for r in records]
        model = init_params(spec, 5)
        preds, loss, grads = minibatch_gradient(model, inputs, labels)
        want_preds, want_loss, want_grads = one_tape_gradient(model, inputs, labels)
        assert preds == want_preds
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert list(grads) == list(want_grads)
        for name, g in grads.items():
            assert g.tobytes() == want_grads[name].tobytes(), name
        if spec.kind == "linear":
            assert np.signbit(grads["linear.weight"][grads["linear.weight"] == 0]).any()

    @pytest.mark.parametrize("spec", STREAM_SPECS[1:], ids=lambda s: s.kind)
    def test_chunks_equal_one_tape_batch_bitwise(self, spec, monkeypatch):
        # A budget of three records' arrays splits a batch of 7 into tapes
        # of 3, 3 and 1; each chunk's sums continue the last chunk's.
        monkeypatch.setattr(sys.modules["deeprain.train"], "CHUNK_BYTES", 3 * record_bytes(spec) + 7)
        backward = Tape.backward
        chunks = []
        monkeypatch.setattr(Tape, "backward", lambda tape: chunks.append(tape) or backward(tape))
        records = synth_generate(SynthConfig(count=7, t=3, c=2, h=6, w=6, noise=0.1, seed=11))
        inputs = [preprocess(r.frames, spec) for r in records]
        labels = [r.label for r in records]
        model = init_params(spec, 6)
        preds, loss, grads = minibatch_gradient(model, iter(inputs), labels)
        assert len(chunks) == 3
        want_preds, want_loss, want_grads = one_tape_gradient(model, inputs, labels)
        assert preds == want_preds
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert list(grads) == list(want_grads)
        for name, g in grads.items():
            assert g.tobytes() == want_grads[name].tobytes(), name

    @pytest.mark.parametrize("spec", STREAM_SPECS, ids=lambda s: s.kind)
    def test_inputs_and_labels_of_unequal_length_rejected(self, spec):
        records = synth_generate(SynthConfig(count=4, t=3, c=2, h=6, w=6, noise=0.1, seed=12))
        inputs = [preprocess(r.frames, spec) for r in records]
        labels = [r.label for r in records]
        model = init_params(spec, 7)
        for xs, ys in ((inputs, labels[:3]), (inputs[:3], labels), (iter(inputs), labels[:1]),
                       (inputs[:1], [])):
            with pytest.raises(ValueError, match="length mismatch"):
                minibatch_gradient(model, xs, ys)

    @pytest.mark.parametrize("spec", STREAM_SPECS, ids=lambda s: s.kind)
    def test_empty_batch_rejected(self, spec):
        with pytest.raises(ValueError, match="empty batch"):
            minibatch_gradient(init_params(spec, 7), [], [])

    @pytest.mark.parametrize("spec", STREAM_SPECS[1:], ids=lambda s: s.kind)
    def test_a_chunk_is_one_graph_whatever_its_record_count(self, spec, monkeypatch):
        # The head, the loss and the batch share run once over a chunk's
        # stacked records, so a chunk of 7 records has the nodes of a chunk of 1.
        monkeypatch.setattr(sys.modules["deeprain.train"], "CHUNK_BYTES", 7 * record_bytes(spec))
        backward = Tape.backward
        nodes = []
        monkeypatch.setattr(Tape, "backward", lambda tape: nodes.append(len(tape.nodes)) or backward(tape))
        records = synth_generate(SynthConfig(count=7, t=3, c=2, h=6, w=6, noise=0.1, seed=11))
        inputs = [preprocess(r.frames, spec) for r in records]
        model = init_params(spec, 6)
        for k in (1, 7):
            minibatch_gradient(model, inputs[:k], [r.label for r in records[:k]])
        assert len(nodes) == 2 and nodes[0] == nodes[1], nodes

    # README "Memory": each geometry's batch size and the records on each of
    # its tapes under the default budget and input cap
    CANONICAL = dict(in_t=5, in_c=2, in_h=8, in_w=8)
    SIXTEEN = dict(in_t=5, in_c=2, in_h=16, in_w=16)
    CHUNK_ROWS = [
        ("fc-lstm-1x8-canonical", ModelSpec("fc-lstm", stacks=1, hidden=8, **CANONICAL), 30, [30]),
        ("conv-lstm-2x8-canonical", ModelSpec("conv-lstm", stacks=2, hidden=8, **CANONICAL), 30,
         [4] * 7 + [2]),
        ("fc-lstm-2x8-16x16", ModelSpec("fc-lstm", stacks=2, hidden=8, **SIXTEEN), 13, [12, 1]),
        ("conv-lstm-2x8-16x16", ModelSpec("conv-lstm", stacks=2, hidden=8, **SIXTEEN), 2, [1, 1]),
        ("conv-lstm-2x8-paper-pool4", ModelSpec("conv-lstm", stacks=2, hidden=8, pool_factor=4),
         2, [1, 1]),
        ("linear-canonical", ModelSpec("linear", **CANONICAL), 2, [1, 1]),
    ]

    @pytest.mark.parametrize("spec, n, layout", [row[1:] for row in CHUNK_ROWS],
                             ids=[row[0] for row in CHUNK_ROWS])
    def test_default_chunk_sizes(self, spec, n, layout, monkeypatch):
        # The chunk rule is derived, not set: a canonical FC-LSTM batch of
        # 30 is one tape, canonical ConvLSTM 2x8 four records a tape, and a
        # 16x16 or paper-geometry ConvLSTM record its own tape.
        backward = Tape.backward
        tapes = []
        monkeypatch.setattr(Tape, "backward", lambda tape: tapes.append(tape) or backward(tape))
        records = synth_generate(SynthConfig(count=n, t=spec.in_t, c=spec.in_c, h=spec.in_h,
                                             w=spec.in_w, noise=0.1, seed=31))
        minibatch_gradient(init_params(spec, 31), (preprocess(r.frames, spec) for r in records),
                           [r.label for r in records])
        # the loss is the tape's last node: mul(squared_error(estimates, labels), share)
        assert [len(t.nodes[-1].parents[0].parents[0].value) for t in tapes] == layout

    def test_default_chunks_equal_one_tape_batch_bitwise(self, monkeypatch):
        # Canonical ConvLSTM 2x8 at the default budget: a batch of 30 is
        # seven chunks of 4 and a last one of 2, with one tape's bits.
        spec = ModelSpec("conv-lstm", stacks=2, hidden=8, **self.CANONICAL)
        backward = Tape.backward
        chunks = []
        monkeypatch.setattr(Tape, "backward", lambda tape: chunks.append(tape) or backward(tape))
        records = synth_generate(SynthConfig(count=30, noise=0.1, seed=32))
        inputs = [preprocess(r.frames, spec) for r in records]
        labels = [r.label for r in records]
        model = init_params(spec, 32)
        preds, loss, grads = minibatch_gradient(model, iter(inputs), labels)
        assert len(chunks) == 8
        want_preds, want_loss, want_grads = one_tape_gradient(model, inputs, labels)
        assert preds == want_preds
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert list(grads) == list(want_grads)
        for name, g in grads.items():
            assert g.tobytes() == want_grads[name].tobytes(), name

    def test_overflowing_loss_is_inf(self):
        # two predictions of 1e154: each squared error, 1e308, is finite
        model = init_params(ModelSpec("linear", **TINY), 0)
        model.params["linear.weight"][...] = 0.0
        model.params["linear.bias"][...] = 1e154
        inputs = [preprocess(np.zeros((2, 1, 4, 4), np.uint8), model.spec)] * 2
        preds, loss, _ = minibatch_gradient(model, inputs, [0.0, 0.0])
        assert preds == [1e154, 1e154]
        assert loss == math.inf

    @pytest.mark.parametrize("spec", STREAM_SPECS, ids=lambda s: s.kind)
    def test_training_equals_one_tape_training_bitwise(self, spec, monkeypatch):
        records = synth_generate(SynthConfig(count=30, t=3, c=2, h=6, w=6, noise=0.1, seed=21))
        sp = split(30, (0.8, 0.1, 0.1), seed=21)
        cfg = TrainConfig(model=spec, batch_size=7, max_epochs=2, seed=21)
        streamed = train(cfg, records, sp)
        monkeypatch.setattr(sys.modules["deeprain.train"], "minibatch_gradient", one_tape_gradient)
        reference = train(cfg, records, sp)
        assert streamed.stats == reference.stats
        for name, arr in streamed.model.named_parameters().items():
            assert arr.tobytes() == reference.model.named_parameters()[name].tobytes(), name

    @pytest.mark.parametrize("kind", ["conv-lstm", "fc-lstm", "linear"])
    def test_train_memory_does_not_grow_with_batch_size(self, kind):
        # One record's tape and one preprocessed record at a time: a batch of
        # 32 costs what a batch of 2 does. With every record of a batch on one
        # tape it cost 4-10x more; a linear model's tape is small, so there a
        # preprocessed batch held whole shows.
        records = synth_generate(SynthConfig(count=40, t=5, c=2, h=16, w=16, seed=3))
        sp = split(40, (0.8, 0.1, 0.1), seed=3)
        spec = ModelSpec(kind, stacks=2, hidden=8, kernel=3, in_t=5, in_c=2, in_h=16, in_w=16)
        peaks = {}
        for batch_size in (2, 32):
            tracemalloc.start()
            try:
                train(TrainConfig(model=spec, batch_size=batch_size, max_epochs=1, seed=3),
                      records, sp)
                peaks[batch_size] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[32] <= 1.25 * peaks[2], peaks

    @pytest.mark.parametrize("kind", ["linear", "fc-lstm", "conv-lstm"])
    def test_train_memory_does_not_grow_with_record_count(self, kind):
        # Each batch preprocesses its own records: 200 records cost what 20
        # do. With every record kept preprocessed for the run it cost 3-7x more.
        spec = ModelSpec(kind, stacks=1, hidden=4, kernel=3, in_t=3, in_c=2, in_h=16, in_w=16)
        peaks = {}
        for count in (20, 200):
            records = synth_generate(SynthConfig(count=count, t=3, c=2, h=16, w=16, seed=4))
            sp = split(count, (0.8, 0.1, 0.1), seed=4)
            tracemalloc.start()
            try:
                train(TrainConfig(model=spec, batch_size=4, max_epochs=1, seed=4), records, sp)
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[200] <= 1.25 * peaks[20], peaks


class TestEvaluate:
    def test_zero_model_on_matching_constant_labels(self):
        spec = ModelSpec("linear", **TINY)
        named = {n: np.zeros(s) for n, s in param_shapes(spec).items()}
        named["linear.bias"] = np.array([2.0])
        model = Model.from_named(spec, named)
        records, _ = tiny_dataset(count=6, seed=3)
        for rec in records:
            rec.label = 2.0
        assert evaluate(model, records) == 0.0

    def test_constant_prediction_symmetric_labels(self):
        spec = ModelSpec("linear", **TINY)
        named = {n: np.zeros(s) for n, s in param_shapes(spec).items()}
        named["linear.bias"] = np.array([1.5])
        model = Model.from_named(spec, named)
        records, _ = tiny_dataset(count=2, seed=3)
        records[0].label = 0.0
        records[1].label = 3.0
        assert abs(evaluate(model, records) - 1.5) < 1e-12

    def test_equals_rmse_of_individual_predictions(self):
        records, sp = tiny_dataset(count=20, seed=17)
        spec = ModelSpec("conv-lstm", stacks=1, hidden=2, **TINY)
        model = init_params(spec, 17)
        got = evaluate(model, records, sp.test)
        want = rmse(
            [predict(model, records[i]) for i in sp.test],
            [records[i].label for i in sp.test],
        )
        assert got == want

    def test_invariant_under_index_permutation(self):
        records, _ = tiny_dataset(count=12, seed=19)
        model = init_params(ModelSpec("fc-lstm", hidden=2, **TINY), 19)
        idxs = list(range(12))
        shuffled = idxs[::-1]
        assert evaluate(model, records, idxs) == evaluate(model, records, shuffled)

    def test_empty_rejected(self):
        model = init_params(ModelSpec("linear", **TINY), 0)
        with pytest.raises(ValueError, match="empty"):
            evaluate(model, [], [])


class TestEmitCurve:
    def test_layout(self, tmp_path):
        stats = [EpochStats(0, 1.5, 2.5, 0.0), EpochStats(1, 1.25, 2.25, 0.0)]
        path = tmp_path / "curve.csv"
        emit_curve(stats, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_rmse,val_rmse,seconds"
        assert len(lines) == 3

    def test_values_roundtrip_tightly(self, tmp_path):
        stats = [
            EpochStats(0, 1.2345678901234, 14.69123456789, 0.123456789012),
            EpochStats(1, 0.000123456789, 11.3123456789, 7200.123),
        ]
        path = tmp_path / "curve.csv"
        emit_curve(stats, str(path))
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        for stat, row in zip(stats, rows):
            assert int(row["epoch"]) == stat.epoch
            for key, want in (
                ("train_rmse", stat.train_rmse),
                ("val_rmse", stat.val_rmse),
                ("seconds", stat.seconds),
            ):
                got = float(row[key])
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_rows_sorted_by_epoch(self, tmp_path):
        stats = [EpochStats(1, 1.0, 1.0, 0.0), EpochStats(0, 2.0, 2.0, 0.0)]
        path = tmp_path / "curve.csv"
        emit_curve(stats, str(path))
        lines = path.read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == ["0", "1"]

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no stats"):
            emit_curve([], str(tmp_path / "x.csv"))


def test_package_attribute_is_the_train_module():
    import deeprain.train as module

    assert module.train is train
