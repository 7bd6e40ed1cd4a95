"""Minibatch training loop, RMSE evaluation, validation-based model
selection, and learning-curve emission.

One training run is fully determined by (config, seed, dataset): shuffles
are seeded, gradient accumulation follows record order inside each batch,
and RMSE sums use exact accumulation, so reruns reproduce curves and
checkpoints bit for bit. Wall-clock measurement is opt-in (``timing``)
because it is the one quantity that cannot be reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass, field, fields
from itertools import islice

import numpy as np

from .autodiff import Tape
from .data import DatasetSplit, RadarRecord, atomic_write, minibatches
# build_prediction is not called here; perfbench's tracer wraps it by name
from .model import (  # noqa: F401
    Model,
    ModelSpec,
    build_prediction,
    fuse,
    init_params,
    lift,
    predict,
    predictions,
    preprocess,
    record_bytes,
)
from .optim import AdamState, adam_step, sgd_step

__all__ = [
    "TrainConfig",
    "EpochStats",
    "TrainResult",
    "DivergenceError",
    "rmse",
    "minibatch_gradient",
    "train",
    "evaluate",
    "emit_curve",
]


OPTIMIZERS = ("adam", "gd")
# A training chunk holds as many records as keep its tape's arrays (see
# model.record_bytes) within CHUNK_BYTES and its stacked inputs, 8 * in_t *
# frame_dim bytes a record, within CHUNK_INPUT_BYTES, and at least one:
# four records of the two-stacked 8-hidden ConvLSTM at the canonical
# 5x2x8x8, 51 of the canonical FC-LSTM (a batch of 30 is one chunk), 12 of
# an FC-LSTM at 16x16, and one ConvLSTM record at 16x16 or at the paper's
# 26x26 maps. The input cap bounds the FC-LSTM, whose largest array is the
# chunk's inputs; five canonical ConvLSTM records cost more page faults
# than they save.
CHUNK_BYTES = 1088 << 10
CHUNK_INPUT_BYTES = 256 << 10


class DivergenceError(RuntimeError):
    """A non-finite loss, parameter or RMSE: the numerical failure."""


@dataclass
class TrainConfig:
    """One training run's settings."""

    model: ModelSpec
    optimizer: str = "adam"
    lr: float = 0.001
    batch_size: int = 30
    max_epochs: int = 50
    early_stop_patience: int = 3
    seed: int = 0
    timing: bool = False

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        for name in ("batch_size", "max_epochs", "early_stop_patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EpochStats:
    """Per-epoch learning-curve point.

    ``seconds`` is measured wall time when the run has timing enabled and
    0.0 otherwise, keeping default curve files reproducible.
    """

    epoch: int
    train_rmse: float
    val_rmse: float
    seconds: float = 0.0


@dataclass
class TrainResult:
    model: Model
    stats: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_val_rmse: float = math.inf


def _mean(terms: list[float], n: int) -> float:
    """Exact sum of nonnegative ``terms`` over ``n``. A sum past the float
    range is inf, its correctly rounded value, where ``math.fsum`` raises:
    inf then reaches the divergence checks."""
    try:
        return math.fsum(terms) / n
    except OverflowError:
        return math.inf


def rmse(predictions, truths) -> float:
    """sqrt(mean((p - t)^2)), exact-sum accumulation (order independent)."""
    preds = list(predictions)
    trues = list(truths)
    if not preds:
        raise ValueError("rmse: empty input")
    if len(preds) != len(trues):
        raise ValueError(f"rmse: length mismatch {len(preds)} vs {len(trues)}")
    # (d * d), not d**2: float pow raises OverflowError on huge inputs where
    # multiplication yields inf, and inf must flow to the divergence check
    return math.sqrt(_mean([(p - t) * (p - t) for p, t in zip(preds, trues)], len(preds)))


def _chunk_gradient(model: Model, xs: np.ndarray, labels: list[float], n: int, grads):
    """Predictions, squared errors and gradient sums after one chunk of a
    batch of ``n``, stacked along axis 0 of ``xs``, on one graph that dies
    here. The sums start at ``grads``, the previous chunk's (or None)."""
    tape = Tape()
    p = fuse(model.spec, lift(tape, model).params, tape.concat0)
    if grads is not None:
        for name, total in fuse(model.spec, grads, np.concatenate).items():
            tape.seed(p[name], total)
    share = tape.const(np.array([1.0 / n]))
    pred = predictions(tape, model.spec, p, xs)
    truth = tape.const(np.array(labels)[:, None])
    tape.mul(tape.squared_error(pred, truth), share)
    tape.forward()
    d = pred.value[:, 0] - truth.value[:, 0]
    return pred.value[:, 0].tolist(), (d * d).tolist(), tape.backward()


def minibatch_gradient(model: Model, inputs, labels: list[float]):
    """Predictions, mean squared-error loss and its gradient over a minibatch
    of preprocessed inputs, one per label. ``inputs`` may be any iterable;
    it is read once, in order, one chunk of records at a time.

    Each chunk is one tape, each LSTM layer one node over the chunk, and
    ``CHUNK_BYTES`` and ``CHUNK_INPUT_BYTES`` bound what the tape keeps. A
    chunk's gradient sums start at the previous chunk's, so every parameter
    adds the records' gradients in record order, from the first: the bits
    of one tape over the whole batch, whatever the chunk size.
    """
    n = len(labels)
    spec = model.spec
    # a linear model has no layer node to share, so its chunks are records
    size = 1 if spec.kind == "linear" else max(1, min(
        CHUNK_BYTES // record_bytes(spec), CHUNK_INPUT_BYTES // (8 * spec.in_t * spec.frame_dim)))
    reader = iter(inputs)
    preds, errors, grads = [], [], None
    for lo in range(0, n, size):
        count = min(size, n - lo)
        xs, read = None, 0
        for x in islice(reader, count):  # one record's inputs at a time
            x = np.asarray(x)
            xs = np.empty((count,) + x.shape) if xs is None else xs
            xs[read] = x
            read += 1
        if read < count:
            raise ValueError(f"minibatch_gradient: length mismatch: {lo + read} inputs vs {n} labels")
        chunk_preds, chunk_errors, grads = _chunk_gradient(model, xs, labels[lo : lo + count], n, grads)
        preds += chunk_preds
        errors += chunk_errors
    extra = sum(1 for _ in reader)
    if extra:
        raise ValueError(f"minibatch_gradient: length mismatch: {n + extra} inputs vs {n} labels")
    if not n:
        raise ValueError("minibatch_gradient: empty batch")
    return preds, _mean(errors, n), grads


def train(
    cfg: TrainConfig,
    records: list[RadarRecord],
    dataset_split: DatasetSplit,
    log=None,
) -> TrainResult:
    """Run the full protocol; return the minimum-validation checkpoint.

    Per epoch: seeded minibatch reshuffle, mean-squared-error loss averaged
    over the batch, one optimizer step per batch. Train RMSE uses the
    predictions collected before each batch update; validation RMSE is
    ``evaluate`` with the end-of-epoch parameters. Stops after
    ``early_stop_patience`` epochs without validation improvement.
    """
    if not dataset_split.train or not dataset_split.validation:
        raise ValueError("train: training and validation sets must be nonempty")
    model = init_params(cfg.model, cfg.seed)
    params = model.named_parameters()
    adam = AdamState(lr=cfg.lr) if cfg.optimizer == "adam" else None

    result = TrainResult(model=model)
    best: dict[str, np.ndarray] = {k: v.copy() for k, v in params.items()}
    since_improve = 0
    for epoch in range(cfg.max_epochs):
        started = time.perf_counter() if cfg.timing else 0.0
        epoch_preds: list[float] = []
        epoch_truth: list[float] = []
        for batch_no, batch in enumerate(
            minibatches(dataset_split.train, cfg.batch_size, epoch, cfg.seed)
        ):
            truth = [records[idx].label for idx in batch]
            # Each record is preprocessed as its chunk is read and freed with
            # the chunk: memory is bounded by one chunk, not by the batch
            preds, loss, grads = minibatch_gradient(
                model, (preprocess(records[idx].frames, cfg.model) for idx in batch), truth
            )
            epoch_preds += preds
            epoch_truth += truth
            where = f"epoch {epoch}, batch {batch_no}"
            if not math.isfinite(loss):
                raise DivergenceError(f"non-finite loss {loss} at {where}")
            if adam is not None:
                adam_step(adam, params, grads)
            else:
                sgd_step(cfg.lr, params, grads)
            for name, value in params.items():
                if not np.isfinite(value).all():
                    raise DivergenceError(f"non-finite {name} after the step at {where}")
        val_rmse = evaluate(model, records, dataset_split.validation)
        if not math.isfinite(val_rmse):
            raise DivergenceError(f"non-finite validation RMSE {val_rmse} at epoch {epoch}")
        train_rmse = rmse(epoch_preds, epoch_truth)
        seconds = (time.perf_counter() - started) if cfg.timing else 0.0
        result.stats.append(EpochStats(epoch, train_rmse, val_rmse, seconds))
        if log is not None:
            log(f"epoch {epoch}: train={train_rmse:.12g}, val={val_rmse:.12g}")
        if val_rmse < result.best_val_rmse:
            result.best_val_rmse = val_rmse
            result.best_epoch = epoch
            best = {k: v.copy() for k, v in params.items()}
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= cfg.early_stop_patience:
                break
    result.model = Model(cfg.model, best)
    return result


def evaluate(
    model: Model,
    records: list[RadarRecord],
    indices=None,
    clamp: bool = False,
) -> float:
    """RMSE over the given records; invariant under their ordering."""
    idxs = list(indices) if indices is not None else list(range(len(records)))
    preds = [predict(model, records[i], clamp) for i in idxs]
    return rmse(preds, [records[i].label for i in idxs])


def emit_curve(stats: list[EpochStats], path: str) -> None:
    """Write the learning curve CSV (epoch ascending, 12 significant digits)."""
    if not stats:
        raise ValueError("emit_curve: no stats to write")
    rows = sorted(stats, key=lambda s: s.epoch)
    lines = [",".join(f.name for f in fields(EpochStats))]
    lines += [",".join(format(v, ".12g") for v in astuple(s)) for s in rows]
    text = "".join(line + "\n" for line in lines)
    atomic_write(path, lambda fh: fh.write(text.encode("utf-8")))
