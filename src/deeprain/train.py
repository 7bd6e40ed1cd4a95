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

import numpy as np

from .autodiff import Tape
from .data import DatasetSplit, RadarRecord, atomic_write, minibatches
from .model import Model, ModelSpec, build_prediction, init_params, lift, predict, preprocess
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


def _record_gradient(model: Model, inputs, label: float, n: int):
    """One record's prediction, squared error and the gradient of its 1/n
    share of the batch loss, on a tape that dies here."""
    tape = Tape()
    pred = build_prediction(tape, lift(tape, model), inputs)
    err = tape.squared_error(pred, tape.const(np.array([label])))
    tape.mul(err, tape.const(np.array([1.0 / n])))
    tape.forward()
    return float(pred.value[0]), float(err.value[0]), tape.backward()


def minibatch_gradient(model: Model, inputs, labels: list[float]):
    """Predictions, mean squared-error loss and its gradient over a minibatch
    of preprocessed inputs, one per label, holding one record's tape at a
    time. ``inputs`` may be any iterable; it is read once, in order.

    A parameter has one consumer per record, so summing the record gradients
    in record order, from the first, gives the bits of one tape over the
    whole batch.
    """
    n = len(labels)
    preds: list[float] = []
    errors: list[float] = []
    grads: dict[str, np.ndarray] = {}
    for x, y in zip(inputs, labels):
        pred, error, record_grads = _record_gradient(model, x, y, n)
        preds.append(pred)
        errors.append(error)
        for name, g in record_grads.items():
            grads[name] = grads[name] + g if name in grads else g
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
            # Each record is preprocessed as its turn comes and freed after
            # it: memory is bounded by one record, not by the batch
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
