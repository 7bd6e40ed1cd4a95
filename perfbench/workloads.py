"""Workload inputs and the timed part of one benchmark run.

The inputs are generated here from the workload seed, so the program under
test receives only records. Every call into the program during a timed round
goes through the module attribute at call time (``_train_module().train``,
``data.read_binary``), so the tracer in ``tracing.py`` can wrap those names
without touching the program's files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

import deeprain.data as data
from deeprain.model import ModelSpec

TRAIN_SEED = 42  # training and split seed, fixed so only the records vary
EPOCHS = 1  # early stopping needs more epochs than this, so it never cuts in
BATCH = 30  # protocol minibatch size


@dataclass(frozen=True)
class Geometry:
    """How one workload's records are drawn.

    Records hold one to four drifting Gaussian storm blobs quantized to
    [0, 255], higher channels broader and fainter, as in the program's
    synthetic benchmark. The label follows its published closed form
    ``max(0, a*m + b*m^2 + N(0, noise))``, with ``m`` the mean normalized
    channel-0 reflectivity over the central crop of the last five frames.
    """

    count: int
    t: int
    c: int
    h: int
    w: int
    noise: float
    a: float
    b: float


@dataclass(frozen=True)
class Workload:
    name: str
    geometry: Geometry
    model: dict  # ModelSpec fields besides the record geometry
    drn1: bool  # records go through a DRN1 file and read_binary
    sample: int  # records checked against reference.py's transcriptions
    fd_records: int  # leading records of the first minibatch in the gradient check

    def spec(self) -> ModelSpec:
        g = self.geometry
        return ModelSpec(in_t=g.t, in_c=g.c, in_h=g.h, in_w=g.w, **self.model)


def canonical_geometry(root: str) -> Geometry:
    """Geometry and label constants of ``configs/benchmark.cfg``.

    The file is parsed here rather than with the program's loader; its own
    ``seed`` key is ignored because the workload seed replaces it.
    """
    values = {}
    with open(os.path.join(root, "configs", "benchmark.cfg"), encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                key, _, raw = line.partition("=")
                values[key.strip()] = raw.strip()
    return Geometry(
        **{k: int(values[k]) for k in ("count", "t", "c", "h", "w")},
        **{k: float(values[k]) for k in ("noise", "a", "b")},
    )


def workloads(root: str) -> dict[str, Workload]:
    canon = canonical_geometry(root)
    # 34 records split 30/2/2: one full protocol batch of 30 per epoch. Central
    # differences over all 30 records at 26x26 would take about 30 s a run,
    # so the gradient check there uses the batch's first 6 records.
    paper = dataclasses.replace(canon, count=34, t=15, c=4, h=101, w=101)
    conv = dict(kind="conv-lstm", stacks=2, hidden=8, kernel=3, pool_factor=1)
    fc = dict(kind="fc-lstm", stacks=1, hidden=8)
    return {
        "canon-convlstm": Workload("canon-convlstm", canon, conv, False, sample=1, fd_records=BATCH),
        "canon-fclstm": Workload("canon-fclstm", canon, fc, False, sample=16, fd_records=BATCH),
        "paper-convlstm": Workload(
            "paper-convlstm", paper, {**conv, "pool_factor": 4}, True, sample=1, fd_records=6
        ),
    }


# -- inputs ------------------------------------------------------------------


def _frames(rng: np.random.Generator, g: Geometry) -> np.ndarray:
    n = int(rng.integers(1, 5))
    cy = rng.uniform(0, g.h - 1, n)
    cx = rng.uniform(0, g.w - 1, n)
    vy = rng.uniform(-1.5, 1.5, n)
    vx = rng.uniform(-1.5, 1.5, n)
    extent = min(g.h, g.w)
    sigma = rng.uniform(extent / 6.0, extent / 3.0, n)
    amp = rng.uniform(0.35, 1.0, n)
    fade = 1.0 + 0.25 * np.arange(g.c)
    s2 = 2.0 * (sigma[None, :] * (1.0 + 0.15 * np.arange(g.c))[:, None]) ** 2  # [C,n]
    steps = np.arange(g.t)[:, None]
    dy = np.arange(g.h)[None, None, :] - (cy + steps * vy)[:, :, None]  # [T,n,H]
    dx = np.arange(g.w)[None, None, :] - (cx + steps * vx)[:, :, None]  # [T,n,W]
    gy = np.exp(-dy[:, None] ** 2 / s2[None, :, :, None])  # [T,C,n,H]
    gx = np.exp(-dx[:, None] ** 2 / s2[None, :, :, None])  # [T,C,n,W]
    field = np.einsum("cn,tcny,tcnx->tcyx", amp[None, :] / fade[:, None], gy, gx)
    return np.clip(np.rint(255.0 * field), 0, 255).astype(np.uint8)


def label_feature(frames: np.ndarray) -> float:
    """Mean normalized channel-0 reflectivity, central crop, last 5 frames."""
    t, _, h, w = frames.shape
    ch, cw = h // 2, w // 2
    top, left = (h - ch) // 2, (w - cw) // 2
    return float(frames[max(0, t - 5) :, 0, top : top + ch, left : left + cw].mean() / 255.0)


def generate(g: Geometry, seed: int) -> list:
    """Records for one workload seed; record ``i`` depends on (seed, i) only."""
    records = []
    for i in range(g.count):
        rng = np.random.default_rng([seed, i])
        frames = _frames(rng, g)
        m = label_feature(frames)
        label = g.a * m + g.b * m * m + float(rng.normal(0.0, g.noise))
        records.append(data.RadarRecord(label=max(0.0, label), frames=frames))
    return records


@dataclass
class Inputs:
    records: list  # as generated; the DRN1 read is checked against these
    path: str | None  # DRN1 file the timed part reads, when the workload has one
    split: data.DatasetSplit


def setup(wl: Workload, seed: int, workdir: str) -> Inputs:
    records = generate(wl.geometry, seed)
    path = None
    if wl.drn1:
        os.makedirs(workdir, exist_ok=True)
        path = os.path.join(workdir, f"{wl.name}-{os.getpid()}.drn1")
        data.write_binary(records, path)
    return Inputs(records, path, data.split(len(records), seed=TRAIN_SEED))


# -- the timed part ----------------------------------------------------------


def _train_module():
    # ``deeprain.train`` as an attribute is the re-exported function, not the
    # submodule, so the module is reached through sys.modules.
    return sys.modules["deeprain.train"]


def train_config(wl: Workload):
    mod = _train_module()
    return mod.TrainConfig(
        model=wl.spec(),
        batch_size=BATCH,
        max_epochs=EPOCHS,
        early_stop_patience=EPOCHS,
        seed=TRAIN_SEED,
        timing=True,
    )


@dataclass
class Round:
    wall_s: float
    train_s: float
    eval_s: float
    eval_rmse: float
    records: list
    model: object
    epoch_s: list


def run_round(wl: Workload, inputs: Inputs) -> Round:
    """Read (when the workload has a DRN1 file), train, then evaluate all."""
    mod = _train_module()
    cfg = train_config(wl)
    started = time.perf_counter()
    records = data.read_binary(inputs.path) if inputs.path else inputs.records
    trained_at = time.perf_counter()
    result = mod.train(cfg, records, inputs.split)
    evaluated_at = time.perf_counter()
    eval_rmse = mod.evaluate(result.model, records)
    ended = time.perf_counter()
    return Round(
        wall_s=ended - started,
        train_s=evaluated_at - trained_at,
        eval_s=ended - evaluated_at,
        eval_rmse=eval_rmse,
        records=records,
        model=result.model,
        epoch_s=[s.seconds for s in result.stats],
    )


def warm_up(wl: Workload, inputs: Inputs) -> None:
    """The round's calls on one training batch, evaluating the validation
    records. The first pass pays one-off costs that no measured round should
    carry: at the paper geometry, the first ~3 GB of page faults double the
    time of the first batch."""
    mod = _train_module()
    records = data.read_binary(inputs.path) if inputs.path else inputs.records
    sp = inputs.split
    one_batch = data.DatasetSplit(sp.train[:BATCH], sp.validation, sp.test)
    result = mod.train(train_config(wl), records, one_batch)
    mod.evaluate(result.model, records, sp.validation)


def digest(model) -> str:
    h = hashlib.sha256()
    for name, arr in model.named_parameters().items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(inputs: Inputs, rounds: list, setup_s: float, peak_rss: float) -> dict:
    n_train = len(inputs.split.train) * EPOCHS
    n_eval = len(inputs.records)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "train_records_per_s": (statistics.median(n_train / r.train_s for r in rounds), "records/s"),
        "eval_records_per_s": (statistics.median(n_eval / r.eval_s for r in rounds), "records/s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }


def dataset_mb(wl: Workload, inputs: Inputs) -> float:
    """Records plus train()'s preprocessed cache, from array sizes."""
    spec = wl.spec()
    raw = sum(r.frames.nbytes + 8 for r in inputs.records)
    cached = len(inputs.split.train) + len(inputs.split.validation)
    per_record = spec.in_t * spec.in_c * spec.pooled_h * spec.pooled_w * 8
    return (raw + cached * per_record) / 1e6
