"""Correctness checks of one benchmark run, made outside the timed part.

Predictions and losses are recomputed by code that shares nothing with the
program's ``tensor``, ``autodiff`` and ``model`` modules: a batched NumPy
forward pass written here, and ``reference.py``'s straight-line cell
transcriptions. Each check returns ``(ok, detail)``.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager

import numpy as np

from deeprain import reference
from deeprain.autodiff import Tape
from deeprain.model import build_prediction, init_params, lift, predict, preprocess
from deeprain.optim import AdamState, adam_step

PRED_TOL = 1e-12  # absolute, on predictions of order 0.1-1
RMSE_TOL = 1e-12  # relative
GRAD_TOL = 1e-4  # relative, central differences
FD_STEP = 1e-5
PROBES = 3  # sampled elements per parameter tensor
GATES = ("i", "f", "o", "c")


# -- independent batched forward pass -----------------------------------------


def _pool(x: np.ndarray, f: int) -> np.ndarray:
    """Window means over the last two axes; edge windows average valid cells."""
    if f == 1:
        return x
    *lead, h, w = x.shape
    hp, wp = -(-h // f) * f, -(-w // f) * f
    padded = np.zeros((*lead, hp, wp))
    padded[..., :h, :w] = x
    valid = np.zeros((hp, wp))
    valid[:h, :w] = 1.0
    sums = padded.reshape(*lead, hp // f, f, wp // f, f).sum(axis=(-3, -1))
    return sums / valid.reshape(hp // f, f, wp // f, f).sum(axis=(1, 3))


def network_inputs(spec, records) -> np.ndarray:
    """[T,N,H',W',C] (conv) or [T,N,D] (fc) normalized, pooled frames."""
    frames = np.stack([r.frames for r in records]).astype(np.float64) / 255.0
    x = _pool(frames, spec.pool_factor).transpose(1, 0, 3, 4, 2)  # channels last
    return x if spec.kind == "conv-lstm" else x.transpose(0, 1, 4, 2, 3).reshape(*x.shape[:2], -1)


def _conv_same(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """[...,H,W,C] * [O,C,kh,kw] -> [...,H,W,O], zero padded cross-correlation."""
    *lead, h, w, c = x.shape
    o, _, kh, kw = k.shape
    pad = [(0, 0)] * len(lead) + [(kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)]
    xp = np.pad(x, pad)
    cols = np.concatenate(
        [xp[..., dy : dy + h, dx : dx + w, :] for dy in range(kh) for dx in range(kw)], axis=-1
    )
    kmat = k.transpose(2, 3, 1, 0).reshape(kh * kw * c, o)
    return (cols.reshape(-1, kh * kw * c) @ kmat).reshape(*lead, h, w, o)


def _sigmoid(z):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _layer(spec, named: dict, layer: int, seq: np.ndarray) -> np.ndarray:
    """One LSTM layer over a [T,N,...] input sequence; returns its hidden
    sequence. The input products of all steps are one product."""
    conv = spec.kind == "conv-lstm"
    hid = spec.hidden
    p = lambda key: named[f"cell{layer}.{key}"]  # noqa: E731
    wx = np.concatenate([p(f"w_x{g}") for g in GATES])
    wh = np.concatenate([p(f"w_h{g}") for g in GATES])
    b = np.concatenate([p(f"b_{g}") for g in GATES])
    xpre = (_conv_same(seq, wx) if conv else seq @ wx.T) + b
    h = np.zeros((*seq.shape[1:-1], hid))
    c = np.zeros_like(h)
    out = np.empty((seq.shape[0], *h.shape))
    for t in range(seq.shape[0]):
        pre = xpre[t] + (_conv_same(h, wh) if conv else h @ wh.T)
        i, f, o = (_sigmoid(pre[..., j * hid : (j + 1) * hid]) for j in range(3))
        c = f * c + i * np.tanh(pre[..., 3 * hid :])
        h = o * np.tanh(c)
        out[t] = h
    return out


def _head(named: dict, h_last: np.ndarray) -> np.ndarray:
    feat = h_last.mean(axis=(1, 2)) if h_last.ndim == 4 else h_last  # GAP for maps
    return feat @ named["head.weight"][0] + named["head.bias"][0]


def layer_inputs(spec, named: dict, xs: np.ndarray) -> list:
    """The input sequence of every layer, then the top hidden sequence."""
    seqs = [xs]
    for layer in range(spec.stacks):
        seqs.append(_layer(spec, named, layer, seqs[-1]))
    return seqs


def oracle_predictions(spec, named: dict, xs: np.ndarray, seqs=None, first: int = 0) -> np.ndarray:
    """Many-to-one stacked LSTM, GAP and affine head, over a whole batch.
    With ``seqs`` from layer_inputs, layers below ``first`` are reused."""
    seq = xs if seqs is None else seqs[first]
    for layer in range(first, spec.stacks):
        seq = _layer(spec, named, layer, seq)
    return _head(named, seq[-1])


def oracle_loss(spec, named, xs, labels, seqs=None, first=0) -> float:
    d = oracle_predictions(spec, named, xs, seqs, first) - labels
    return float(np.mean(d * d))


# -- reference.py transcriptions ------------------------------------------------


def _correlate_conv(input, kernels, bias=None):
    """Vectorised stand-in for ``reference.conv2d_naive`` on larger maps."""
    from scipy.signal import correlate

    kh, kw = kernels.shape[2:]
    padded = np.pad(input, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    out = np.stack([correlate(padded, k, mode="valid", method="direct")[0] for k in kernels])
    return out if bias is None else out + bias[:, None, None]


@contextmanager
def _reference_conv(spec):
    # conv2d_naive takes about 2 s per 8x8 record and about a minute per
    # 26x26 one, so larger maps use scipy's direct correlation in its place.
    if spec.kind != "conv-lstm" or spec.pooled_h * spec.pooled_w <= 64:
        yield
        return
    saved = reference.conv2d_naive
    reference.conv2d_naive = _correlate_conv
    try:
        yield
    finally:
        reference.conv2d_naive = saved


def reference_prediction(spec, named: dict, frames: np.ndarray) -> float:
    steps = [frames[t].astype(np.float64) / 255.0 for t in range(frames.shape[0])]
    if spec.pool_factor > 1:
        steps = [reference.avg_pool2d_naive(s, spec.pool_factor) for s in steps]
    conv = spec.kind == "conv-lstm"
    cell = reference.convlstm_cell_naive if conv else reference.fclstm_cell_naive
    seq = steps if conv else [s.ravel() for s in steps]
    with _reference_conv(spec):
        for layer in range(spec.stacks):
            prefix = f"cell{layer}."
            p = {k[len(prefix) :]: v for k, v in named.items() if k.startswith(prefix)}
            shape = (spec.hidden, *seq[0].shape[1:]) if conv else (spec.hidden,)
            h, c = np.zeros(shape), np.zeros(shape)
            outs = []
            for x in seq:
                h, c = cell(p, x, h, c)
                outs.append(h)
            seq = outs
    feat = h.mean(axis=(1, 2)) if conv else h
    return float(named["head.weight"][0] @ feat + named["head.bias"][0])


# -- checks -------------------------------------------------------------------


def rmse_formula(preds, labels) -> float:
    d = np.asarray(preds) - np.asarray(labels)
    return float(np.sqrt(np.mean(d * d)))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def check_drn1(read: list, generated: list):
    same = len(read) == len(generated) and all(
        struct.pack("<d", a.label) == struct.pack("<d", b.label)
        and a.frames.dtype == b.frames.dtype
        and np.array_equal(a.frames, b.frames)
        for a, b in zip(read, generated)
    )
    return same, f"{len(read)} records read, {len(generated)} generated"


def check_digests(digests: list):
    return len(set(digests)) == 1, f"{len(digests)} trainings, {len(set(digests))} distinct digests"


def program_predictions(model, records) -> np.ndarray:
    return np.array([predict(model, r) for r in records])


def check_predictions_oracle(spec, model, records, preds):
    oracle = oracle_predictions(spec, model.named_parameters(), network_inputs(spec, records))
    worst = float(np.max(np.abs(oracle - preds)))
    return worst <= PRED_TOL, f"max |predict - batched oracle| = {worst:.3e} over {len(preds)} records"


def check_predictions_reference(spec, model, records, preds, sample):
    named = model.named_parameters()
    worst = max(abs(reference_prediction(spec, named, records[i].frames) - preds[i]) for i in sample)
    return worst <= PRED_TOL, f"max |predict - reference.py| = {worst:.3e} over records {list(sample)}"


def check_rmse(reported: float, preds, labels, what: str):
    formula = rmse_formula(preds, labels)
    err = _rel(reported, formula)
    return err <= RMSE_TOL, f"{what}: program {reported!r}, formula {formula!r}, rel err {err:.3e}"


def batch_gradient(spec, records, batch, seed):
    """A minibatch's loss and gradient at the initial parameters, through the
    program's public API as train() builds them."""
    model = init_params(spec, seed)
    tape = Tape()
    lifted = lift(tape, model)
    losses = [
        tape.squared_error(
            build_prediction(tape, lifted, preprocess(records[i].frames, spec)),
            tape.const(np.array([records[i].label])),
        )
        for i in batch
    ]
    tape.mean_scalars(losses)
    loss = tape.forward()
    return model.named_parameters(), loss, tape.backward()


def check_gradient(spec, named0, records, batch, loss, grads, rng):
    """Central differences of the independent batch loss, along a seeded
    direction over a few elements of each tensor, against the program's
    gradient."""
    xs = network_inputs(spec, [records[i] for i in batch])
    labels = np.array([records[i].label for i in batch])
    seqs = layer_inputs(spec, named0, xs)
    loss_err = _rel(oracle_loss(spec, named0, xs, labels, seqs, spec.stacks), loss)
    worst, worst_name = 0.0, ""
    for name, arr in named0.items():
        idx = rng.choice(arr.size, size=min(PROBES, arr.size), replace=False)
        direction = rng.standard_normal(idx.size)
        analytic = float(np.dot(grads[name].ravel()[idx], direction))
        # layers below the probed tensor's see unchanged inputs
        first = int(name[4 : name.index(".")]) if name.startswith("cell") else spec.stacks
        moved = []
        for sign in (1.0, -1.0):
            probe = arr.copy()
            probe.ravel()[idx] += sign * FD_STEP * direction
            moved.append(oracle_loss(spec, {**named0, name: probe}, xs, labels, seqs, first))
        numeric = (moved[0] - moved[1]) / (2.0 * FD_STEP)
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        if err >= worst:
            worst, worst_name = err, name
    ok = worst <= GRAD_TOL and loss_err <= RMSE_TOL
    return ok, (
        f"batch loss rel err {loss_err:.3e}; worst gradient rel err {worst:.3e} ({worst_name}), "
        f"{len(named0)} tensors x {PROBES} elements"
    )


def check_adam(named0, grads, lr, rng):
    """One adam_step from the initial parameters against the scalar
    recurrence, on a few elements of each tensor."""
    params = {k: v.copy() for k, v in named0.items()}
    state = AdamState(lr=lr)
    adam_step(state, params, grads)
    worst = 0.0
    for name, arr in named0.items():
        for i in rng.choice(arr.size, size=min(PROBES, arr.size), replace=False):
            g = float(grads[name].ravel()[i])
            (ref,) = reference.adam_trace_scalar(
                arr.ravel()[i], lambda _theta: g, state.lr, state.beta1, state.beta2, state.eps, 1
            )
            worst = max(worst, abs(float(params[name].ravel()[i]) - ref))
    return worst <= 1e-12 * lr, f"max |adam_step - adam_trace_scalar| = {worst:.3e} (lr {lr})"
