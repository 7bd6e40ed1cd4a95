"""Dense float64 tensors and the primitive numerical operations.

A tensor is a C-contiguous ``numpy.ndarray`` of dtype float64: the shape
tuple plus the flat row-major buffer is the whole representation. All
operations here are pure functions, preserve finiteness of finite inputs,
and are bitwise deterministic for identical inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ShapeError",
    "as_tensor",
    "conv2d",
    "affine",
    "map_sigmoid",
    "map_tanh",
    "hadamard",
    "add",
    "global_avg_pool",
    "avg_pool2d",
]

# Largest representable double strictly inside (0, 1) / (-1, 1); sigmoid and
# tanh outputs are pinned to the open interval at these bounds.
_ONE_MINUS = np.nextafter(1.0, 0.0)
_TINY = np.finfo(np.float64).tiny


class ShapeError(ValueError):
    """Shape or extent mismatch; the message reads "op: axis: detail"."""


def as_tensor(values) -> np.ndarray:
    """Coerce nested lists or arrays to a C-contiguous float64 tensor."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    return arr


def _im2col(input: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Column matrix [C*kh*kw, H*W] of a zero-padded [C,H,W] map.

    Row (c, dy, dx) holds the map shifted by (dy - kh//2, dx - kw//2); this
    index order is the fixed summation order of conv2d. One strided view
    [C,kh,kw,H,W] over the padded map, copied once.
    """
    c, h, w = input.shape
    ph, pw = kh // 2, kw // 2
    hp, wp = h + 2 * ph, w + 2 * pw
    padded = np.zeros((c, hp, wp), dtype=np.float64)
    padded[:, ph : ph + h, pw : pw + w] = input
    s = padded.itemsize
    windows = np.ndarray(
        (c, kh, kw, h, w), np.float64, padded, 0, (hp * wp * s, wp * s, s, wp * s, s)
    )
    return windows.copy().reshape(c * kh * kw, h * w)


def _col2im(dcols: np.ndarray, c: int, kh: int, kw: int, h: int, w: int) -> np.ndarray:
    """Adjoint of _im2col: sum the kh*kw shifted windows back onto [C,H,W].

    Window (dy, dx) lands in its own slab of a zeroed [kh*kw,C,H+2p,W+2p]
    buffer through one strided view; the slabs are then summed from +0.0 in
    (dy, dx) order, as a loop of in-place adds into a zeroed map would.
    """
    ph, pw = kh // 2, kw // 2
    hp, wp = h + 2 * ph, w + 2 * pw
    buf = np.zeros((kh * kw, c, hp, wp), dtype=np.float64)
    s = buf.itemsize
    slab = c * hp * wp * s
    windows = np.ndarray(
        (c, kh, kw, h, w), np.float64, buf, 0,
        (hp * wp * s, kw * slab + wp * s, slab + s, wp * s, s),
    )
    windows[...] = dcols.reshape(c, kh, kw, h, w)
    return np.add.reduce(buf, axis=0, initial=0.0)[:, ph : ph + h, pw : pw + w]


def conv2d(
    input: np.ndarray,
    kernels: np.ndarray,
    bias: np.ndarray | None = None,
) -> np.ndarray:
    """Same-padded stride-1 2-D convolution (cross-correlation convention).

    input [C,H,W], kernels [O,C,Kh,Kw] with odd Kh, Kw, bias [O] or None.
    Output [O,H,W]: out[o,y,x] = bias[o] + sum over (c,dy,dx) of
    kernels[o,c,dy,dx] * padded_input[c, y+dy-Kh//2, x+dx-Kw//2], with zero
    fill outside the input.
    """
    if input.ndim != 3:
        raise ShapeError(f"conv2d: input: expected rank 3, got rank {input.ndim}")
    if kernels.ndim != 4:
        raise ShapeError(f"conv2d: kernels: expected rank 4, got rank {kernels.ndim}")
    c, h, w = input.shape
    o, kc, kh, kw = kernels.shape
    if bias is not None and bias.shape != (o,):
        raise ShapeError(f"conv2d: bias: expected shape ({o},), got {bias.shape}")
    if kc != c:
        raise ShapeError(f"conv2d: channel: input has {c} channels, kernels expect {kc}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv2d: kernel extent: extents must be odd, got {kh}x{kw}")
    out = (kernels.reshape(o, c * kh * kw) @ _im2col(input, kh, kw)).reshape(o, h, w)
    return out if bias is None else out + bias[:, None, None]


def affine(input: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """weight [M,N] @ input [N] + bias [M] -> [M]; no bias term when ``bias`` is None."""
    if input.ndim != 1:
        raise ShapeError(f"affine: input: expected rank 1, got rank {input.ndim}")
    if weight.ndim != 2:
        raise ShapeError(f"affine: weight: expected rank 2, got rank {weight.ndim}")
    m, n = weight.shape
    if input.shape[0] != n:
        raise ShapeError(f"affine: inner extent: input has {input.shape[0]}, weight expects {n}")
    if bias is None:
        return weight @ input
    if bias.shape != (m,):
        raise ShapeError(f"affine: bias: expected shape ({m},), got {bias.shape}")
    return weight @ input + bias


def map_sigmoid(t: np.ndarray) -> np.ndarray:
    """Elementwise logistic sigmoid, pinned strictly inside (0, 1).

    Uses the numerically stable branch per sign; outputs that would round to
    exactly 0.0 or 1.0 are clamped to the nearest representable interior
    double so the open-interval contract holds for all finite inputs.
    """
    e = np.exp(-np.abs(t))
    out = np.where(t >= 0, 1.0, e) / (1.0 + e)
    return np.minimum(np.maximum(out, _TINY), _ONE_MINUS)


def map_tanh(t: np.ndarray) -> np.ndarray:
    """Elementwise tanh, pinned strictly inside (-1, 1)."""
    return np.minimum(np.maximum(np.tanh(t), -_ONE_MINUS), _ONE_MINUS)


def hadamard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise product of identically shaped tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"hadamard: shape: {a.shape} vs {b.shape}")
    return a * b


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise sum of identically shaped tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"add: shape: {a.shape} vs {b.shape}")
    return a + b


def global_avg_pool(t: np.ndarray) -> np.ndarray:
    """[C,H,W] -> [C], per-channel spatial mean."""
    if t.ndim != 3:
        raise ShapeError(f"global_avg_pool: input: expected rank 3, got rank {t.ndim}")
    return t.mean(axis=(1, 2))


def avg_pool2d(t: np.ndarray, factor: int) -> np.ndarray:
    """Non-overlapping window means over [C,H,W] -> [C,ceil(H/f),ceil(W/f)].

    Edge windows average over the valid cells only, so no zero bias is
    introduced at the borders. Factor 1 returns a copy of the input.
    """
    if t.ndim != 3:
        raise ShapeError(f"avg_pool2d: input: expected rank 3, got rank {t.ndim}")
    if factor < 1:
        raise ShapeError(f"avg_pool2d: factor: must be >= 1, got {factor}")
    if factor == 1:
        return t.copy()
    c, h, w = t.shape
    ys = np.arange(0, h, factor)
    xs = np.arange(0, w, factor)
    sums = np.add.reduceat(np.add.reduceat(t, ys, axis=1), xs, axis=2)
    hc = np.minimum(ys + factor, h) - ys
    wc = np.minimum(xs + factor, w) - xs
    return sums / (hc[:, None] * wc[None, :])
