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
    "conv2d_input_grad",
    "conv2d_kernel_grad",
    "affine",
    "affine_input_grad",
    "affine_weight_grad",
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
    """Column matrices [...,C*kh*kw,H*W] of zero-padded [...,C,H,W] maps.

    Row (c, dy, dx) holds the map shifted by (dy - kh//2, dx - kw//2); this
    index order is the fixed summation order of conv2d. One strided view
    [n,kh,kw,H,W] over the padded maps' n channels, copied once.
    """
    h, w = input.shape[-2:]
    ph, pw = kh // 2, kw // 2
    hp, wp = h + 2 * ph, w + 2 * pw
    padded = np.zeros(input.shape[:-2] + (hp, wp), dtype=np.float64)
    padded[..., ph : ph + h, pw : pw + w] = input
    n, s = padded.size // (hp * wp), padded.itemsize
    windows = np.ndarray((n, kh, kw, h, w), np.float64, padded, 0, (hp * wp * s, wp * s, s, wp * s, s))
    return windows.copy().reshape(input.shape[:-3] + (-1, h * w))


def _col2im(dcols: np.ndarray, c: int, kh: int, kw: int, h: int, w: int) -> np.ndarray:
    """Adjoint of _im2col: sum the kh*kw shifted windows back onto [...,C,H,W].

    Window (dy, dx) lands in its own slab of a zeroed [kh*kw,n,H+2p,W+2p]
    buffer through one strided view; the slabs are then summed from +0.0 in
    (dy, dx) order, as a loop of in-place adds into a zeroed map would.
    """
    ph, pw = kh // 2, kw // 2
    hp, wp = h + 2 * ph, w + 2 * pw
    n = dcols.size // (kh * kw * h * w)
    buf = np.zeros((kh * kw, n, hp, wp), dtype=np.float64)
    s = buf.itemsize
    slab = n * hp * wp * s
    strides = (hp * wp * s, kw * slab + wp * s, slab + s, wp * s, s)
    windows = np.ndarray((n, kh, kw, h, w), np.float64, buf, 0, strides)
    windows[...] = dcols.reshape(n, kh, kw, h, w)
    out = np.add.reduce(buf, axis=0, initial=0.0)[:, ph : ph + h, pw : pw + w]
    return out.reshape(dcols.shape[:-2] + (c, h, w))


def conv2d(input: np.ndarray, kernels: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Same-padded stride-1 2-D convolution (cross-correlation convention).

    input [...,C,H,W], kernels [O,C,Kh,Kw] with odd Kh, Kw, bias [O] or None.
    Output [...,O,H,W]: out[o,y,x] = bias[o] + sum over (c,dy,dx) of
    kernels[o,c,dy,dx] * padded_input[c, y+dy-Kh//2, x+dx-Kw//2], with zero
    fill outside the input. Each leading index is its own GEMM of one
    map's shape (a stacked ``np.matmul``), so it has that map's bits.
    """
    if input.ndim < 3:
        raise ShapeError(f"conv2d: input: expected rank 3 or more, got rank {input.ndim}")
    if kernels.ndim != 4:
        raise ShapeError(f"conv2d: kernels: expected rank 4, got rank {kernels.ndim}")
    c, h, w = input.shape[-3:]
    o, kc, kh, kw = kernels.shape
    if bias is not None and bias.shape != (o,):
        raise ShapeError(f"conv2d: bias: expected shape ({o},), got {bias.shape}")
    if kc != c:
        raise ShapeError(f"conv2d: channel: input has {c} channels, kernels expect {kc}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv2d: kernel extent: extents must be odd, got {kh}x{kw}")
    out = np.matmul(kernels.reshape(o, c * kh * kw), _im2col(input, kh, kw))
    out = out.reshape(input.shape[:-3] + (o, h, w))
    return out if bias is None else out + bias[:, None, None]


def conv2d_input_grad(g: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """conv2d's input gradient: output gradient [...,O,H,W] -> [...,C,H,W]."""
    o, c, kh, kw = kernels.shape
    h, w = g.shape[-2:]
    dcols = np.matmul(kernels.reshape(o, c * kh * kw).T, g.reshape(g.shape[:-3] + (o, h * w)))
    return _col2im(dcols, c, kh, kw, h, w)


def conv2d_kernel_grad(g: np.ndarray, input: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """conv2d's kernel gradient per leading index: output gradient
    [...,O,H,W] and input [...,C,H,W] -> [...,O,C,kh,kw]. The columns are
    rebuilt from ``input``, so no caller needs to keep them."""
    o, h, w = g.shape[-3:]
    cols = np.swapaxes(_im2col(input, kh, kw), -1, -2)
    gk = np.matmul(g.reshape(g.shape[:-3] + (o, h * w)), cols)
    return gk.reshape(g.shape[:-3] + (o, input.shape[-3], kh, kw))


def affine(input: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """weight [M,N] @ input [...,N] + bias [M] -> [...,M]; no bias term when
    ``bias`` is None. Each leading index is its own product (stacked
    ``np.matmul``), with the bits of a one-vector call."""
    if weight.ndim != 2:
        raise ShapeError(f"affine: weight: expected rank 2, got rank {weight.ndim}")
    m, n = weight.shape
    if input.ndim == 1 and input.shape[0] == n:
        out = weight @ input
    elif input.ndim > 1 and input.shape[-1] == n:
        out = np.matmul(weight, input[..., None])[..., 0]
    else:
        raise ShapeError(f"affine: inner extent: input shape {input.shape}, weight expects {n}")
    if bias is None:
        return out
    if bias.shape != (m,):
        raise ShapeError(f"affine: bias: expected shape ({m},), got {bias.shape}")
    return out + bias


def affine_input_grad(g: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """affine's input gradient: output gradient [...,M] -> [...,N]."""
    return affine(g, weight.T)


def affine_weight_grad(g: np.ndarray, input: np.ndarray) -> np.ndarray:
    """affine's weight gradient per leading index, the outer product of the
    output gradient [...,M] and the input [...,N]: [...,M,N]."""
    return g[..., :, None] * input[..., None, :]


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
    """[...,C,H,W] -> [...,C], per-channel spatial mean of each map."""
    if t.ndim < 3:
        raise ShapeError(f"global_avg_pool: input: expected rank 3 or more, got rank {t.ndim}")
    return t.mean(axis=(-2, -1))


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


# One LSTM step for the tape's cell (``axis`` 0) and layer (1, behind the
# record axis): ``pre`` stacks the i, f, o and g gates along ``axis``.


def _lstm_step(pre: np.ndarray, c_prev: np.ndarray, axis: int) -> tuple:
    """One LSTM state update (Shi et al., arXiv 1506.04214, eq. 3): the
    gates (i, f, o, g), c = f*c_prev + i*g and h = o*tanh(c), with i, f, o
    sigmoids (views into one array) and g a tanh."""
    p = pre.reshape(c_prev.shape[:axis] + (4,) + c_prev.shape[axis:]).swapaxes(0, axis)
    sig = map_sigmoid(p[:3])
    i, f, o = sig[0], sig[1], sig[2]
    g = map_tanh(np.ascontiguousarray(p[3]))
    c = f * c_prev + i * g
    return (i, f, o, g), c, o * map_tanh(c)


def _lstm_h_grad(gh: np.ndarray, o: np.ndarray, c: np.ndarray) -> tuple:
    """The VJP of h = o*tanh(c), tanh(c) recomputed: the o gate's
    preactivation gradient and c's share of gradient from h."""
    tc = map_tanh(c)
    return gh * tc * o * (1.0 - o), gh * o * (1.0 - tc * tc)


def _lstm_pre_grad(gc, go, gates: tuple, c_prev: np.ndarray, axis: int) -> tuple:
    """The stacked preactivations' gradient, from c's whole gradient ``gc``
    and the o gate's ``go`` (0.0 when no gradient reached h), and c_prev's
    gradient."""
    i, f, _, g = gates
    gpre = np.empty(c_prev.shape[:axis] + (4,) + c_prev.shape[axis:])
    q = gpre.swapaxes(0, axis)
    q[0] = gc * g * i * (1.0 - i)
    q[1] = gc * c_prev * f * (1.0 - f)
    q[2] = go
    q[3] = gc * i * (1.0 - g * g)
    return gpre.reshape(c_prev.shape[:axis] + (-1,) + c_prev.shape[axis + 1 :]), gc * f
