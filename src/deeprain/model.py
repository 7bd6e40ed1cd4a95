"""Model zoo: ConvLSTM and FC-LSTM cells, stacked many-to-one encoders,
the scalar regression head, and the flat linear baseline.

Cell steps and encoders operate on tape nodes so one implementation serves
both prediction and training. ``Model`` owns plain float64 arrays; ``lift``
registers them on a tape and returns the same structure holding nodes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields, make_dataclass

import numpy as np

from .autodiff import GradCheckReport, Node, Tape, grad_check
from .data import BoundedReader, atomic_write
from .tensor import ShapeError, avg_pool2d

__all__ = [
    "ModelSpec",
    "LstmCellParams",
    "ConvLstmCellParams",
    "FcLstmCellParams",
    "CellState",
    "Model",
    "param_shapes",
    "init_params",
    "lstm_cell_step",
    "convlstm_cell_step",
    "fclstm_cell_step",
    "encode_sequence",
    "regression_head",
    "preprocess",
    "fuse",
    "record_bytes",
    "predictions",
    "build_prediction",
    "lift",
    "predict",
    "gradcheck_model",
    "save_checkpoint",
    "load_checkpoint",
]

KINDS = ("linear", "fc-lstm", "conv-lstm")
_KIND_CODE = {k: i for i, k in enumerate(KINDS)}

# One LSTM cell's tensors in registration order: the input weights, the
# recurrent weights and the biases, each in i, f, o, c gate order.
GATES = ("w_xi", "w_xf", "w_xo", "w_xc", "w_hi", "w_hf", "w_ho", "w_hc", "b_i", "b_f", "b_o", "b_c")
# A cell's gate tensors stacked four at a time along axis 0: the input
# weights, the recurrent weights and the biases.
FUSED = ("wx", "wh", "b")

CHECKPOINT_MAGIC = b"DRNP"
CHECKPOINT_VERSION = 1
# magic, version, kind code, ModelSpec's eight sizes, tensor count
CHECKPOINT_HEADER = "<4sIB8II"


@dataclass
class ModelSpec:
    """Architecture and input geometry of one model.

    ``pool_factor`` downsamples every input frame before the network;
    ``in_*`` are the raw record dimensions, which size the parameters.
    """

    kind: str
    stacks: int = 1
    hidden: int = 8
    kernel: int = 3
    pool_factor: int = 1
    in_t: int = 15
    in_c: int = 4
    in_h: int = 101
    in_w: int = 101

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}, expected one of {KINDS}")
        for name in ("stacks", "hidden", "pool_factor", "in_t", "in_c", "in_h", "in_w"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.kind == "conv-lstm" and (self.kernel < 1 or self.kernel % 2 == 0):
            raise ValueError(f"kernel must be odd and >= 1, got {self.kernel}")

    @property
    def pooled_h(self) -> int:
        return -(-self.in_h // self.pool_factor)

    @property
    def pooled_w(self) -> int:
        return -(-self.in_w // self.pool_factor)

    @property
    def frame_dim(self) -> int:
        return self.in_c * self.pooled_h * self.pooled_w


# ModelSpec's sizes in DRNP header order: every field after ``kind``.
_SIZES = tuple(f.name for f in fields(ModelSpec))[1:]


LstmCellParams = make_dataclass(
    "LstmCellParams",
    [(name, object) for name in GATES],
    namespace={
        "__module__": __name__,
        "__doc__": """Gate weights and biases of one LSTM cell, one field per
    name in ``GATES``.

    The rank of ``w_xi`` tells the kinds apart: [hidden,C,k,k] kernels for
    a ConvLSTM cell, [hidden,D] matrices for an FC-LSTM cell.
    """,
    },
)


ConvLstmCellParams = FcLstmCellParams = LstmCellParams


@dataclass
class CellState:
    """Hidden/cell pair carried across time steps; shapes always match."""

    h: object
    c: object


@dataclass
class Model:
    """A spec plus its parameters, keyed and ordered as ``param_shapes(spec)``."""

    spec: ModelSpec
    params: dict

    def named_parameters(self) -> dict[str, np.ndarray]:
        """A new dict over the model's own arrays (in-place updates land)."""
        return dict(self.params)

    @classmethod
    def from_named(cls, spec: ModelSpec, named: dict) -> "Model":
        """Take ``spec``'s parameters from ``named`` in ``param_shapes`` order."""
        return cls(spec, {name: named[name] for name in param_shapes(spec)})


def _cell_layout(hidden: int, fan_in: int, window: tuple):
    """(gate name, shape) of one cell's tensors; ``window`` is (k, k) for a
    ConvLSTM cell and () for an FC-LSTM cell."""
    weights = 4 * [(hidden, fan_in) + window] + 4 * [(hidden, hidden) + window]
    return zip(GATES, weights + 4 * [(hidden,)])


def _layout(spec: ModelSpec):
    """Yield (name, shape) of every parameter, in registration order."""
    if spec.kind == "linear":
        yield "linear.weight", (1, spec.in_t * spec.frame_dim)
        yield "linear.bias", (1,)
        return
    conv = spec.kind == "conv-lstm"
    fan_in = spec.in_c if conv else spec.frame_dim
    window = (spec.kernel, spec.kernel) if conv else ()
    for i in range(spec.stacks):
        for name, shape in _cell_layout(spec.hidden, spec.hidden if i else fan_in, window):
            yield f"cell{i}.{name}", shape
    yield "head.weight", (1, spec.hidden)
    yield "head.bias", (1,)


def param_shapes(spec: ModelSpec) -> dict[str, tuple]:
    """Canonical parameter names and shapes, in registration order."""
    return dict(_layout(spec))


def _glorot_limit(shape: tuple) -> float:
    """Glorot's uniform limit; a kernel window beyond the first two axes
    scales both fans."""
    fan_in, fan_out = math.prod(shape[1:]), shape[0] * math.prod(shape[2:])
    return math.sqrt(6.0 / (fan_in + fan_out))


def init_params(spec: ModelSpec, seed: int) -> Model:
    """Glorot-uniform weights, zero biases, forget-gate bias 1.0.

    Parameter draws follow the fixed registration order, so a seed fully
    determines every value. The biases are the rank-1 tensors.
    """
    rng = np.random.default_rng(seed)
    named: dict[str, np.ndarray] = {}
    for name, shape in _layout(spec):
        if len(shape) == 1:
            fill = 1.0 if name.endswith(".b_f") else 0.0
            named[name] = np.full(shape, fill, dtype=np.float64)
        else:
            a = _glorot_limit(shape)
            named[name] = rng.uniform(-a, a, size=shape)
    return Model(spec, named)


# -- cell steps and encoders ----------------------------------------------


def _stacks(tensors: list, stack) -> tuple:
    """A cell's twelve tensors, in ``GATES`` order, as the three stacks of
    ``FUSED``, each of four gates along axis 0 (``stack`` joins four)."""
    return tuple(stack(tensors[j : j + 4]) for j in (0, 4, 8))


def _fuse_gates(tape: Tape, p) -> tuple:
    """Stack the four gates' weights along the output axis.

    One stacked convolution (or matrix product) per input then computes all
    gate preactivations at once; each output row equals the corresponding
    per-gate computation.
    """
    return _stacks([getattr(p, name) for name in GATES], tape.concat0)


def _fused_step(tape: Tape, fused: tuple, x: Node, state: CellState) -> CellState:
    wx, wh, b = fused
    if len(wx.shape) == 4:
        pre = tape.add(tape.conv2d(x, wx, b), tape.conv2d(state.h, wh))
    else:
        pre = tape.add(tape.affine(x, wx, b), tape.affine(state.h, wh))
    c_t, h_t = tape.lstm_cell(pre, state.c)
    return CellState(h=h_t, c=c_t)


def lstm_cell_step(tape: Tape, p: LstmCellParams, x: Node, state: CellState) -> CellState:
    """One cell step: a ConvLSTM step on a [C,H,W] input with [hidden,H,W]
    state, or an FC-LSTM step on a [D] input with [hidden] state."""
    if x.shape[0] != p.w_xi.shape[1]:
        raise ShapeError(
            "lstm_cell_step: input gate / extent: "
            f"input has extent {x.shape[0]}, w_xi expects {p.w_xi.shape[1]}"
        )
    shape = (p.b_i.shape[0],) + x.shape[1:]
    if state.h.shape != shape or state.c.shape != shape:
        raise ShapeError(
            "lstm_cell_step: recurrent gate / state: "
            f"state shapes {state.h.shape} and {state.c.shape}, expected {shape}"
        )
    return _fused_step(tape, _fuse_gates(tape, p), x, state)


convlstm_cell_step = fclstm_cell_step = lstm_cell_step


def encode_sequence(tape: Tape, cells: list, seq: list) -> Node:
    """Run the stacked cells over the input sequence; return the top H_T.

    Layer l >= 1 consumes layer l-1's full hidden sequence. States start at
    zero. Many-to-one: only the final hidden of the top cell is returned.
    """
    if not seq:
        raise ValueError("encode_sequence: empty input sequence")
    current = seq
    for cell in cells:
        fused = _fuse_gates(tape, cell)
        shape = (cell.b_i.shape[0],) + current[0].shape[1:]
        state = CellState(h=tape.const(np.zeros(shape)), c=tape.const(np.zeros(shape)))
        outputs = []
        for x in current:
            state = _fused_step(tape, fused, x, state)
            outputs.append(state.h)
        current = outputs
    return current[-1]


def regression_head(tape: Tape, weight: Node, bias: Node, h_t: Node) -> Node:
    """Collapse the encoder output to one scalar estimate."""
    if len(h_t.shape) == 3:
        h_t = tape.global_avg_pool(h_t)
    elif len(h_t.shape) != 1:
        raise ShapeError(f"regression_head: input: expected rank 1 or 3, got rank {len(h_t.shape)}")
    return tape.affine(h_t, weight, bias)


# -- whole-model forward ---------------------------------------------------


def preprocess(frames: np.ndarray, spec: ModelSpec):
    """Normalize reflectivity and downsample to the model's input geometry.

    Returns a list of T per-step inputs for the LSTM kinds ([C,H',W'] maps
    for conv-lstm, flat vectors for fc-lstm) or one flat vector for linear.
    """
    arr = np.asarray(frames)
    if arr.shape != (spec.in_t, spec.in_c, spec.in_h, spec.in_w):
        raise ShapeError(
            f"preprocess: record dims: got {arr.shape}, spec expects "
            f"({spec.in_t}, {spec.in_c}, {spec.in_h}, {spec.in_w})"
        )
    norm = arr.astype(np.float64) / 255.0
    steps = [norm[t] for t in range(spec.in_t)]
    if spec.pool_factor > 1:
        steps = [avg_pool2d(s, spec.pool_factor) for s in steps]
    if spec.kind == "conv-lstm":
        return steps
    if spec.kind == "fc-lstm":
        return [s.ravel() for s in steps]
    return np.concatenate([s.ravel() for s in steps])


def lift(tape: Tape, model: Model) -> Model:
    """Register every parameter on the tape; return the node-valued twin."""
    return Model(model.spec, {name: tape.param(name, arr) for name, arr in model.params.items()})


def fuse(spec: ModelSpec, p: dict, stack) -> dict:
    """``p`` with each cell's twelve gate entries replaced by its three
    stacks, ``cell{i}.wx``, ``.wh`` and ``.b``: ``tape.concat0`` stacks
    nodes, ``np.concatenate`` arrays. Other entries pass through."""
    out = dict(p)
    if spec.kind != "linear":
        for i in range(spec.stacks):
            tensors = [out.pop(f"cell{i}.{name}") for name in GATES]
            out.update(zip((f"cell{i}.{part}" for part in FUSED), _stacks(tensors, stack)))
    return out


def record_bytes(spec: ModelSpec) -> int:
    """Bytes one record adds to the arrays that an LSTM model's chunk
    tape keeps: per layer and step, the layer's input, its h and c states
    and its four gate values."""
    pixels = spec.pooled_h * spec.pooled_w if spec.kind == "conv-lstm" else 1
    inputs = spec.frame_dim + (spec.stacks - 1) * spec.hidden * pixels
    return 8 * spec.in_t * (inputs + spec.stacks * 6 * spec.hidden * pixels)


def predictions(tape: Tape, spec: ModelSpec, p: dict, xs: np.ndarray) -> list:
    """Scalar estimate nodes of a chunk of preprocessed records, stacked
    along a leading axis in ``xs``.

    ``p`` maps the parameter names, with each cell's gates fused (see
    ``fuse``), to nodes. The encoder is one ``lstm_layer`` node per cell
    for the whole chunk, layer l >= 1 consuming layer l-1's full hidden
    sequence; each record then has its own head on the top layer's final
    hidden state.
    """
    if spec.kind == "linear":
        return [tape.affine(tape.const(x), p["linear.weight"], p["linear.bias"]) for x in xs]
    top = tape.const(xs)
    for i in range(spec.stacks):
        cell = (p[f"cell{i}.{part}"] for part in FUSED)
        top = tape.lstm_layer(top, *cell, last=i == spec.stacks - 1)
    head = p["head.weight"], p["head.bias"]
    return [regression_head(tape, *head, tape.index0(top, r)) for r in range(len(xs))]


def build_prediction(tape: Tape, lifted: Model, inputs) -> Node:
    """Forward graph from one record's preprocessed inputs to the scalar
    estimate node: ``predictions`` at k = 1, each cell's gates fused on the
    tape."""
    p = fuse(lifted.spec, lifted.params, tape.concat0)
    return predictions(tape, lifted.spec, p, np.asarray(inputs)[None])[0]


def predict(model: Model, record, clamp: bool = False) -> float:
    """Scalar rainfall estimate for one record (pure per sample).

    ``record`` is a RadarRecord or a raw [T,C,H,W] array. ``clamp`` floors
    the reported value at zero; training always uses the raw output.

    The forward is ``encode_sequence``'s, step by step, with the values of
    ``build_prediction`` bit for bit: perfbench's traced run counts the
    conv2d and affine calls of evaluation.
    """
    frames = getattr(record, "frames", record)
    inputs = preprocess(frames, model.spec)
    tape = Tape()
    p = lift(tape, model).params
    if model.spec.kind == "linear":
        node = tape.affine(tape.const(inputs), p["linear.weight"], p["linear.bias"])
    else:
        cells = [
            LstmCellParams(**{name: p[f"cell{i}.{name}"] for name in GATES})
            for i in range(model.spec.stacks)
        ]
        h_t = encode_sequence(tape, cells, [tape.const(x) for x in inputs])
        node = regression_head(tape, p["head.weight"], p["head.bias"], h_t)
    value = float(node.value[0])
    return max(0.0, value) if clamp else value


def gradcheck_model(spec: ModelSpec, seed: int) -> GradCheckReport:
    """Finite-difference check of every parameter gradient of the seeded
    initial model on one record: the seed draws the frames, then a target in
    [0, 5), and the initial parameters."""
    rng = np.random.default_rng(seed)
    frames = rng.integers(0, 256, (spec.in_t, spec.in_c, spec.in_h, spec.in_w))
    inputs = preprocess(frames, spec)
    target = np.array([float(rng.uniform(0.0, 5.0))])

    def loss_fn(values):
        tape = Tape()
        pred = build_prediction(tape, lift(tape, Model(spec, values)), inputs)
        tape.squared_error(pred, tape.const(target))
        return tape

    return grad_check(loss_fn, init_params(spec, seed).named_parameters())


# -- checkpoint container ---------------------------------------------------


class CheckpointError(ValueError):
    """Malformed or mismatched checkpoint file."""


def _require_finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise CheckpointError(f"tensor {name}: non-finite values")


def save_checkpoint(path: str, model: Model) -> None:
    """Write the versioned DRNP container (little-endian, bit-exact). The
    header and then each tensor go straight into the file, so the weights
    are not copied. A non-finite tensor is refused, and no file is left."""
    spec = model.spec
    named = model.named_parameters()

    def write(fh):
        sizes = [getattr(spec, name) for name in _SIZES]
        fh.write(struct.pack(
            CHECKPOINT_HEADER, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, _KIND_CODE[spec.kind],
            *sizes, len(named),
        ))
        for name, arr in named.items():
            _require_finite(name, arr)
            nb = name.encode("utf-8")
            fh.write(struct.pack(f"<I{len(nb)}sI{arr.ndim}I", len(nb), nb, arr.ndim, *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))

    atomic_write(path, write)


def load_checkpoint(path: str) -> Model:
    with open(path, "rb") as fh:
        r = BoundedReader(fh, CheckpointError)
        magic, version, kind_code, *sizes, count = r.take(CHECKPOINT_HEADER)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        if kind_code >= len(KINDS):
            raise CheckpointError(f"unknown model kind code {kind_code}")
        try:
            spec = ModelSpec(kind=KINDS[kind_code], **dict(zip(_SIZES, sizes)))
        except ValueError as exc:
            raise CheckpointError(f"invalid model spec: {exc}") from None
        # A tensor takes at least 12 bytes (name length, rank, one extent)
        # and every stack owns tensors, so the layout is bounded by the
        # file's size; it is counted, not kept, before any table is built.
        if 12 * count > r.left:
            raise CheckpointError(f"truncated file: {count} tensors in {r.left} bytes")
        if spec.kind != "linear" and spec.stacks > count:
            raise CheckpointError(f"{spec.stacks} stacks, but only {count} tensors")
        size = sum(1 for _ in _layout(spec))
        if count != size:
            raise CheckpointError(f"{count} tensors, spec expects {size}")
        expected = param_shapes(spec)
        named: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = r.take("<I")
            try:
                name = r.take_bytes(name_len).decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError("tensor name is not UTF-8") from None
            if name in named:
                raise CheckpointError(f"tensor {name!r} appears twice")
            if name not in expected:
                raise CheckpointError(f"tensor {name!r} is not a parameter of the spec")
            (rank,) = r.take("<I")
            shape = r.take(f"<{rank}I")
            named[name] = r.take_array(shape, "<f8").astype(np.float64, copy=False)
            if shape != expected[name]:
                raise CheckpointError(
                    f"tensor {name}: shape {shape}, spec expects {expected[name]}"
                )
            _require_finite(name, named[name])
        if r.left:
            raise CheckpointError("trailing bytes after last tensor")
    return Model(spec, {name: named[name] for name in expected})
