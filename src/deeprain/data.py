"""Dataset handling: text parsing, the DRN1 binary container, deterministic
splits and minibatches, and a synthetic radar-sequence generator. The
bounded reader here serves DRN1 datasets and DRNP checkpoints; the atomic
writer serves those and the learning-curve CSV, every file deeprain writes.

Text layout (one record per line, whitespace separated): the rainfall label
first, then T*C*H*W reflectivity integers in time-major, then channel, then
row-major spatial order. Lines starting with ``#`` are comments.

Synthetic records contain drifting Gaussian storm blobs quantized to
[0, 255]. The label is the published learnability oracle

    m     = mean normalized channel-0 reflectivity over the central
            floor(H/2) x floor(W/2) crop of the last 5 frames
    label = max(0, a*m + b*m^2 + gaussian_noise)

so the generated labels are recomputable from the frames up to the noise
term, and the quadratic term keeps plain linear regression from fitting the
target exactly.
"""

from __future__ import annotations

import math
import os
import struct
import typing
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DataFormatError",
    "RadarRecord",
    "DatasetSplit",
    "SynthConfig",
    "parse_text_record",
    "parse_text_file",
    "write_binary",
    "read_binary",
    "split",
    "minibatches",
    "synth_generate",
    "synth_feature",
    "synth_label",
    "load_synth_config",
    "atomic_write",
    "require_writable",
    "BoundedReader",
]

BINARY_MAGIC = b"DRN1"
BINARY_VERSION = 1
BINARY_HEADER = "<4sIIIIIQ"  # magic, version, T, C, H, W, record count


class DataFormatError(ValueError):
    """Malformed dataset input, carrying line and token positions."""

    def __init__(self, message: str, line_no: int | None = None, token_index: int | None = None):
        self.line_no = line_no
        self.token_index = token_index
        where = ""
        if line_no is not None:
            where += f" (line {line_no}"
            if token_index is not None:
                where += f", token {token_index}"
            where += ")"
        elif token_index is not None:
            where = f" (token {token_index})"
        super().__init__(message + where)


@dataclass
class RadarRecord:
    """One labeled sample: [T,C,H,W] reflectivity integers plus the label."""

    label: float
    frames: np.ndarray

    def __post_init__(self):
        frames = np.asarray(self.frames)
        if frames.ndim != 4:
            raise DataFormatError(f"frames must be rank 4, got rank {frames.ndim}")
        if 0 in frames.shape:
            raise DataFormatError(f"every extent must be at least 1, got {frames.shape}")
        if frames.dtype != np.uint8:
            if not np.issubdtype(frames.dtype, np.integer):
                raise DataFormatError("frames must hold integers")
            if frames.min() < 0 or frames.max() > 255:
                raise DataFormatError("reflectivity values must be in [0, 255]")
            frames = frames.astype(np.uint8)
        self.frames = frames
        self.label = float(self.label)
        if not math.isfinite(self.label) or self.label < 0:
            raise DataFormatError(f"label must be finite and >= 0, got {self.label}")

    @property
    def dims(self) -> tuple:
        return self.frames.shape

    def __eq__(self, other):
        return (
            isinstance(other, RadarRecord)
            and self.label == other.label
            and self.frames.shape == other.frames.shape
            and bool(np.array_equal(self.frames, other.frames))
        )


@dataclass
class DatasetSplit:
    """Disjoint index lists covering the whole dataset."""

    train: list[int]
    validation: list[int]
    test: list[int]


def parse_text_record(line: str, dims: tuple, line_no: int | None = None) -> RadarRecord:
    """Parse one text line: the label followed by T*C*H*W integers."""
    t, c, h, w = dims
    n_vals = t * c * h * w
    tokens = line.split()
    if len(tokens) != n_vals + 1:
        raise DataFormatError(
            f"expected {n_vals + 1} tokens (1 label + {n_vals} values), got {len(tokens)}",
            line_no=line_no,
        )
    try:
        label = float(tokens[0])
    except ValueError:
        raise DataFormatError(
            f"label {tokens[0]!r} is not numeric", line_no=line_no, token_index=0
        ) from None
    try:
        values = np.array(tokens[1:], dtype=np.int64)
    except (ValueError, OverflowError):  # OverflowError: an integer beyond int64
        for i, tok in enumerate(tokens[1:], start=1):
            try:
                value = int(tok)
            except ValueError:
                raise DataFormatError(
                    f"value {tok!r} is not an integer", line_no=line_no, token_index=i
                ) from None
            if not 0 <= value <= 255:
                raise DataFormatError(
                    f"reflectivity {tok} outside [0, 255]", line_no=line_no, token_index=i
                )
        raise
    bad = np.nonzero((values < 0) | (values > 255))[0]
    if bad.size:
        i = int(bad[0]) + 1
        raise DataFormatError(
            f"reflectivity {tokens[i]} outside [0, 255]", line_no=line_no, token_index=i
        )
    try:
        return RadarRecord(label=label, frames=values.reshape(t, c, h, w))
    except DataFormatError as exc:
        raise DataFormatError(str(exc), line_no=line_no) from None


def _text_lines(path: str):
    """Yield (line number, stripped line) for the non-blank, non-comment
    (``#``) lines of a UTF-8 text file. A line holding bytes that are not
    UTF-8 raises DataFormatError naming it."""
    # surrogateescape turns each undecodable byte into a lone surrogate,
    # which valid UTF-8 never decodes to, so the line it is on is known
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise DataFormatError(
                    f"byte 0x{byte:02x} is not UTF-8 text", line_no=line_no
                ) from None
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                yield line_no, stripped


def parse_text_file(path: str, dims: tuple) -> list[RadarRecord]:
    """Parse a text dataset, ignoring comment (``#``) and blank lines."""
    return [parse_text_record(line, dims, line_no=line_no) for line_no, line in _text_lines(path)]


def require_writable(path: str) -> None:
    """Raise OSError naming ``path`` unless ``atomic_write`` can create it.
    Commands check each output this way before they read any input."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise OSError(f"cannot write {path}: it is a directory")
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
        raise OSError(f"cannot write {path}: {folder} is not a writable directory")


def atomic_write(path: str, write) -> None:
    """Call ``write(fh)`` on a new temporary file next to ``path``, fsync it,
    rename it over ``path`` and fsync the directory, so that the rename, too,
    survives a crash (Pillai et al., OSDI 2014). If anything before the
    rename fails, the temporary file is removed and ``path`` is left as it
    was. The temporary file's name is unique, and it is created exclusively
    with the mode that ``open(path, "wb")`` gives."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    # outside the try: a name that already exists is not ours to remove
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
    dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


class BoundedReader:
    """Reads a binary file front to back, checking each length against the
    bytes left in the file before anything is allocated. Every failure
    raises ``error``, the format's typed error."""

    def __init__(self, fh, error: type[ValueError]):
        self.fh = fh
        self.error = error
        self.left = os.fstat(fh.fileno()).st_size

    def _claim(self, n: int) -> None:
        if n > self.left:
            raise self.error("truncated file")
        self.left -= n

    def take(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take_bytes(struct.calcsize(fmt)))

    def take_bytes(self, n: int) -> bytes:
        self._claim(n)
        out = self.fh.read(n)
        if len(out) != n:
            raise self.error("truncated file: it shrank while read")
        return out

    def take_array(self, shape: tuple, dtype) -> np.ndarray:
        """A fresh array of ``shape``, read straight from the file."""
        # Python ints: np.prod would wrap extents such as (2**32-1, 2**32-1)
        self._claim(math.prod(shape) * np.dtype(dtype).itemsize)
        try:
            out = np.empty(shape, dtype)
        except ValueError:  # over 64 axes, or an empty shape too large to index
            raise self.error(f"unusable shape {shape}") from None
        if self.fh.readinto(out) != out.nbytes:
            raise self.error("truncated file: it shrank while read")
        return out


def write_binary(records: list[RadarRecord], path: str) -> None:
    """Write the DRN1 container: header, then label + raw frame bytes per record."""
    if not records:
        raise DataFormatError("cannot write an empty record set")
    dims = records[0].dims
    for i, rec in enumerate(records):
        if rec.dims != dims:
            raise DataFormatError(
                f"record {i} has dims {rec.dims}, first record has {dims}"
            )

    def write(fh):
        fh.write(struct.pack(BINARY_HEADER, BINARY_MAGIC, BINARY_VERSION, *dims, len(records)))
        for rec in records:
            fh.write(struct.pack("<d", rec.label))
            fh.write(rec.frames.tobytes())

    atomic_write(path, write)


def read_binary(path: str) -> list[RadarRecord]:
    """Read a DRN1 file. The header and the file size are checked before any
    record is read; each record's frames are then read straight into their
    own writable array, so the data is resident once."""
    header = struct.calcsize(BINARY_HEADER)
    with open(path, "rb") as fh:
        r = BoundedReader(fh, DataFormatError)
        size = r.left
        if size < header:
            raise DataFormatError("bad magic: file shorter than the DRN1 header")
        magic, version, t, c, h, w, count = r.take(BINARY_HEADER)
        if magic != BINARY_MAGIC:
            raise DataFormatError(f"bad magic {magic!r}, expected {BINARY_MAGIC!r}")
        if version != BINARY_VERSION:
            raise DataFormatError(f"unsupported version {version}")
        if count == 0:
            raise DataFormatError("empty dataset: the header declares no records")
        expected = header + count * (8 + t * c * h * w)
        if size != expected:
            raise DataFormatError(
                f"size mismatch: header promises {count} records "
                f"({expected} bytes), file has {size} bytes"
            )
        return [
            RadarRecord(r.take("<d")[0], r.take_array((t, c, h, w), np.uint8))
            for _ in range(count)
        ]


def _fisher_yates(items: list, rng: np.random.Generator) -> list:
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        items[i], items[j] = items[j], items[i]
    return items


def split(n: int, ratios: tuple = (0.9, 0.05, 0.05), seed: int = 0) -> DatasetSplit:
    """Seeded Fisher-Yates shuffle, then a contiguous train/val/test cut.

    Validation and test sizes round half up; the remainder goes to train.
    """
    if n <= 0:
        raise ValueError(f"split: need at least one record, got {n}")
    if len(ratios) != 3:
        raise ValueError(f"split: expected 3 ratios, got {len(ratios)}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split: ratios must sum to 1, got {sum(ratios)}")
    order = _fisher_yates(list(range(n)), np.random.default_rng(seed))
    n_val = int(math.floor(n * ratios[1] + 0.5))
    n_test = int(math.floor(n * ratios[2] + 0.5))
    n_train = n - n_val - n_test
    if n_train < 0:
        raise ValueError("split: rounding left no records for training")
    return DatasetSplit(
        train=order[:n_train],
        validation=order[n_train : n_train + n_val],
        test=order[n_train + n_val :],
    )


def minibatches(indices: list[int], batch_size: int, epoch: int, seed: int) -> list[list[int]]:
    """Per-epoch reshuffled batches; the final partial batch is kept."""
    if batch_size < 1:
        raise ValueError(f"minibatches: batch_size must be >= 1, got {batch_size}")
    order = _fisher_yates(list(indices), np.random.default_rng([seed, epoch]))
    return [order[i : i + batch_size] for i in range(0, len(order), batch_size)]


# -- synthetic generator -----------------------------------------------------


@dataclass
class SynthConfig:
    """Generator settings; defaults match the canonical benchmark geometry."""

    count: int
    t: int = 5
    c: int = 2
    h: int = 8
    w: int = 8
    noise: float = 0.02
    a: float = 0.5
    b: float = 1.0
    seed: int = 42

    def __post_init__(self):
        for name in ("count", "t", "c", "h", "w"):
            if getattr(self, name) < 1:
                raise ValueError(f"SynthConfig.{name} must be >= 1")
        if not 0 <= self.noise < math.inf:
            raise ValueError(f"SynthConfig.noise must be finite and >= 0, got {self.noise}")
        if self.seed < 0:
            raise ValueError("SynthConfig.seed must be >= 0")


_SYNTH_KEYS = typing.get_type_hints(SynthConfig)  # key -> type, in field order


def load_synth_config(path: str) -> SynthConfig:
    """Read a key=value config file (unknown keys rejected)."""
    values: dict = {}
    for line_no, line in _text_lines(path):
        if "=" not in line:
            raise DataFormatError("expected key=value", line_no=line_no)
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _SYNTH_KEYS:
            raise DataFormatError(f"unknown key {key!r}", line_no=line_no)
        try:
            values[key] = _SYNTH_KEYS[key](raw.strip())
        except ValueError:
            raise DataFormatError(
                f"value {raw.strip()!r} invalid for key {key!r}", line_no=line_no
            ) from None
    if "count" not in values:
        raise DataFormatError("config must set count")
    try:
        return SynthConfig(**values)
    except ValueError as exc:
        raise DataFormatError(f"invalid config: {exc}") from None


def synth_feature(frames: np.ndarray) -> float:
    """Mean normalized channel-0 reflectivity over the central crop of the
    last five frames (all frames when T < 5)."""
    t, _, h, w = frames.shape
    ch, cw = h // 2, w // 2
    top, left = (h - ch) // 2, (w - cw) // 2
    last = frames[max(0, t - 5) :, 0, top : top + ch, left : left + cw]
    return float(last.mean() / 255.0)


def synth_label(frames: np.ndarray, a: float, b: float) -> float:
    """Noise-free closed form of the synthetic label."""
    m = synth_feature(frames)
    return max(0.0, a * m + b * m * m)


def _blob_frames(rng: np.random.Generator, cfg: SynthConfig) -> np.ndarray:
    """Drifting Gaussian storm blobs; higher channels view the same storm
    broader and fainter, like higher altitude slices."""
    yy = np.arange(cfg.h, dtype=np.float64)[:, None]
    xx = np.arange(cfg.w, dtype=np.float64)[None, :]
    n_blobs = int(rng.integers(1, 5))
    cy = rng.uniform(0, cfg.h - 1, n_blobs)
    cx = rng.uniform(0, cfg.w - 1, n_blobs)
    vy = rng.uniform(-1.5, 1.5, n_blobs)
    vx = rng.uniform(-1.5, 1.5, n_blobs)
    extent = min(cfg.h, cfg.w)
    sigma = rng.uniform(extent / 6.0, extent / 3.0, n_blobs)
    amp = rng.uniform(0.35, 1.0, n_blobs)
    ch = np.arange(cfg.c)[:, None]
    two_var = (2.0 * (sigma * (1.0 + 0.15 * ch)) ** 2)[:, :, None, None]  # [C, blobs, 1, 1]
    scale = (amp / (1.0 + 0.25 * ch))[:, :, None, None]
    frames = np.empty((cfg.t, cfg.c, cfg.h, cfg.w), dtype=np.float64)
    for t in range(cfg.t):
        d2 = (yy - (cy + t * vy)[:, None, None]) ** 2 + (xx - (cx + t * vx)[:, None, None]) ** 2
        # [C, blobs, H, W] for this step only; the sum adds blobs in order
        frames[t] = (scale * np.exp(-d2 / two_var)).sum(axis=1)
    return np.clip(np.rint(255.0 * frames), 0, 255).astype(np.uint8)


def synth_generate(cfg: SynthConfig) -> list[RadarRecord]:
    """Deterministic per (cfg, record index); records are independent, so
    generation order does not affect content."""
    records = []
    for idx in range(cfg.count):
        rng = np.random.default_rng([cfg.seed, idx])
        frames = _blob_frames(rng, cfg)
        m = synth_feature(frames)
        label = cfg.a * m + cfg.b * m * m
        if cfg.noise > 0:
            label += float(rng.normal(0.0, cfg.noise))
        records.append(RadarRecord(label=max(0.0, label), frames=frames))
    return records

