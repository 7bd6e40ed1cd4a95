"""Hostile input into the parsers: a DRN1 dataset or a DRNP checkpoint
with flipped, overwritten or cut-off header and per-tensor fields, a text
dataset line or file or a synthetic-data config file with malformed or
out-of-range tokens or bytes that are not UTF-8 either still parses or fails
with the format's typed error, never another exception. The binary parsers
also allocate no more than a small multiple of the file's size."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deeprain.data import (
    DataFormatError,
    RadarRecord,
    load_synth_config,
    parse_text_file,
    parse_text_record,
    read_binary,
    write_binary,
)
from deeprain.model import (
    CheckpointError,
    ModelSpec,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

DRN1_HEADER = "<4sIIIIIQ"
DRNP_HEADER = "<4sIB8II"  # magic, version, kind, eight spec fields, tensor count
# u32 values that reach the edges: empty, tiny, sign bit, all ones
EXTREME_U32 = (0, 1, 2, 3, 4, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)


def _drn1_fields(raw: bytes, n_vals: int) -> tuple[list, list]:
    """Byte offsets of the header and of every record label, plus the start
    offsets of the header's u32 fields."""
    header = struct.calcsize(DRN1_HEADER)
    offsets = list(range(header))
    for pos in range(header, len(raw), 8 + n_vals):
        offsets += range(pos, pos + 8)
    return offsets, list(range(4, 24, 4))


def _drnp_fields(raw: bytes) -> tuple[list, list]:
    """Byte offsets of the header and of every tensor's name length, name,
    rank and extents (not its values), plus the start offsets of the u32
    fields among them."""
    pos = struct.calcsize(DRNP_HEADER)
    offsets = list(range(pos))
    words = [4] + list(range(9, pos, 4))
    (count,) = struct.unpack_from("<I", raw, pos - 4)
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", raw, pos)
        rank_at = pos + 4 + name_len
        (rank,) = struct.unpack_from("<I", raw, rank_at)
        end = rank_at + 4 + 4 * rank
        offsets += range(pos, end)
        words += [pos, rank_at] + list(range(rank_at + 4, end, 4))
        shape = struct.unpack_from(f"<{rank}I", raw, rank_at + 4)
        pos = end + 8 * int(np.prod(shape))
    assert pos == len(raw)
    return offsets, words


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(3)
    drn1 = root / "data.drn1"
    write_binary([RadarRecord(1.5, rng.integers(0, 256, (2, 1, 3, 3))) for _ in range(3)],
                 str(drn1))
    drn1_raw = drn1.read_bytes()
    out = {"drn1": [(drn1_raw, *_drn1_fields(drn1_raw, 2 * 1 * 3 * 3))], "drnp": []}
    for spec in (
        ModelSpec("conv-lstm", stacks=2, hidden=1, in_t=2, in_c=1, in_h=3, in_w=3),
        ModelSpec("fc-lstm", stacks=1, hidden=2, in_t=2, in_c=1, in_h=2, in_w=2),
        ModelSpec("linear", in_t=1, in_c=1, in_h=2, in_w=2),
    ):
        path = root / "model.drnp"
        save_checkpoint(str(path), init_params(spec, 0))
        raw = path.read_bytes()
        out["drnp"].append((raw, *_drnp_fields(raw)))
    return root, out


def _mutate(data, raw: bytes, offsets: list, words: list) -> bytes:
    kind = data.draw(st.sampled_from(["flip", "word", "truncate"]))
    if kind == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    buf = bytearray(raw)
    if kind == "word":
        at = data.draw(st.sampled_from(words))
        buf[at : at + 4] = struct.pack("<I", data.draw(st.sampled_from(EXTREME_U32)))
    else:
        for _ in range(data.draw(st.integers(1, 4))):
            buf[data.draw(st.sampled_from(offsets))] = data.draw(st.integers(0, 255))
    if data.draw(st.booleans()):
        buf = buf[: data.draw(st.integers(0, len(buf)))]
    return bytes(buf)


@pytest.mark.parametrize(
    "fmt, parse, error",
    [("drn1", read_binary, DataFormatError), ("drnp", load_checkpoint, CheckpointError)],
)
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_file_raises_only_its_typed_error(samples, fmt, parse, error, data):
    root, files = samples
    raw, offsets, words = data.draw(st.sampled_from(files[fmt]))
    path = root / f"mutated.{fmt}"
    mutated = _mutate(data, raw, offsets, words)
    path.write_bytes(mutated)
    tracemalloc.start()
    try:
        parse(str(path))
    except error:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    # whatever the header claims: the file's bytes, read and converted, plus
    # the objects that hold a few records or tensors
    assert peak <= 2 * len(mutated) + 65536, (peak, len(mutated))


# Tokens a text line or a config value may carry: in-range and out-of-range
# integers, integers beyond int64, floats with their special values, and text.
TOKENS = st.one_of(
    st.integers(-300, 600).map(str),
    st.integers(2**63 - 2, 2**80).map(str),
    st.integers(-(2**80), -(2**63) - 1).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e309", "0x1f", "1_0", "+5", ""]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)


# The same tokens as UTF-8, or raw bytes that need not be UTF-8 at all.
RAW_TOKENS = st.one_of(TOKENS.map(str.encode), st.binary(max_size=6))


@given(tokens=st.lists(TOKENS, max_size=7))
@settings(max_examples=300, deadline=None)
def test_text_line_raises_only_data_format_error(tokens):
    try:
        parse_text_record(" ".join(tokens), (1, 1, 2, 2), line_no=1)
    except DataFormatError:
        pass


@given(lines=st.lists(st.lists(RAW_TOKENS, max_size=6).map(b" ".join), max_size=4))
@settings(max_examples=300, deadline=None)
def test_text_file_raises_only_data_format_error(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "data.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    try:
        parse_text_file(str(path), (1, 1, 1, 2))
    except DataFormatError:
        pass


CONFIG_KEYS = ("count", "t", "c", "h", "w", "noise", "a", "b", "seed")
CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from(CONFIG_KEYS).map(str.encode), RAW_TOKENS).map(b"=".join),
    st.tuples(st.one_of(st.text(max_size=4).map(str.encode), st.binary(max_size=4)), RAW_TOKENS)
    .map(b"=".join),
    st.sampled_from([b"", b"# comment", b"count", b"=", b"count=5"]),
)


@given(lines=st.lists(CONFIG_LINES, max_size=6))
@settings(max_examples=300, deadline=None)
def test_config_file_raises_only_data_format_error(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "synth.cfg"
    path.write_bytes(b"\n".join(lines) + b"\n")
    try:
        load_synth_config(str(path))
    except DataFormatError:
        pass
