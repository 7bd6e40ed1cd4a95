import errno
import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deeprain.data import (
    DataFormatError,
    RadarRecord,
    SynthConfig,
    load_synth_config,
    minibatches,
    parse_text_file,
    parse_text_record,
    read_binary,
    split,
    synth_feature,
    synth_generate,
    synth_label,
    write_binary,
)
from deeprain import data as data_module
from deeprain.model import ModelSpec, init_params, save_checkpoint
from deeprain.train import EpochStats, emit_curve

CANONICAL_DIMS = (15, 4, 101, 101)
CANONICAL_VALUES = 612_060


def tiny_records(count=3, dims=(2, 1, 3, 3), seed=0):
    rng = np.random.default_rng(seed)
    return [
        RadarRecord(label=float(rng.uniform(0, 5)), frames=rng.integers(0, 256, dims))
        for _ in range(count)
    ]


class TestParseText:
    def test_tiny_line(self):
        rec = parse_text_record("3.5 10 20 30 40", (1, 1, 2, 2))
        assert rec.label == 3.5
        assert np.array_equal(rec.frames, np.array([[[[10, 20], [30, 40]]]]))

    def test_canonical_line_needs_612061_tokens(self):
        line = " ".join(["0"] * CANONICAL_VALUES)  # label missing
        with pytest.raises(DataFormatError, match="612061"):
            parse_text_record(line, CANONICAL_DIMS)

    def test_valid_canonical_line_parses(self):
        line = "2.5 " + " ".join(["7"] * CANONICAL_VALUES)
        rec = parse_text_record(line, CANONICAL_DIMS)
        assert rec.label == 2.5
        assert rec.frames.shape == CANONICAL_DIMS
        assert rec.frames.min() == rec.frames.max() == 7

    def test_non_integer_value_reports_token(self):
        with pytest.raises(DataFormatError, match="token 2"):
            parse_text_record("1.0 10 2.5 30 40", (1, 1, 2, 2))

    def test_out_of_range_value_reports_token(self):
        with pytest.raises(DataFormatError, match=r"256.*\[0, 255\]|outside"):
            parse_text_record("1.0 10 256 30 40", (1, 1, 2, 2))

    @pytest.mark.parametrize(
        "token", ["99999999999999999999", "-99999999999999999999", "9223372036854775808"]
    )
    def test_value_beyond_int64_reports_token(self, token):
        with pytest.raises(DataFormatError, match=r"outside \[0, 255\] \(line 3, token 2\)"):
            parse_text_record(f"1.0 10 {token} 30 40", (1, 1, 2, 2), line_no=3)

    def test_bad_label(self):
        with pytest.raises(DataFormatError, match="label"):
            parse_text_record("abc 10 20 30 40", (1, 1, 2, 2))

    def test_negative_label_rejected(self):
        with pytest.raises(DataFormatError, match=">= 0"):
            parse_text_record("-1.0 10 20 30 40", (1, 1, 2, 2))

    def test_file_with_comments_and_blanks(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("# header comment\n\n1.5 1 2 3 4\n2.5 5 6 7 8\n")
        records = parse_text_file(str(path), (1, 1, 2, 2))
        assert [r.label for r in records] == [1.5, 2.5]

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1.5 1 2 3 4\n2.5 5 6 7\n")
        with pytest.raises(DataFormatError, match="line 2"):
            parse_text_file(str(path), (1, 1, 2, 2))

    def test_non_utf8_byte_names_its_line(self, tmp_path):
        # past the decoder's first 8 KiB chunk: the line number must come
        # from the line, not from where decoding failed
        path = tmp_path / "data.txt"
        path.write_bytes(b"1.5 1 2 3 4\n" * 3000 + b"2.5 5 \xff 7 8\n1.5 1 2 3 4\n")
        with pytest.raises(DataFormatError, match=r"0xff is not UTF-8") as info:
            parse_text_file(str(path), (1, 1, 2, 2))
        assert info.value.line_no == 3001


class TestBinaryFormat:
    def test_roundtrip(self, tmp_path):
        records = tiny_records()
        path = tmp_path / "set.drn1"
        write_binary(records, str(path))
        assert read_binary(str(path)) == records

    def test_bytes_are_reproducible(self, tmp_path):
        records = tiny_records()
        p1, p2 = tmp_path / "a.drn1", tmp_path / "b.drn1"
        write_binary(records, str(p1))
        write_binary(records, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_canonical_record_payload_size(self, tmp_path):
        frames = np.zeros(CANONICAL_DIMS, dtype=np.uint8)
        path = tmp_path / "one.drn1"
        write_binary([RadarRecord(label=1.0, frames=frames)], str(path))
        header = struct.calcsize("<4sIIIIIQ")
        assert path.stat().st_size == header + 8 + CANONICAL_VALUES

    def test_empty_file_is_bad_magic(self, tmp_path):
        path = tmp_path / "empty.drn1"
        path.write_bytes(b"")
        with pytest.raises(DataFormatError, match="bad magic"):
            read_binary(str(path))

    def test_wrong_magic(self, tmp_path):
        records = tiny_records(1)
        path = tmp_path / "set.drn1"
        write_binary(records, str(path))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"WHAT"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="bad magic"):
            read_binary(str(path))

    def test_truncation_detected(self, tmp_path):
        records = tiny_records()
        path = tmp_path / "set.drn1"
        write_binary(records, str(path))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(DataFormatError, match="size mismatch"):
            read_binary(str(path))

    def test_heterogeneous_dims_rejected(self, tmp_path):
        records = tiny_records(1) + tiny_records(1, dims=(2, 1, 4, 4))
        with pytest.raises(DataFormatError, match="dims"):
            write_binary(records, str(tmp_path / "bad.drn1"))

    def test_empty_record_set_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="empty"):
            write_binary([], str(tmp_path / "none.drn1"))

    def test_read_frames_are_writable_and_separate(self, tmp_path):
        records = tiny_records(count=4)
        path = tmp_path / "set.drn1"
        write_binary(records, str(path))
        back = read_binary(str(path))
        for i, rec in enumerate(back):
            assert rec.frames.flags.writeable and rec.frames.flags.c_contiguous
            assert not any(np.shares_memory(rec.frames, o.frames) for o in back[i + 1 :])
        back[0].frames[0, 0, 0, 0] ^= 0x10
        assert back[1:] == records[1:] and back[0] != records[0]

    def test_read_holds_the_data_once(self, tmp_path):
        # 40 records of 20 kB: reading the whole file and then copying every
        # record out of it would peak at twice the file's size
        records = tiny_records(count=40, dims=(5, 4, 32, 32))
        path = tmp_path / "set.drn1"
        write_binary(records, str(path))
        tracemalloc.start()
        try:
            back = read_binary(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back == records
        assert peak <= 1.25 * path.stat().st_size, (peak, path.stat().st_size)

    def test_zero_extent_header_rejected_at_first_record(self, tmp_path):
        # T=0 and 100,000 labels pass the size check; one empty record per
        # label would peak at 48 times the file's size
        path = tmp_path / "empty-frames.drn1"
        count = 100_000
        path.write_bytes(
            struct.pack("<4sIIIIIQ", b"DRN1", 1, 0, 4, 101, 101, count)
            + struct.pack(f"<{count}d", *([1.0] * count))
        )
        tracemalloc.start()
        try:
            with pytest.raises(DataFormatError, match="at least 1"):
                read_binary(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * path.stat().st_size, (peak, path.stat().st_size)

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path):
        target = tmp_path / "set.drn1"
        target.mkdir()
        (target / "kept").write_bytes(b"x")
        with pytest.raises(OSError):
            write_binary(tiny_records(), str(target))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["set.drn1"]
        assert [p.name for p in target.iterdir()] == ["kept"]
        assert (target / "kept").read_bytes() == b"x"

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_random_records(self, seed):
        records = tiny_records(count=4, dims=(1, 2, 2, 3), seed=seed)
        import tempfile, os

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rt.drn1")
            write_binary(records, path)
            assert read_binary(path) == records


# Every writer of an output file, as a function of its path.
WRITERS = {
    "drn1": lambda path: write_binary(tiny_records(), path),
    "drnp": lambda path: save_checkpoint(
        path, init_params(ModelSpec("linear", in_t=1, in_c=1, in_h=2, in_w=2), 0)
    ),
    "curve": lambda path: emit_curve([EpochStats(0, 1.5, 2.5), EpochStats(1, 1.25, 2.25)], path),
}


class FullDisk:
    """A file whose ``fail_at``-th write raises ENOSPC; ``calls`` counts them."""

    def __init__(self, fh, fail_at):
        self.fh, self.fail_at, self.calls = fh, fail_at, 0

    def write(self, data):
        self.calls += 1
        if self.calls == self.fail_at:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestAtomicWrite:
    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_failing_write_or_rename_leaves_the_old_target_and_no_temporary_file(
        self, kind, tmp_path, monkeypatch
    ):
        files = []

        def write(path, fail_at):
            def full_disk_open(file, mode="r", *args, **kwargs):
                files.append(FullDisk(open(file, mode, *args, **kwargs), fail_at))
                return files[-1]

            with monkeypatch.context() as m:
                m.setattr(data_module, "open", full_disk_open, raising=False)
                WRITERS[kind](path)

        counted = tmp_path / "counted"
        write(str(counted), fail_at=0)
        counted.unlink()
        old = tmp_path / "old"
        old.write_bytes(b"old bytes")
        for k in range(1, files[0].calls + 1):
            for target in (tmp_path / "new", old):
                with pytest.raises(OSError, match="No space"):
                    write(str(target), fail_at=k)
                assert sorted(p.name for p in tmp_path.iterdir()) == ["old"], k

        def failing_rename(src, dst):
            raise OSError(errno.EIO, "rename failed")

        monkeypatch.setattr(os, "replace", failing_rename)
        for target in (tmp_path / "new", old):
            with pytest.raises(OSError, match="rename failed"):
                WRITERS[kind](str(target))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old"]
        assert old.read_bytes() == b"old bytes"

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_data_reaches_the_disk_before_the_rename(self, kind, tmp_path, monkeypatch):
        calls = []

        def recorded(name):
            real = getattr(os, name)

            def call(*args):
                calls.append(name)
                return real(*args)

            return call

        for name in ("fsync", "replace"):
            monkeypatch.setattr(os, name, recorded(name))
        WRITERS[kind](str(tmp_path / "out"))
        # the file's data, the rename, then the directory entry
        assert calls == ["fsync", "replace", "fsync"]

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_output_mode_is_that_of_a_plain_open(self, kind, tmp_path):
        with open(tmp_path / "plain", "wb"):
            pass
        WRITERS[kind](str(tmp_path / "out"))
        mode = stat.S_IMODE((tmp_path / "out").stat().st_mode)
        assert mode == stat.S_IMODE((tmp_path / "plain").stat().st_mode)

    def test_a_file_named_like_a_temporary_keeps_its_bytes(self, tmp_path):
        (tmp_path / "model.drnp.tmp").write_bytes(b"mine")
        WRITERS["drnp"](str(tmp_path / "model.drnp"))
        assert (tmp_path / "model.drnp.tmp").read_bytes() == b"mine"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.drnp", "model.drnp.tmp"]


class TestSplit:
    def test_canonical_sizes(self):
        s = split(10_000, seed=42)
        assert (len(s.train), len(s.validation), len(s.test)) == (9000, 500, 500)

    def test_rounding_small_n(self):
        s = split(20, seed=0)
        assert (len(s.train), len(s.validation), len(s.test)) == (18, 1, 1)

    def test_same_seed_reproduces(self):
        a, b = split(100, seed=9), split(100, seed=9)
        assert a.train == b.train and a.validation == b.validation and a.test == b.test

    def test_different_seeds_differ(self):
        assert split(100, seed=1).train != split(100, seed=2).train

    @given(st.integers(3, 400), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_disjoint_and_exhaustive(self, n, seed):
        s = split(n, seed=seed)
        merged = s.train + s.validation + s.test
        assert len(merged) == n
        assert sorted(merged) == list(range(n))

    def test_zero_records_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            split(0)

    def test_bad_ratios_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            split(10, ratios=(0.5, 0.2, 0.2))


class TestMinibatches:
    def test_exact_batches(self):
        batches = minibatches(list(range(90)), 30, epoch=0, seed=0)
        assert [len(b) for b in batches] == [30, 30, 30]

    def test_final_partial_batch_kept(self):
        batches = minibatches(list(range(31)), 30, epoch=0, seed=0)
        assert [len(b) for b in batches] == [30, 1]

    def test_epochs_reshuffle(self):
        idxs = list(range(64))
        e0 = [i for b in minibatches(idxs, 16, 0, seed=3) for i in b]
        e1 = [i for b in minibatches(idxs, 16, 1, seed=3) for i in b]
        assert e0 != e1
        assert sorted(e0) == idxs and sorted(e1) == idxs

    @given(st.integers(1, 100), st.integers(1, 40), st.integers(0, 20), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_every_epoch_is_a_permutation(self, n, batch, epoch, seed):
        idxs = list(range(n))
        batches = minibatches(idxs, batch, epoch, seed)
        assert sorted(i for b in batches for i in b) == idxs
        assert all(len(b) <= batch for b in batches)

    def test_zero_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            minibatches([1, 2], 0, 0, 0)


class TestSynth:
    def test_deterministic(self):
        cfg = SynthConfig(count=4, t=3, c=2, h=6, w=6, seed=5)
        assert synth_generate(cfg) == synth_generate(cfg)

    def test_noise_free_labels_match_closed_form(self):
        cfg = SynthConfig(count=6, t=5, c=2, h=8, w=8, noise=0.0, seed=8)
        for rec in synth_generate(cfg):
            assert abs(rec.label - synth_label(rec.frames, cfg.a, cfg.b)) < 1e-12

    def test_blank_frames_label_zero(self):
        frames = np.zeros((5, 2, 8, 8), dtype=np.uint8)
        assert synth_label(frames, a=2.0, b=3.0) == 0.0

    def test_saturated_frames_label_a_plus_b(self):
        frames = np.full((5, 2, 8, 8), 255, dtype=np.uint8)
        assert abs(synth_label(frames, a=2.0, b=3.0) - 5.0) < 1e-12

    def test_feature_uses_central_crop_of_channel_zero(self):
        # H=W=4: crop is rows 1:3, cols 1:3; only channel 0 counts
        frames = np.zeros((6, 2, 4, 4), dtype=np.uint8)
        frames[:, 1, :, :] = 200  # other channel must be ignored
        frames[5, 0, 1:3, 1:3] = 100
        # last five frames are t=1..5; one of them carries the 100 patch
        assert abs(synth_feature(frames) - (100 / 255.0) / 5.0) < 1e-12

    def test_short_sequences_use_all_frames(self):
        frames = np.zeros((2, 1, 4, 4), dtype=np.uint8)
        frames[:, 0, 1:3, 1:3] = 51
        assert abs(synth_feature(frames) - 0.2) < 1e-12

    def test_noisy_labels_stay_near_closed_form(self):
        cfg = SynthConfig(count=20, t=3, c=1, h=6, w=6, noise=0.25, seed=3)
        records = synth_generate(cfg)
        devs = [abs(r.label - synth_label(r.frames, cfg.a, cfg.b)) for r in records]
        assert max(devs) < 6 * cfg.noise
        assert max(devs) > 0.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(count=0)
        with pytest.raises(ValueError):
            SynthConfig(count=1, noise=-0.5)


class TestSynthConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text("# benchmark\ncount=12\nt=3\nc=1\nh=6\nw=6\nnoise=0.1\na=1.5\nb=2.5\nseed=7\n")
        cfg = load_synth_config(str(path))
        assert cfg == SynthConfig(count=12, t=3, c=1, h=6, w=6, noise=0.1, a=1.5, b=2.5, seed=7)

    def test_defaults_fill_missing_keys(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text("count=5\n")
        cfg = load_synth_config(str(path))
        assert cfg.count == 5 and cfg.t == 5

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text("count=5\nblobs=9\n")
        with pytest.raises(DataFormatError, match="unknown key"):
            load_synth_config(str(path))

    @pytest.mark.parametrize(
        "line, key",
        [("count=0", "count"), ("t=0", "t"), ("noise=-1", "noise"), ("noise=nan", "noise"),
         ("noise=inf", "noise"), ("seed=-2", "seed")],
    )
    def test_out_of_range_value_names_the_key(self, tmp_path, line, key):
        path = tmp_path / "synth.cfg"
        path.write_text(f"count=5\n{line}\n")
        with pytest.raises(DataFormatError, match=rf"SynthConfig\.{key} must"):
            load_synth_config(str(path))

    @pytest.mark.parametrize("raw, line_no", [(b"count=5\nt=\xff\n", 2), (b"# \xc3\n", 1)])
    def test_non_utf8_byte_names_its_line(self, tmp_path, raw, line_no):
        path = tmp_path / "synth.cfg"
        path.write_bytes(raw)
        with pytest.raises(DataFormatError, match="not UTF-8") as info:
            load_synth_config(str(path))
        assert info.value.line_no == line_no

    def test_missing_count_rejected(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text("t=5\n")
        with pytest.raises(DataFormatError, match="count"):
            load_synth_config(str(path))


class TestRecordValidation:
    @pytest.mark.parametrize("dims", [(0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)])
    def test_zero_extent_rejected(self, dims):
        with pytest.raises(DataFormatError, match="at least 1"):
            RadarRecord(label=1.0, frames=np.zeros(dims, dtype=np.uint8))

    def test_out_of_range_rejected(self):
        with pytest.raises(DataFormatError, match=r"\[0, 255\]"):
            RadarRecord(label=1.0, frames=np.array([[[[300]]]]))

    def test_non_integer_frames_rejected(self):
        with pytest.raises(DataFormatError, match="integers"):
            RadarRecord(label=1.0, frames=np.ones((1, 1, 1, 1)) * 0.5)

    def test_nan_label_rejected(self):
        with pytest.raises(DataFormatError, match="finite"):
            RadarRecord(label=float("nan"), frames=np.zeros((1, 1, 1, 1), dtype=np.uint8))
