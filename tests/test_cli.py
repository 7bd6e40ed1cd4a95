import errno
import os
import struct

import pytest

from deeprain.cli import build_parser, main
from deeprain.data import (
    DataFormatError,
    SynthConfig,
    parse_text_file,
    read_binary,
    synth_generate,
    write_binary,
)
from deeprain.model import ModelSpec, init_params, save_checkpoint
from deeprain.selftest import run_checks
from deeprain.train import TrainConfig


def write_text_dataset(path, lines):
    path.write_text("\n".join(lines) + "\n")


def make_binary(tmp_path, count=40, dims=(2, 1, 4, 4), seed=1, name="data.drn1"):
    t, c, h, w = dims
    records = synth_generate(
        SynthConfig(count=count, t=t, c=c, h=h, w=w, noise=0.1, a=1.0, b=1.0, seed=seed)
    )
    path = tmp_path / name
    write_binary(records, str(path))
    return path, records


class TestConvert:
    def test_roundtrip(self, tmp_path, capsys):
        src = tmp_path / "data.txt"
        write_text_dataset(
            src,
            ["# tiny fixture", "1.5 1 2 3 4", "0.5 5 6 7 8", "2.25 9 10 11 12"],
        )
        dst = tmp_path / "data.drn1"
        code = main(["convert", "--in", str(src), "--out", str(dst), "--dims", "1,1,2,2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "converted 3 records" in out
        assert "compression ratio" in out
        assert read_binary(str(dst)) == parse_text_file(str(src), (1, 1, 2, 2))

    def test_malformed_line_cited(self, tmp_path, capsys):
        src = tmp_path / "data.txt"
        write_text_dataset(src, ["1.5 1 2 3 4", "0.5 5 6 7"])
        dst = tmp_path / "data.drn1"
        code = main(["convert", "--in", str(src), "--out", str(dst), "--dims", "1,1,2,2"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err
        assert not dst.exists()

    def test_value_beyond_int64_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "data.txt"
        write_text_dataset(src, ["1.5 1 2 3 4", "1.0 5 99999999999999999999 7 8"])
        dst = tmp_path / "data.drn1"
        code = main(["convert", "--in", str(src), "--out", str(dst), "--dims", "1,1,2,2"])
        assert code == 2
        assert "(line 2, token 2)" in capsys.readouterr().err
        assert not dst.exists()

    def test_canonical_dims_flag_accepted(self):
        args = build_parser().parse_args(
            ["convert", "--in", "a", "--out", "b", "--dims", "15,4,101,101"]
        )
        assert args.dims == (15, 4, 101, 101)

    def test_bad_dims_is_usage_error(self, tmp_path):
        assert main(["convert", "--in", "a", "--out", "b", "--dims", "1,2"]) == 1

    def test_missing_input_is_data_error(self, tmp_path):
        dst = tmp_path / "out.drn1"
        code = main(["convert", "--in", str(tmp_path / "nope.txt"), "--out", str(dst), "--dims", "1,1,2,2"])
        assert code == 2


class TestSynth:
    def test_generates_expected_records(self, tmp_path, capsys):
        cfg_path = tmp_path / "synth.cfg"
        cfg_path.write_text("count=6\nt=2\nc=1\nh=4\nw=4\nnoise=0.1\na=1.0\nb=1.0\nseed=5\n")
        out = tmp_path / "synth.drn1"
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert "generated 6 records" in capsys.readouterr().out
        expected = synth_generate(SynthConfig(count=6, t=2, c=1, h=4, w=4, noise=0.1, a=1.0, b=1.0, seed=5))
        assert read_binary(str(out)) == expected

    def test_bad_config_key(self, tmp_path):
        cfg_path = tmp_path / "synth.cfg"
        cfg_path.write_text("count=6\nshape=9\n")
        assert main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "x.drn1")]) == 2


class TestTrainEval:
    def test_train_writes_artifacts_and_eval_matches(self, tmp_path, capsys):
        data, _ = make_binary(tmp_path)
        curve = tmp_path / "curve.csv"
        ckpt = tmp_path / "model.drnp"
        code = main([
            "train", "--data", str(data), "--model", "linear",
            "--epochs", "3", "--batch", "8", "--seed", "3",
            "--curve", str(curve), "--ckpt", str(ckpt),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "best_val_rmse=" in out
        assert "test_rmse=" in out
        assert curve.exists() and ckpt.exists()
        train_reported = [l for l in out.splitlines() if l.startswith("test_rmse=")][0]

        code = main(["eval", "--ckpt", str(ckpt), "--data", str(data), "--seed", "3"])
        assert code == 0
        eval_reported = [
            l for l in capsys.readouterr().out.splitlines() if l.startswith("test_rmse=")
        ][0]
        assert eval_reported == train_reported

    def test_same_seed_reproduces_artifacts(self, tmp_path):
        data, _ = make_binary(tmp_path)
        outputs = []
        for run in ("a", "b"):
            curve = tmp_path / f"curve_{run}.csv"
            ckpt = tmp_path / f"model_{run}.drnp"
            code = main([
                "train", "--data", str(data), "--model", "fc-lstm", "--hidden", "2",
                "--epochs", "2", "--batch", "8", "--seed", "7",
                "--curve", str(curve), "--ckpt", str(ckpt),
            ])
            assert code == 0
            outputs.append((curve.read_bytes(), ckpt.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_eval_dim_mismatch_is_data_error(self, tmp_path, capsys):
        data, _ = make_binary(tmp_path)
        other, _ = make_binary(tmp_path, dims=(2, 1, 5, 5), name="other.drn1")
        ckpt = tmp_path / "model.drnp"
        assert main([
            "train", "--data", str(data), "--model", "linear",
            "--epochs", "1", "--batch", "8", "--seed", "1", "--ckpt", str(ckpt),
        ]) == 0
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(other), "--seed", "1"]) == 2
        assert "record dims" in capsys.readouterr().err

    def test_eval_empty_test_split_is_data_error(self, tmp_path, capsys):
        # split(5, seed=17) puts every record in training
        data, _ = make_binary(tmp_path, count=5)
        ckpt = tmp_path / "model.drnp"
        save_checkpoint(str(ckpt), init_params(ModelSpec("linear", in_t=2, in_c=1, in_h=4, in_w=4), 0))
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data), "--seed", "17"]) == 2
        assert "empty" in capsys.readouterr().err

    def test_eval_names_an_empty_test_split(self, tmp_path, capsys):
        # the default split of 8 records is 8/0/0; of 12 it is 10/1/1
        data, _ = make_binary(tmp_path, count=12)
        small, _ = make_binary(tmp_path, count=8, name="small.drn1")
        ckpt = tmp_path / "model.drnp"
        assert main(["train", "--data", str(data), "--model", "linear", "--epochs", "1",
                     "--ckpt", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(small)]) == 2
        assert "error: test split is empty: 8 records at seed 42" in capsys.readouterr().err

    def test_eval_non_finite_checkpoint_is_data_error(self, tmp_path, capsys):
        data, _ = make_binary(tmp_path)
        ckpt = tmp_path / "model.drnp"
        save_checkpoint(str(ckpt), init_params(ModelSpec("linear", in_t=2, in_c=1, in_h=4, in_w=4), 0))
        # the file ends with linear.bias, one float64
        ckpt.write_bytes(ckpt.read_bytes()[:-8] + struct.pack("<d", float("nan")))
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data), "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert "linear.bias" in captured.err and "non-finite" in captured.err
        assert "test_rmse" not in captured.out

    def test_eval_non_finite_test_rmse_is_numeric_failure(self, tmp_path, capsys):
        # every weight is finite; either each prediction overflows to inf, or
        # the two test predictions are 1.2e154 and their squares (1.44e308
        # each) are finite but sum past the float range
        data, _ = make_binary(tmp_path)
        for weight, bias in ((1e308, 1e308), (0.0, 1.2e154)):
            ckpt = tmp_path / f"model-{bias}.drnp"
            model = init_params(ModelSpec("linear", in_t=2, in_c=1, in_h=4, in_w=4), 0)
            model.params["linear.weight"][...] = weight
            model.params["linear.bias"][...] = bias
            save_checkpoint(str(ckpt), model)
            assert main(["eval", "--ckpt", str(ckpt), "--data", str(data), "--seed", "1"]) == 3
            captured = capsys.readouterr()
            assert "non-finite test RMSE inf" in captured.err
            assert "test_rmse" not in captured.out

    def test_header_only_dataset_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "empty.drn1"
        data.write_bytes(struct.pack("<4sIIIIIQ", b"DRN1", 1, 2, 1, 4, 4, 0))
        with pytest.raises(DataFormatError, match="no records"):
            read_binary(str(data))
        assert main(["train", "--data", str(data), "--model", "linear"]) == 2
        assert "no records" in capsys.readouterr().err

    def test_progress_lines_format(self, tmp_path, capsys):
        data, _ = make_binary(tmp_path, count=20)
        assert main([
            "train", "--data", str(data), "--model", "linear",
            "--epochs", "2", "--batch", "8", "--seed", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert any(line.startswith("epoch 0: train=") and ", val=" in line for line in out.splitlines())


class TestOutputPaths:
    def test_bad_curve_path_fails_before_training(self, tmp_path, capsys):
        data, _ = make_binary(tmp_path)
        ckpt = tmp_path / "m.drnp"
        curve = tmp_path / "nodir" / "c.csv"
        code = main([
            "train", "--data", str(data), "--model", "linear", "--epochs", "2", "--batch", "8",
            "--ckpt", str(ckpt), "--curve", str(curve),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert str(curve) in captured.err
        assert "epoch" not in captured.out
        assert not ckpt.exists()

    @pytest.mark.parametrize("fault", ["missing directory", "a directory", "read-only directory"])
    @pytest.mark.parametrize("command", [
        ["convert", "--in", "{input}", "--out", "{output}", "--dims", "2,1,4,4"],
        ["synth", "--config", "{input}", "--out", "{output}"],
        ["train", "--data", "{input}", "--ckpt", "{output}"],
        ["train", "--data", "{input}", "--curve", "{output}"],
    ])
    def test_every_output_is_checked_before_any_input_is_read(
        self, command, fault, tmp_path, monkeypatch, capsys
    ):
        output = {
            "missing directory": tmp_path / "nodir" / "out",
            "a directory": tmp_path,
            "read-only directory": tmp_path / "out",
        }[fault]
        if fault == "read-only directory":
            monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
        # the input does not exist either: its error would name the input
        paths = {"input": str(tmp_path / "absent"), "output": str(output)}
        assert main([arg.format(**paths) for arg in command]) == 2
        assert f"cannot write {output}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "nodir")


class TestFailedRename:
    """Every writing command, with ``os.replace`` failing as on a full disk."""

    COMMANDS = {
        "convert": ["convert", "--in", "{text}", "--out", "{out}", "--dims", "2,1,4,4"],
        "synth": ["synth", "--config", "{config}", "--out", "{out}"],
        "train": ["train", "--data", "{data}", "--model", "linear", "--epochs", "1",
                  "--ckpt", "{out}", "--curve", "{curve}"],
    }

    @pytest.mark.parametrize("old", [False, True], ids=["new target", "old target"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exits_2_and_leaves_the_target_as_it_was(self, command, old, tmp_path, monkeypatch, capsys):
        data, records = make_binary(tmp_path, count=12)
        text = tmp_path / "data.txt"
        write_text_dataset(text, [
            " ".join([repr(r.label)] + [str(v) for v in r.frames.ravel()]) for r in records
        ])
        config = tmp_path / "synth.cfg"
        config.write_text("count=4\nt=2\nc=1\nh=4\nw=4\nnoise=0.1\na=1\nb=1\nseed=3\n")
        out, curve = tmp_path / "out" / "target", tmp_path / "out" / "curve.csv"
        out.parent.mkdir()
        if old:
            out.write_bytes(b"old bytes")
            curve.write_bytes(b"old curve")

        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), dst)

        monkeypatch.setattr(os, "replace", full_disk)
        paths = dict(text=text, config=config, data=data, out=out, curve=curve)
        assert main([arg.format(**paths) for arg in self.COMMANDS[command]]) == 2
        assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
        assert sorted(p.name for p in out.parent.iterdir()) == (
            ["curve.csv", "target"] if old else []
        )
        if old:
            assert (out.read_bytes(), curve.read_bytes()) == (b"old bytes", b"old curve")


class TestFlagMapping:
    """Each model and training flag lands in its own config field."""

    class Captured(Exception):
        pass

    def capture(self, monkeypatch, name):
        seen = []

        def fake(*args, **kwargs):
            seen.append(args)
            raise self.Captured

        monkeypatch.setattr(f"deeprain.cli.{name}", fake)
        return seen

    def test_train_flags_build_the_config(self, tmp_path, monkeypatch):
        data, _ = make_binary(tmp_path)
        seen = self.capture(monkeypatch, "train")
        with pytest.raises(self.Captured):
            main([
                "train", "--data", str(data), "--model", "fc-lstm", "--stacks", "2",
                "--hidden", "3", "--kernel", "5", "--pool", "2", "--optimizer", "gd",
                "--lr", "0.01", "--batch", "7", "--epochs", "4", "--patience", "2",
                "--seed", "9", "--timing",
            ])
        spec = ModelSpec(
            kind="fc-lstm", stacks=2, hidden=3, kernel=5, pool_factor=2,
            in_t=2, in_c=1, in_h=4, in_w=4,
        )
        assert seen[0][0] == TrainConfig(
            model=spec, optimizer="gd", lr=0.01, batch_size=7, max_epochs=4,
            early_stop_patience=2, seed=9, timing=True,
        )

    def test_gradcheck_flags_build_the_spec(self, monkeypatch):
        seen = self.capture(monkeypatch, "gradcheck_model")
        with pytest.raises(self.Captured):
            main(["gradcheck", "--model", "fc-lstm", "--stacks", "2", "--seed", "9"])
        spec = ModelSpec(
            kind="fc-lstm", stacks=2, hidden=2, kernel=3, in_t=3, in_c=2, in_h=5, in_w=5
        )
        assert seen == [(spec, 9)]


class TestGradcheckCommand:
    @pytest.mark.parametrize("model", ["linear", "fc-lstm"])
    def test_passes_for_small_models(self, model, capsys):
        assert main(["gradcheck", "--model", model, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "gradcheck: PASS" in out
        assert "max_rel_err" in out


class TestSelftestCommand:
    def test_every_built_in_check_passes(self, capsys):
        assert main(["selftest"]) == 0
        assert "selftest: 15/15 checks passed" in capsys.readouterr().out

    def test_harness_reports_failures(self, capsys):
        def check_always_fails():
            raise AssertionError("broken on purpose")

        ok = run_checks([check_always_fails], out=print)
        assert not ok
        out = capsys.readouterr().out
        assert "FAIL always_fails" in out
        assert "0/1 checks passed" in out

    def test_harness_counts_passes(self, capsys):
        def check_fine():
            pass

        assert run_checks([check_fine], out=print)
        assert "ok fine" in capsys.readouterr().out


class TestUsageErrors:
    def test_unknown_flag(self):
        assert main(["selftest", "--frobnicate"]) == 1

    def test_unknown_command(self):
        assert main(["explode"]) == 1

    def test_missing_required_flag(self):
        assert main(["convert", "--in", "x"]) == 1

    def test_no_arguments(self):
        assert main([]) == 1

    def test_even_kernel_rejected_at_parse_time(self):
        assert main(["train", "--data", "x", "--kernel", "4"]) == 1

    @pytest.mark.parametrize("argv", [
        ["train", "--stacks", "0"],
        ["train", "--hidden", "0"],
        ["train", "--pool", "0"],
        ["train", "--batch", "0"],
        ["train", "--epochs", "0"],
        ["train", "--patience", "0"],
        ["train", "--lr", "-1"],
        ["train", "--lr", "nan"],
        ["train", "--lr", "inf"],
        ["gradcheck", "--stacks", "0"],
        ["train", "--seed", "-1"],
        ["eval", "--seed", "-1"],
        ["gradcheck", "--seed", "-1"],
        ["convert", "--dims", "0,1,1,1"],
        ["train", "--optimizer", "sgd"],
    ], ids=lambda argv: f"{argv[0]}{argv[1]}={argv[2]}")
    def test_out_of_range_number_rejected_at_parse_time(self, argv, tmp_path, capsys):
        data, _ = make_binary(tmp_path, count=20)
        command, flag, value = argv
        extra = {
            "train": ["--data", str(data), "--model", "linear"],
            "eval": ["--ckpt", str(tmp_path / "absent.drnp"), "--data", str(data)],
            "convert": ["--in", str(tmp_path / "absent.txt"), "--out", str(tmp_path / "out.drn1")],
        }.get(command, [])
        assert main([command, *extra, flag, value]) == 1
        assert f"argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["train", "--data", "x", "--stacks", "0"], "argument --stacks: stacks must be >= 1, got 0"),
        (["train", "--data", "x", "--pool", "0"], "argument --pool: pool_factor must be >= 1, got 0"),
        (["train", "--data", "x", "--batch", "0"], "argument --batch: batch_size must be >= 1, got 0"),
        (["eval", "--ckpt", "x", "--data", "x", "--seed", "-1"],
         "argument --seed: seed must be >= 0, got -1"),
        (["convert", "--in", "x", "--out", "y", "--dims", "1,1,0,1"],
         "argument --dims: in_h must be >= 1, got 0"),
    ], ids=["stacks", "pool", "batch", "seed", "dims"])
    def test_flag_rule_message_is_the_owners(self, argv, message, capsys):
        assert main(argv) == 1
        assert message in capsys.readouterr().err


class TestThreads:
    def test_accepted_and_ignored(self, tmp_path, monkeypatch, capsys):
        # Records run in order on one thread: neither --threads nor the
        # DEEPRAIN_THREADS variable it once fell back to may move a bit.
        data, _ = make_binary(tmp_path, count=20)
        artifacts = []
        for run, extra in (("plain", []), ("threads", ["--threads", "4"])):
            if extra:
                monkeypatch.setenv("DEEPRAIN_THREADS", "4")
            curve, ckpt = tmp_path / f"c_{run}.csv", tmp_path / f"m_{run}.drnp"
            assert main([
                "train", "--data", str(data), "--model", "linear", "--epochs", "2",
                "--batch", "8", "--seed", "5", "--curve", str(curve), "--ckpt", str(ckpt),
                *extra,
            ]) == 0
            capsys.readouterr()
            assert main(["eval", "--ckpt", str(tmp_path / "m_plain.drnp"), "--data", str(data),
                         "--seed", "5", *extra]) == 0
            artifacts.append((curve.read_bytes(), ckpt.read_bytes(), capsys.readouterr().out))
        assert "test_rmse=" in artifacts[0][2]
        assert artifacts[0] == artifacts[1]
