"""Command-line entry point: convert, synth, train, eval, gradcheck, selftest.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
Seeds always come from flags so every run is replayable.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from .data import (
    load_synth_config,
    parse_text_file,
    read_binary,
    require_writable,
    split,
    synth_generate,
    write_binary,
)
from .model import (
    KINDS,
    ModelSpec,
    gradcheck_model,
    load_checkpoint,
    save_checkpoint,
)
from .selftest import run_checks
from .train import OPTIMIZERS, DivergenceError, TrainConfig, emit_curve, evaluate, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
THREADS_HELP = "accepted and ignored: records run one at a time, in order"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# The field each owner requires, so that one other field can be judged
# alone; conv-lstm is the kind whose kernel rule applies.
_REQUIRED = {ModelSpec: {"kind": "conv-lstm"}, TrainConfig: {"model": ModelSpec("linear")}}
# Eval must split the data as train did, so the three commands share one seed.
SEED = 42
# ModelSpec's input geometry, which the data sets, not a flag.
_DIMS = ("in_t", "in_c", "in_h", "in_w")


def _judge(owner, **fields) -> None:
    """Build ``owner`` with only ``fields`` set; a rule it breaks is a usage error."""
    try:
        owner(**_REQUIRED[owner], **fields)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _owned(p, flag: str, owner, field: str, convert=int, default=None) -> None:
    """Add ``flag``, stored as ``owner``'s ``field``: the owner states the
    rule and, unless ``default`` is given, the default."""

    def parse(text: str):
        value = convert(text)
        _judge(owner, **{field: value})
        return value

    parse.__name__ = convert.__name__
    p.add_argument(
        flag, dest=field, type=parse, default=getattr(owner, field) if default is None else default
    )


def _fields(owner, args) -> dict:
    """The parsed values of ``owner``'s fields that ``args`` holds."""
    names = (f.name for f in dataclasses.fields(owner))
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _dims(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected T,C,H,W, got {text!r}")
    dims = tuple(int(part) for part in parts)
    _judge(ModelSpec, **dict(zip(_DIMS, dims)))
    return dims


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="deeprain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("convert", help="text dataset to DRN1 binary")
    p.add_argument("--in", dest="src", required=True)
    p.add_argument("--out", dest="dst", required=True)
    p.add_argument("--dims", type=_dims, required=True, metavar="T,C,H,W")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("synth", help="generate a synthetic DRN1 dataset")
    p.add_argument("--config", required=True, help="key=value file: count,t,c,h,w,noise,a,b,seed")
    p.add_argument("--out", dest="dst", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a DRN1 dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--model", dest="kind", default="conv-lstm", choices=KINDS)
    _owned(p, "--stacks", ModelSpec, "stacks")
    _owned(p, "--hidden", ModelSpec, "hidden")
    _owned(p, "--kernel", ModelSpec, "kernel")
    _owned(p, "--pool", ModelSpec, "pool_factor")
    p.add_argument("--optimizer", default=TrainConfig.optimizer, choices=OPTIMIZERS)
    _owned(p, "--lr", TrainConfig, "lr", convert=float)
    _owned(p, "--batch", TrainConfig, "batch_size")
    _owned(p, "--epochs", TrainConfig, "max_epochs")
    _owned(p, "--patience", TrainConfig, "early_stop_patience")
    _owned(p, "--seed", TrainConfig, "seed", default=SEED)
    p.add_argument("--curve", help="learning-curve CSV path")
    p.add_argument("--ckpt", help="checkpoint output path")
    p.add_argument("--threads", type=int, help=THREADS_HELP)
    p.add_argument("--timing", action="store_true", help="record wall time per epoch "
                   "(makes curve files run dependent)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="test-set RMSE of a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    _owned(p, "--seed", TrainConfig, "seed", default=SEED)
    p.add_argument("--threads", type=int, help=THREADS_HELP)
    p.add_argument("--clamp", action="store_true", help="floor predictions at zero")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of every parameter gradient")
    p.add_argument("--model", dest="kind", default="conv-lstm", choices=KINDS)
    _owned(p, "--stacks", ModelSpec, "stacks")
    _owned(p, "--seed", TrainConfig, "seed", default=SEED)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("selftest",
                       help="run the built-in property suite")
    p.set_defaults(func=cmd_selftest)

    return parser


def cmd_convert(args) -> int:
    require_writable(args.dst)
    records = parse_text_file(args.src, args.dims)
    write_binary(records, args.dst)
    text_size = os.path.getsize(args.src)
    bin_size = os.path.getsize(args.dst)
    print(f"converted {len(records)} records")
    print(f"compression ratio: {text_size / bin_size:.2f} ({text_size} -> {bin_size} bytes)")
    return EXIT_OK


def cmd_synth(args) -> int:
    require_writable(args.dst)
    cfg = load_synth_config(args.config)
    records = synth_generate(cfg)
    write_binary(records, args.dst)
    print(f"generated {len(records)} records -> {args.dst}")
    return EXIT_OK


def cmd_train(args) -> int:
    for path in filter(None, (args.ckpt, args.curve)):
        require_writable(path)
    records = read_binary(args.data)
    dims = dict(zip(_DIMS, records[0].dims))
    spec = ModelSpec(**_fields(ModelSpec, args), **dims)
    cfg = TrainConfig(model=spec, **_fields(TrainConfig, args))
    sp = split(len(records), seed=args.seed)
    result = train(cfg, records, sp, log=print)
    print(f"best_val_rmse={result.best_val_rmse:.12g} (epoch {result.best_epoch})")
    if args.ckpt:
        save_checkpoint(args.ckpt, result.model)
        print(f"checkpoint -> {args.ckpt}")
    if args.curve:
        emit_curve(result.stats, args.curve)
        print(f"curve -> {args.curve}")
    if sp.test:
        _report_test_rmse(result.model, records, sp.test)
    return EXIT_OK


def _report_test_rmse(model, records, indices, clamp: bool = False) -> None:
    value = evaluate(model, records, indices, clamp)
    if not math.isfinite(value):
        raise DivergenceError(f"non-finite test RMSE {value}")
    print(f"test_rmse={value:.12g}")


def cmd_eval(args) -> int:
    model = load_checkpoint(args.ckpt)
    records = read_binary(args.data)
    _report_test_rmse(model, records, split(len(records), seed=args.seed).test, args.clamp)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    spec = ModelSpec(**_fields(ModelSpec, args), hidden=2, kernel=3, in_t=3, in_c=2, in_h=5, in_w=5)
    report = gradcheck_model(spec, args.seed)
    print(report.render())
    if not report.passed:
        print("gradcheck: FAIL")
        return EXIT_NUMERIC
    print("gradcheck: PASS")
    return EXIT_OK


def cmd_selftest(args) -> int:
    return EXIT_OK if run_checks() else EXIT_NUMERIC


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:  # DataFormatError, CheckpointError, ShapeError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
