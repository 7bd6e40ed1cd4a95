#!/usr/bin/env python3
"""Write the criterion-8 fixture, train it through the CLI and print the
SHA-256 of its DRN1 file, of its learning-curve CSV, of its DRNP checkpoint
and of the stdout of ``deeprain eval`` on that checkpoint and fixture
(seed 17), then the SHA-256 of the ``deeprain gradcheck --seed 42`` output
for each model kind.

Usage: python3 scripts/fixture_digest.py

The fixture is the one acceptance criterion 8 trains: 60 synthetic 3x1x6x6
records (config seed 8), a 1x4 ConvLSTM, 3 epochs, batch 10, seed 17. The
gradcheck runs cover linear, and FC-LSTM and ConvLSTM at 1 and 2 stacks
(the linear model has no stacks). Two checkouts that print the same hashes
write byte-identical datasets, train bit-identical artifacts, predict
bit-identical test RMSEs and compute bit-identical gradients.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from deeprain.cli import main as cli_main
from deeprain.data import SynthConfig, synth_generate, write_binary

GRADCHECKS = (("linear", 1), ("fc-lstm", 1), ("fc-lstm", 2), ("conv-lstm", 1), ("conv-lstm", 2))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "fixture.drn1")
        curve = os.path.join(tmp, "curve.csv")
        ckpt = os.path.join(tmp, "model.drnp")
        write_binary(synth_generate(SynthConfig(count=60, t=3, c=1, h=6, w=6, noise=0.05, seed=8)), data)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([
                "train", "--data", data, "--model", "conv-lstm", "--stacks", "1",
                "--hidden", "4", "--epochs", "3", "--batch", "10", "--seed", "17",
                "--curve", curve, "--ckpt", ckpt,
            ])
        if code != 0:
            print(f"training failed with exit code {code}", file=sys.stderr)
            return code
        for name, path in (("data", data), ("curve", curve), ("checkpoint", ckpt)):
            with open(path, "rb") as fh:
                print(f"{name} {hashlib.sha256(fh.read()).hexdigest()}")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(["eval", "--ckpt", ckpt, "--data", data, "--seed", "17"])
        if code != 0:
            print(f"eval failed with exit code {code}", file=sys.stderr)
            return code
        print(f"eval {hashlib.sha256(out.getvalue().encode()).hexdigest()}")
    for kind, stacks in GRADCHECKS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(["gradcheck", "--model", kind, "--stacks", str(stacks), "--seed", "42"])
        if code != 0:
            print(f"gradcheck {kind} x{stacks} failed with exit code {code}", file=sys.stderr)
            return code
        print(f"gradcheck {kind} x{stacks} {hashlib.sha256(out.getvalue().encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
