#!/usr/bin/env python3
"""One-off figures at the paper's full 15x4x101x101 geometry (pool 1), which
no workload runs because one protocol batch would not fit in memory.

    python3 perfbench/probe_pool1.py forward     # predict() on one record
    python3 perfbench/probe_pool1.py backward    # one record's forward+backward

Run each mode in its own process: the peak RSS printed is the process's.
"""

from __future__ import annotations

import dataclasses
import sys
import time

import run


def main(mode: str) -> int:
    run.pin_blas_threads()
    run.import_program()
    import numpy as np
    import workloads
    from deeprain.autodiff import Tape
    from deeprain.model import ModelSpec, build_prediction, init_params, lift, predict, preprocess

    paper = workloads.workloads(run.ROOT)["paper-convlstm"].geometry
    geometry = dataclasses.replace(paper, count=1)
    (record,) = workloads.generate(geometry, seed=0)
    spec = ModelSpec("conv-lstm", stacks=2, hidden=8, kernel=3, pool_factor=1)
    model = init_params(spec, workloads.TRAIN_SEED)
    base = workloads.peak_rss_mb()
    started = time.perf_counter()
    if mode == "forward":
        predict(model, record)
    else:
        tape = Tape()
        pred = build_prediction(tape, lift(tape, model), preprocess(record.frames, spec))
        tape.squared_error(pred, tape.const(np.array([record.label])))
        tape.forward()
        tape.backward()
    elapsed = time.perf_counter() - started
    print(f"{mode}: {elapsed:.2f} s, peak RSS {workloads.peak_rss_mb():.0f} MB "
          f"(before the pass {base:.0f} MB)")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in ("forward", "backward"):
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
