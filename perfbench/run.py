#!/usr/bin/env python3
"""Run one workload of the deeprain benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: canon-convlstm, canon-fclstm, paper-convlstm (see README.md).
The inputs are generated from --seed. After an unmeasured warm-up, with
--trace 0 the timed part (read, train, evaluate) repeats in whole rounds,
at least two, until --seconds have passed, and the end-to-end metrics are
medians over the rounds. With --trace 1 one untraced round is followed by
one traced round, and the per-layer metrics come from the traced one. Either way the outputs are then checked against independent
computations. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")  # DRN1 inputs and trace files
SETUP_REPS = 3  # setup_s is the median of this many set-ups
WORKLOADS = ("canon-convlstm", "canon-fclstm", "paper-convlstm")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import numpy, deeprain; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def pin_blas_threads() -> str:
    """At most two BLAS threads, set before NumPy loads: paper-geometry bits
    depend on the BLAS thread count, so every run uses the same one."""
    threads = str(min(2, os.cpu_count() or 1))
    for var in BLAS_VARS:
        os.environ[var] = threads
    return threads


def import_program():
    """Import deeprain from this checkout, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "deeprain", "__init__.py")):
        raise SystemExit(f"run.py: no deeprain sources under {SRC}")
    sys.path.insert(0, SRC)
    import deeprain

    if os.path.dirname(os.path.dirname(os.path.abspath(deeprain.__file__))) != SRC:
        raise SystemExit(f"run.py: deeprain was imported from {deeprain.__file__}, not {SRC}")


def import_seconds() -> float:
    """Seconds to import NumPy and deeprain in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout)


class Checks:
    """Correctness checks, each counted as one operation."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, outcome: tuple):
        ok, detail = outcome
        self.results.append((name, bool(ok), detail))
        print(f"[perfbench] check {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)


def check_outputs(wl, inputs, rnd, seed, checks, measure_memory=False):
    """Every check on one trained round; returns (test_rmse, memory metrics).
    With ``measure_memory`` the tracemalloc peaks of evaluate and of one
    minibatch's forward+backward are measured on the way."""
    import tracemalloc

    import numpy as np
    import oracles
    import workloads

    spec = wl.spec()
    records = rnd.records
    rng = np.random.default_rng(seed)
    labels = np.array([r.label for r in records])
    mem = {}

    def peak(name, fn, *args):
        if not measure_memory:
            return fn(*args)
        tracemalloc.start()
        try:
            out = fn(*args)
            mem[name] = (tracemalloc.get_traced_memory()[1] / 1e6, "MB")
        finally:
            tracemalloc.stop()
        return out

    if inputs.path:
        checks.add("drn1_read", oracles.check_drn1(records, inputs.records))
    preds = oracles.program_predictions(rnd.model, records)
    checks.add("predictions_oracle", oracles.check_predictions_oracle(spec, rnd.model, records, preds))
    sample = sorted(rng.choice(len(records), size=wl.sample, replace=False).tolist())
    checks.add(
        "predictions_reference",
        oracles.check_predictions_reference(spec, rnd.model, records, preds, sample),
    )
    checks.add("evaluate_rmse", oracles.check_rmse(rnd.eval_rmse, preds, labels, "all records"))
    test = inputs.split.test
    evaluate = workloads._train_module().evaluate
    test_rmse = peak("mem.evaluate_peak_mb", evaluate, rnd.model, records, test)
    checks.add("test_rmse", oracles.check_rmse(test_rmse, preds[test], labels[test], "test split"))

    batch = workloads.data.minibatches(inputs.split.train, workloads.BATCH, 0, workloads.TRAIN_SEED)[0]
    if measure_memory:
        peak("mem.train_batch_peak_mb", oracles.batch_gradient, spec, records, batch, workloads.TRAIN_SEED)
    checked = batch[: wl.fd_records]
    named0, loss, grads = oracles.batch_gradient(spec, records, checked, workloads.TRAIN_SEED)
    checks.add("gradient", oracles.check_gradient(spec, named0, records, checked, loss, grads, rng))
    checks.add("adam_step", oracles.check_adam(named0, grads, workloads.train_config(wl).lr, rng))
    return test_rmse, mem


def check_digests(name, rounds, checks):
    import oracles
    import workloads

    checks.add(name, oracles.check_digests([workloads.digest(r.model) for r in rounds]))


def timed_round(wl, inputs, label):
    import workloads

    r = workloads.run_round(wl, inputs)
    print(f"[perfbench] {label} round: wall {r.wall_s:.3f} s, train {r.train_s:.3f} s, "
          f"evaluate {r.eval_s:.3f} s", flush=True)
    return r


def timed_run(wl, inputs, args, checks):
    """A warm-up, then whole rounds until ``args.seconds`` have passed, and
    at least two so that their digests can be compared."""
    import workloads

    workloads.warm_up(wl, inputs)
    rounds = []
    deadline = time.perf_counter() + args.seconds
    while len(rounds) < 2 or time.perf_counter() < deadline:
        rounds.append(timed_round(wl, inputs, "measured"))
    peak_rss_mb = workloads.peak_rss_mb()  # before the checks add their own
    check_digests("rerun_digest", rounds, checks)
    test_rmse, _ = check_outputs(wl, inputs, rounds[0], args.seed, checks)
    print(f"[perfbench] test_rmse = {test_rmse!r}", flush=True)
    return rounds, peak_rss_mb


def traced_run(wl, inputs, args, checks):
    """A warm-up, an untraced round, then a traced round whose outputs are
    checked. Equal digests make the untraced model's checks redundant, so it
    only gives its test_rmse for comparison."""
    import tracing
    import workloads

    workloads.warm_up(wl, inputs)
    plain = timed_round(wl, inputs, "untraced")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = timed_round(wl, inputs, "traced")
    finally:
        tracer.uninstall()
    os.makedirs(WORKDIR, exist_ok=True)
    tracer.save(os.path.join(WORKDIR, f"trace-{wl.name}-seed{args.seed}.npz"))
    check_digests("traced_digest", [plain, traced], checks)
    test_traced, mem = check_outputs(wl, inputs, traced, args.seed, checks, measure_memory=True)
    test_plain = workloads._train_module().evaluate(plain.model, plain.records, inputs.split.test)
    checks.add(
        "traced_test_rmse",
        (test_plain == test_traced, f"untraced {test_plain!r}, traced {test_traced!r}"),
    )
    mem["mem.dataset_mb"] = (workloads.dataset_mb(wl, inputs), "MB")
    mem["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    return [plain, traced], tracing.per_layer(tracer, traced.epoch_s, mem)


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_blas_threads()
    import_program()
    import workloads

    wl = workloads.workloads(ROOT)[args.workload]
    setup_times = []
    for _ in range(SETUP_REPS):
        imported = import_seconds()
        started = time.perf_counter()
        inputs = workloads.setup(wl, args.seed, WORKDIR)
        setup_times.append(imported + time.perf_counter() - started)
    setup_s = statistics.median(setup_times)
    print(f"[perfbench] {wl.name} seed {args.seed}: {len(inputs.records)} records, "
          f"BLAS threads {threads}, setup {setup_s:.3f} s", flush=True)

    checks = Checks()
    try:
        if args.trace:
            rounds, metrics = traced_run(wl, inputs, args, checks)
        else:
            rounds, peak_rss_mb = timed_run(wl, inputs, args, checks)
            metrics = workloads.end_to_end(inputs, rounds, setup_s, peak_rss_mb)
    finally:
        if inputs.path:
            os.remove(inputs.path)

    ops_per_round = 3 if inputs.path else 2  # (read,) train, evaluate; the warm-up too
    for name, (value, unit) in metrics.items():
        print(f"[perfbench] {name} = {value!r} {unit}")
    result = {
        "correct": checks.ok,
        "attempted": (1 + len(rounds)) * ops_per_round + len(checks.results),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
