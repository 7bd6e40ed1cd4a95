"""Tests of the benchmark itself: every workload at a tiny size through the
same code as the real runs, and each check failing on a fault planted here
(never in the program's sources).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from deeprain.autodiff import Tape  # noqa: E402

SEED = 7


def tiny(name: str) -> workloads.Workload:
    """The named workload on a handful of records; the paper geometry keeps
    pooled maps above 8x8 so the scipy stand-in for conv2d_naive runs."""
    wl = workloads.workloads(ROOT)[name]
    if name.startswith("canon"):
        geometry = dataclasses.replace(wl.geometry, count=24)
    else:
        geometry = dataclasses.replace(wl.geometry, count=10, t=2, h=41, w=41)
    return dataclasses.replace(wl, geometry=geometry, sample=1)


def timed(wl, tmp_path):
    inputs = workloads.setup(wl, SEED, str(tmp_path))
    checks = run.Checks()
    rounds, peak = run.timed_run(wl, inputs, argparse.Namespace(seconds=0, seed=SEED), checks)
    return inputs, rounds, peak, checks


def outcome(checks: run.Checks) -> dict:
    return {name: ok for name, ok, _ in checks.results}


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_workload_passes_every_check(name, tmp_path):
    wl = tiny(name)
    inputs, rounds, peak, checks = timed(wl, tmp_path)
    expected = {"rerun_digest", "predictions_oracle", "predictions_reference", "evaluate_rmse",
                "test_rmse", "gradient", "adam_step"} | ({"drn1_read"} if wl.drn1 else set())
    assert outcome(checks) == dict.fromkeys(expected, True)
    assert len(rounds) == 2  # the fewest measured rounds whose digests can be compared
    metrics = workloads.end_to_end(inputs, rounds, 0.5, peak)
    assert [m["name"] for m in benchmark_json()["end_to_end"]] == list(metrics)
    assert all(value > 0 and np.isfinite(value) for value, _ in metrics.values())


def test_traced_run_reports_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORKDIR", str(tmp_path))
    wl = tiny("paper-convlstm")
    inputs = workloads.setup(wl, SEED, str(tmp_path))
    checks = run.Checks()
    rounds, metrics = run.traced_run(wl, inputs, argparse.Namespace(seed=SEED), checks)
    assert checks.ok and len(rounds) == 2
    assert [m["name"] for m in benchmark_json()["per_layer"]] == list(metrics)
    assert metrics["autodiff.conv2d.fwd_calls"][0] > 0
    assert metrics["data.read_binary_s"][0] > 0
    assert metrics["optim.adam_step_calls"][0] == 1  # 8 training records, one batch
    spans = np.load(tmp_path / f"trace-{wl.name}-seed{SEED}.npz")
    assert spans["start"].size == spans["end"].size == spans["parent"].size > 0
    assert np.all(spans["end"] >= spans["start"])


def test_tracer_restores_the_program():
    saved = {op: getattr(Tape, op) for op in (*tracing.TAPE_OPS, "backward")}
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert {op: getattr(Tape, op) for op in saved} == saved


def test_backward_self_time_excludes_vjps():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tape = Tape()
        w = tape.param("w", np.ones(3))
        tape.squared_error(tape.sigmoid(w), tape.const(np.zeros(3)))
        tape.forward()
        tape.backward()
    finally:
        tracer.uninstall()
    calls, total, own = tracer.totals()
    assert calls["autodiff.sigmoid.vjp"] == calls["autodiff.squared_error.vjp"] == 1
    vjps = total["autodiff.sigmoid.vjp"] + total["autodiff.squared_error.vjp"]
    assert own["autodiff.backward"] == pytest.approx(total["autodiff.backward"] - vjps, abs=1e-12)


# -- each check fails on a planted fault -------------------------------------


def test_perturbed_prediction_fails(tmp_path, monkeypatch):
    program_predict = oracles.predict
    monkeypatch.setattr(oracles, "predict", lambda model, r: program_predict(model, r) + 1e-9)
    result = outcome(timed(tiny("canon-fclstm"), tmp_path)[-1])
    assert not result["predictions_oracle"] and not result["predictions_reference"]
    assert result["gradient"] and result["adam_step"]


def test_perturbed_gradient_fails(tmp_path, monkeypatch):
    program_backward = Tape.backward

    def backward(tape):
        grads = program_backward(tape)
        grads["cell0.w_hf"] = grads["cell0.w_hf"] * (1.0 + 1e-3)
        return grads

    monkeypatch.setattr(Tape, "backward", backward)
    result = outcome(timed(tiny("canon-fclstm"), tmp_path)[-1])
    assert not result["gradient"]
    assert result["predictions_oracle"] and result["adam_step"]


def test_perturbed_adam_update_fails(tmp_path, monkeypatch):
    program_step = oracles.adam_step

    def adam_step(state, params, grads):
        program_step(state, params, grads)
        params["head.bias"] += 1e-14
        return params

    monkeypatch.setattr(oracles, "adam_step", adam_step)
    assert not outcome(timed(tiny("canon-fclstm"), tmp_path)[-1])["adam_step"]


def test_flipped_byte_in_drn1_read_fails(tmp_path, monkeypatch):
    program_read = workloads.data.read_binary

    def read_binary(path):
        records = program_read(path)
        records[3].frames[1, 0, 5, 5] ^= 0x10
        return records

    monkeypatch.setattr(workloads.data, "read_binary", read_binary)
    result = outcome(timed(tiny("paper-convlstm"), tmp_path)[-1])
    assert not result["drn1_read"]
    assert result["predictions_oracle"]  # predictions are checked on the records read


def test_wrong_rmse_fails(tmp_path, monkeypatch):
    mod = workloads._train_module()
    program_evaluate = mod.evaluate
    monkeypatch.setattr(mod, "evaluate", lambda *a, **k: program_evaluate(*a, **k) * (1.0 + 1e-9))
    result = outcome(timed(tiny("canon-fclstm"), tmp_path)[-1])
    assert not result["evaluate_rmse"] and not result["test_rmse"]


def test_differing_digests_fail():
    assert oracles.check_digests(["a", "a"])[0]
    assert not oracles.check_digests(["a", "b"])[0]


def test_inputs_follow_the_seed_only():
    g = tiny("paper-convlstm").geometry
    first, again, other = (workloads.generate(g, s) for s in (SEED, SEED, SEED + 1))
    assert first == again
    assert first != other
    for record in first:
        m = workloads.label_feature(record.frames)
        assert abs(record.label - (g.a * m + g.b * m * m)) < 6 * g.noise


def test_bare_directory_exits_without_a_result(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "canon-fclstm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
