#!/usr/bin/env python3
"""Run the benchmark on a parent checkout and on this one in alternating
pairs, and summarise each end-to-end metric per workload.

    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q PARENT_REV
    python3 scripts/bench_pairs.py --parent /tmp/parent --pairs 10 --seed 101 --out BENCH_3.json

Pair k runs ``perfbench/run.py --workload W --seed SEED+k --seconds S
--trace 0`` once in each checkout, parent first when k is even and this
checkout first when k is odd. Runs go one at a time, so they do not compete
for the cores. The output holds, per workload and metric of
``BENCHMARK.json``, each side's median and quartiles, how many pairs the
change wins by the metric's ``better`` direction, and whether the change's
median is within the metric's bound. ``run.py`` pins the BLAS threads; the
setting it logs is recorded. Each run also records its number of measured
rounds: ``run.py`` holds every round's outputs until it reads the peak RSS,
so that count is part of ``peak_rss_mb``. That metric also gets a
``by_rounds`` table: per measured round count, each side's median and
number of runs, so memory can be compared at equal counts. Before the
pairs, one round per workload is trained in each checkout at seed SEED and
the parameter digests (``workloads.digest``) are compared; the same probe
first trains one batch (``workloads.warm_up``) and records the tape nodes
it builds, summed over its tapes at each ``Tape.backward``. Each side's
``src/deeprain/*.py`` line counts, per file and in total as ``wc -l``
counts them, are recorded too, so a change's deleted lines can be read next
to its speed. Each run also records ``minflt``, the minor page faults of
the ``run.py`` process over its whole run (setup and every round), read as
the difference of ``getrusage(RUSAGE_CHILDREN).ru_minflt`` around it; per
workload, ``minflt`` holds each side's median and quartiles of it. A
change that lands the allocator on its mmap or trim thresholds shows there
before it shows in the speed. The output is rewritten after every pair.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# One training batch, then one round, per workload at a seed: the batch's
# tape nodes and tapes, then the round's digest. Run with perfbench/ as the
# working directory of the checkout under test, so ``run`` resolves it.
DIGEST_PROBE = """
import os, sys
import run
run.pin_blas_threads()
run.import_program()
import workloads
from deeprain.autodiff import Tape
wl = workloads.workloads(run.ROOT)[sys.argv[1]]
inputs = workloads.setup(wl, int(sys.argv[2]), run.WORKDIR)
nodes, backward = [], Tape.backward
Tape.backward = lambda tape: nodes.append(len(tape.nodes)) or backward(tape)
try:
    workloads.warm_up(wl, inputs)
    print(sum(nodes), len(nodes))
    print(workloads.digest(workloads.run_round(wl, inputs).model))
finally:
    if inputs.path:
        os.remove(inputs.path)
"""
BLAS_LINE = re.compile(r"BLAS threads (\d+)")
ROUND_LINE = "[perfbench] measured round:"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of pair 0")
    parser.add_argument("--out", required=True, help="output JSON path")
    return parser.parse_args(argv)


def git_rev(path: str) -> str | None:
    out = subprocess.run(["git", "-C", path, "describe", "--always", "--dirty", "--abbrev=40"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    blas = BLAS_LINE.search(proc.stdout)
    return {
        "seed": seed,
        "run_s": round(time.perf_counter() - started, 1),
        "blas_threads": blas.group(1) if blas else None,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "rounds": proc.stdout.count(ROUND_LINE),
        "minflt": faults,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def probe(root: str, workload: str, seed: int) -> tuple[str, dict]:
    """The round's parameter digest, and one training batch's tape nodes."""
    proc = subprocess.run([sys.executable, "-c", DIGEST_PROBE, workload, str(seed)],
                          cwd=os.path.join(root, "perfbench"), capture_output=True, text=True,
                          check=True)
    *_, batch, digest = proc.stdout.strip().splitlines()
    nodes, tapes = map(int, batch.split())
    return digest, {"nodes": nodes, "tapes": tapes}


def src_lines(root: str) -> dict:
    """Newline count of each ``src/deeprain/*.py`` file, and their total."""
    counts = {}
    for path in sorted(glob.glob(os.path.join(root, "src", "deeprain", "*.py"))):
        with open(path, "rb") as fh:
            counts[os.path.basename(path)] = fh.read().count(b"\n")
    counts["total"] = sum(counts.values())
    return counts


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def summarise(spec: dict, runs: dict) -> dict:
    """Per metric: both sides' spread, pair wins, and the bound check."""
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        p, c = spread(parent), spread(change)
        gain = (p["median"] - c["median"]) if lower else (c["median"] - p["median"])
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": p,
            "change": c,
            "change_wins": wins,
            "ties": ties,
            "pairs": len(parent),
            "median_change_rel": (c["median"] - p["median"]) / p["median"],
            "parent_iqr": p["q3"] - p["q1"],
            "gain_beyond_parent_iqr": gain > p["q3"] - p["q1"],
            "within_bound": -gain <= metric["bound"] * p["median"],
        }
    out["peak_rss_mb"]["by_rounds"] = by_rounds(runs, "peak_rss_mb")
    return out


def by_rounds(runs: dict, name: str) -> dict:
    """Per measured round count, each side's median of ``name`` and run count."""
    table = {}
    for rounds in sorted({r["rounds"] for side in runs.values() for r in side}):
        table[str(rounds)] = {}
        for side, side_runs in runs.items():
            values = [r["metrics"][name] for r in side_runs if r["rounds"] == rounds]
            table[str(rounds)][side] = {
                "median": statistics.median(values) if values else None,
                "runs": len(values),
            }
    return table


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    report = {
        "harness": f"perfbench/run.py --seconds {spec['run_seconds']} --trace 0",
        "revisions": {side: git_rev(path) for side, path in sides.items()},
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
        "blas_threads": None,
        "seeds": [args.seed + k for k in range(args.pairs)],
        "src_lines": {side: src_lines(path) for side, path in sides.items()},
        "digests": {},
        "batch_nodes": {},
        "workloads": {},
    }
    names = [w["name"] for w in spec["workloads"]]

    def save():
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")

    for name in names:
        probes = {side: probe(path, name, args.seed) for side, path in sides.items()}
        pair = {side: digest for side, (digest, _) in probes.items()}
        report["digests"][name] = {"seed": args.seed, **pair, "equal": pair["parent"] == pair["change"]}
        report["batch_nodes"][name] = {"seed": args.seed, **{s: n for s, (_, n) in probes.items()}}
        print(f"[pairs] {name} digest equal: {report['digests'][name]['equal']}, "
              f"batch nodes {report['batch_nodes'][name]}", flush=True)
    save()
    runs = {name: {"parent": [], "change": []} for name in names}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for name in names:
            for side in order:
                r = run_once(sides[side], name, args.seed + k, spec["run_seconds"])
                r["first"] = side == order[0]
                runs[name][side].append(r)
                report["blas_threads"] = r["blas_threads"]
                print(f"[pairs] pair {k} {name} {side}: {r['metrics']} ({r['run_s']} s)", flush=True)
            if k >= 1:
                report["workloads"][name] = {
                    "metrics": summarise(spec, runs[name]),
                    "minflt": {side: spread([r["minflt"] for r in side_runs])
                               for side, side_runs in runs[name].items()},
                    "runs": runs[name],
                }
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
