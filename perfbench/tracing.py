"""Spans and counts around the program's public calls, for the traced run.

``install`` wraps, from outside the program, the ``Tape`` op methods and
``Tape.backward``, the ``vjp`` of every node an op returns, and the
module-level names the training loop calls (``train.py`` imports
``adam_step``, ``preprocess`` and ``build_prediction`` by value, so they are
wrapped in that module's namespace). ``uninstall`` puts the originals back.
Spans live in memory as parallel arrays and are written out once, at the end.
"""

from __future__ import annotations

import os
import sys
import time
from array import array

import numpy as np

from deeprain.autodiff import Tape

TAPE_OPS = (
    "param", "const", "conv2d", "affine", "concat0", "slice0", "sigmoid", "tanh",
    "mul", "add", "global_avg_pool", "squared_error", "mean_scalars",
)
LEAF_OPS = ("param", "const")  # recorded without a vjp
# names train.py calls through its own namespace -> span name (layer.call)
TRAIN_NAMES = {
    "train": "train.train",
    "evaluate": "train.evaluate",
    "adam_step": "optim.adam_step",
    "preprocess": "model.preprocess",
    "build_prediction": "model.build_prediction",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.conv_flop = 0  # forward and VJP GEMM flops of conv2d, from shapes
        self.read_bytes = 0
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1])
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._open.pop()

        return traced

    # -- installing ------------------------------------------------------

    def _op(self, op: str, method):
        fwd = self.wrap(f"autodiff.{op}", method)
        vjp_name = f"autodiff.{op}.vjp"
        tracer = self

        def traced(tape, *args, **kwargs):
            node = fwd(tape, *args, **kwargs)
            if node.vjp is not None:
                node.vjp = tracer.wrap(vjp_name, node.vjp)
                if op == "conv2d":
                    node.vjp = tracer._count_conv(node, node.vjp)
            return node

        return traced

    def _count_conv(self, node, vjp):
        """Count the forward GEMM now and the VJP's GEMMs (one per input
        that needs a gradient) when the VJP runs."""
        x, kernels = node.parents[:2]
        c, h, w = x.value.shape
        o, _, kh, kw = kernels.value.shape
        flop = 2 * o * c * kh * kw * h * w
        self.conv_flop += flop
        grads = int(x.needs_grad) + int(kernels.needs_grad)

        def counted(g):
            self.conv_flop += grads * flop
            return vjp(g)

        return counted

    def _patch(self, owner, attr: str, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for op in TAPE_OPS:
            self._patch(Tape, op, self._op(op, getattr(Tape, op)))
        self._patch(Tape, "backward", self.wrap("autodiff.backward", Tape.backward))
        train_mod = sys.modules["deeprain.train"]
        for name, span in TRAIN_NAMES.items():
            self._patch(train_mod, name, self.wrap(span, getattr(train_mod, name)))
        data_mod = sys.modules["deeprain.data"]
        read = self.wrap("data.read_binary", data_mod.read_binary)

        def read_binary(path):
            self.read_bytes += os.path.getsize(path)
            return read(path)

        self._patch(data_mod, "read_binary", read_binary)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path: str):
        np.savez_compressed(path, **self.arrays())

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, total time, and time not covered by
        direct child spans (self time)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        n = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n)
        total = np.bincount(a["name_id"], weights=dur, minlength=n)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        own = np.bincount(a["name_id"], weights=dur - child, minlength=n)
        return (
            {k: int(calls[i]) for i, k in enumerate(self.names)},
            {k: float(total[i]) for i, k in enumerate(self.names)},
            {k: float(own[i]) for i, k in enumerate(self.names)},
        )


def per_layer(tracer: Tracer, epoch_s: list, extra: dict) -> dict:
    """Per-layer metrics of one traced round, as name -> (value, unit)."""
    calls, total, own = tracer.totals()

    def get(table, key):  # a layer never called reads 0
        return table.get(key, 0 if table is calls else 0.0)

    out = {}
    nodes = sum(get(calls, f"autodiff.{op}") for op in TAPE_OPS)
    out["autodiff.nodes_per_record"] = (nodes / max(1, get(calls, "model.build_prediction")), "count")
    for op in TAPE_OPS:
        out[f"autodiff.{op}.fwd_calls"] = (get(calls, f"autodiff.{op}"), "count")
        out[f"autodiff.{op}.fwd_s"] = (get(total, f"autodiff.{op}"), "s")
        if op not in LEAF_OPS:
            out[f"autodiff.{op}.vjp_calls"] = (get(calls, f"autodiff.{op}.vjp"), "count")
            out[f"autodiff.{op}.vjp_s"] = (get(total, f"autodiff.{op}.vjp"), "s")
    out["autodiff.backward_s"] = (get(total, "autodiff.backward"), "s")
    out["autodiff.backward_self_s"] = (get(own, "autodiff.backward"), "s")
    conv_s = get(total, "autodiff.conv2d") + get(total, "autodiff.conv2d.vjp")
    gflop = tracer.conv_flop / 1e9
    out["tensor.conv2d.gflop"] = (gflop, "GFLOP")
    out["tensor.conv2d.gflop_per_s"] = (gflop / conv_s if conv_s else 0.0, "GFLOP/s")
    out["model.build_prediction_s"] = (get(total, "model.build_prediction"), "s")
    out["model.preprocess_s"] = (get(total, "model.preprocess"), "s")
    out["optim.adam_step_s"] = (get(total, "optim.adam_step"), "s")
    out["optim.adam_step_calls"] = (get(calls, "optim.adam_step"), "count")
    read_s = get(total, "data.read_binary")
    out["data.read_binary_s"] = (read_s, "s")
    out["data.read_binary_mb_per_s"] = (tracer.read_bytes / 1e6 / read_s if read_s else 0.0, "MB/s")
    out["train.epoch_s"] = (float(np.median(epoch_s)), "s")
    out["train.evaluate_s"] = (get(total, "train.evaluate"), "s")
    out.update(extra)
    return out
