"""Reverse-mode automatic differentiation over the tensor primitives.

A ``Tape`` is a define-by-run graph: node values are computed eagerly as
operations are recorded, ``forward`` validates and returns the terminal
scalar loss, and ``backward`` walks the arena in reverse creation order,
accumulating gradients at fan-out points by in-order addition over consumer
creation order so reruns are bitwise identical.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T

__all__ = ["GraphError", "Node", "Tape", "grad_check", "GradCheckReport"]


class GraphError(RuntimeError):
    """Misuse of the tape protocol (non-scalar loss, backward before forward)."""


class Node:
    """One value in the graph: its payload, the nodes it was computed from,
    and the VJP that maps its gradient to theirs (None for a leaf)."""

    __slots__ = ("value", "parents", "vjp", "needs_grad")

    def __init__(self, value, parents, vjp, needs_grad):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.needs_grad = needs_grad

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Node arena plus the registry of named parameter leaves."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.params: dict[str, Node] = {}
        self._seeds: dict[Node, np.ndarray] = {}
        self._forward_done = False

    # -- leaves ----------------------------------------------------------

    def param(self, name: str, value: np.ndarray) -> Node:
        if name in self.params:
            raise GraphError(f"duplicate parameter name {name!r}")
        node = self._record(T.as_tensor(value), (), None, needs_grad=True)
        self.params[name] = node
        return node

    def const(self, value: np.ndarray) -> Node:
        return self._record(T.as_tensor(value), (), None, needs_grad=False)

    def _record(self, value, parents, vjp, needs_grad=None) -> Node:
        """Append a node; it needs a gradient when any parent does, unless
        ``needs_grad`` says otherwise (the leaves)."""
        if needs_grad is None:
            needs_grad = any([p.needs_grad for p in parents])
        node = Node(value, parents, vjp, needs_grad)
        self.nodes.append(node)
        self._forward_done = False
        return node

    # -- primitives ------------------------------------------------------

    def conv2d(self, x: Node, kernels: Node, bias: Node | None = None) -> Node:
        """Same-padded convolution of a [C,H,W] node (see ``tensor.conv2d``).

        The VJP rebuilds the im2col columns from ``x.value`` when the kernel
        gradient needs them, so the tape keeps no column matrix.
        """
        out = T.conv2d(x.value, kernels.value, None if bias is None else bias.value)
        c, h, w = x.value.shape
        o, _, kh, kw = kernels.value.shape
        kmat = kernels.value.reshape(o, c * kh * kw)

        def vjp(g):
            gm = g.reshape(o, h * w)
            gx = gk = gb = None
            if x.needs_grad:
                gx = T._col2im(kmat.T @ gm, c, kh, kw, h, w)
            if kernels.needs_grad:
                gk = (gm @ T._im2col(x.value, kh, kw).T).reshape(o, c, kh, kw)
            if bias is not None and bias.needs_grad:
                gb = g.sum(axis=(1, 2))
            return (gx, gk) if bias is None else (gx, gk, gb)

        parents = (x, kernels) if bias is None else (x, kernels, bias)
        return self._record(out, parents, vjp)

    def affine(self, x: Node, weight: Node, bias: Node | None = None) -> Node:
        out = T.affine(x.value, weight.value, None if bias is None else bias.value)

        def vjp(g):
            gx = weight.value.T @ g if x.needs_grad else None
            gw = np.outer(g, x.value) if weight.needs_grad else None
            if bias is None:
                return gx, gw
            return gx, gw, (g if bias.needs_grad else None)

        parents = (x, weight) if bias is None else (x, weight, bias)
        return self._record(out, parents, vjp)

    def concat0(self, items: list[Node]) -> Node:
        """Concatenate along axis 0 (stacks per-gate weights for fused steps)."""
        if not items:
            raise GraphError("concat0: empty input")
        out = np.concatenate([it.value for it in items], axis=0)
        sizes = [it.value.shape[0] for it in items]
        offsets = np.cumsum([0] + sizes)

        def vjp(g):
            return tuple(
                g[offsets[i] : offsets[i + 1]] if it.needs_grad else None
                for i, it in enumerate(items)
            )

        return self._record(out, tuple(items), vjp)

    def slice0(self, x: Node, start: int, stop: int) -> Node:
        """Contiguous slice along axis 0; the inverse of concat0 for fan-out."""
        out = x.value[start:stop].copy()

        def vjp(g):
            gx = np.zeros_like(x.value)
            gx[start:stop] = g
            return (gx,)

        return self._record(out, (x,), vjp)

    def sigmoid(self, x: Node) -> Node:
        out = T.map_sigmoid(x.value)
        return self._record(out, (x,), lambda g: (g * out * (1.0 - out),))

    def tanh(self, x: Node) -> Node:
        out = T.map_tanh(x.value)
        return self._record(out, (x,), lambda g: (g * (1.0 - out * out),))

    def mul(self, a: Node, b: Node) -> Node:
        out = T.hadamard(a.value, b.value)

        def vjp(g):
            ga = g * b.value if a.needs_grad else None
            gb = g * a.value if b.needs_grad else None
            return ga, gb

        return self._record(out, (a, b), vjp)

    def add(self, a: Node, b: Node) -> Node:
        out = T.add(a.value, b.value)
        return self._record(out, (a, b), lambda g: (g, g))

    def lstm_cell(self, pre: Node, c_prev: Node) -> tuple[Node, Node]:
        """One LSTM state update from the stacked gate preactivations.

        ``pre`` stacks the i, f, o and g preactivations along axis 0, each
        shaped like ``c_prev``, so it has four times ``c_prev``'s rows. Records
        c_t = f*c_prev + i*g and then h_t = o*tanh(c_t), with i, f, o
        sigmoids and g a tanh (Shi et al., arXiv 1506.04214, eq. 3), and
        returns (c_t, h_t).

        The VJPs evaluate the same products in the same order as the unfused
        slice0/sigmoid/tanh/mul/add composition, so gradients match it bit
        for bit. h_t's VJP leaves the o-gate gradient for c_t's VJP,
        which always runs after it and writes all four gates' gradients into
        one array.
        """
        hidden = c_prev.value.shape[0]
        if pre.value.shape[0] != 4 * hidden:
            raise T.ShapeError(
                f"lstm_cell: gates: expected {4 * hidden} rows, got {pre.value.shape[0]}"
            )
        gates = T.map_sigmoid(pre.value[: 3 * hidden])
        i, f, o = gates[:hidden], gates[hidden : 2 * hidden], gates[2 * hidden :]
        g = T.map_tanh(pre.value[3 * hidden :])
        c_out = T.add(T.hadamard(f, c_prev.value), T.hadamard(i, g))
        tanh_c = T.map_tanh(c_out)
        h_out = T.hadamard(o, tanh_c)
        o_grad = [0.0]  # h_t's VJP sets it; c_t's VJP takes it and resets it

        def c_vjp(gc):
            go, o_grad[0] = o_grad[0], 0.0
            gpre = None
            if pre.needs_grad:
                gpre = np.empty_like(pre.value)
                gpre[:hidden] = gc * g * i * (1.0 - i)
                gpre[hidden : 2 * hidden] = gc * c_prev.value * f * (1.0 - f)
                gpre[2 * hidden : 3 * hidden] = go
                gpre[3 * hidden :] = gc * i * (1.0 - g * g)
            return gpre, (gc * f if c_prev.needs_grad else None)

        def h_vjp(gh):
            o_grad[0] = gh * tanh_c * o * (1.0 - o)
            return (gh * o * (1.0 - tanh_c * tanh_c),)

        c_t = self._record(c_out, (pre, c_prev), c_vjp)
        h_t = self._record(h_out, (c_t,), h_vjp)
        return c_t, h_t

    def lstm_layer(self, x: Node, wx: Node, wh: Node, b: Node, last: bool = False) -> Node:
        """Every step of one LSTM layer over a chunk of records, as one node.

        ``x`` is the layer input [k,T,...]: k records of T steps, each a
        [C,H,W] map for a ConvLSTM layer or a [D] vector for an FC-LSTM
        layer; the rank of ``wx`` tells them apart, as in ``lstm_cell_step``.
        ``wx``, ``wh`` and ``b`` stack the i, f, o and g gates' input
        weights, recurrent weights and biases along axis 0. The states start
        at zero. The value is every step's hidden state [k,T,hidden,...], or
        with ``last`` only the final one [k,hidden,...].

        Per record and step this computes what conv2d (or affine), add and
        lstm_cell compute, in the same order and on GEMMs of the same
        shapes (stacked ``np.matmul``), so values and gradients have their
        bits. The VJP is backpropagation through time. It returns the input
        gradient as one array and each weight's gradient as an iterator over
        the records: a record's term is its gradient summed over the steps
        in ascending order, and ``backward`` adds the terms in record order,
        one record at a time.

        The node keeps the gate values and the h and c states of every
        step, and recomputes tanh(c) backward. Until ``backward`` takes the
        weight gradients, an FC-LSTM layer keeps each step's gate gradients,
        and a ConvLSTM layer each step's weight terms: at the paper's 26x26
        maps these are a fifth of the gate gradients or less.
        """
        xv, w_in, w_rec = x.value, wx.value, wh.value
        k, steps = xv.shape[:2]
        hidden = w_rec.shape[1]
        rows = 4 * hidden
        spatial = xv.shape[3:]
        if w_in.shape[0] != rows or w_in.shape[1] != xv.shape[2] or b.value.shape != (rows,):
            raise T.ShapeError(
                f"lstm_layer: gates: input {xv.shape}, weights {w_in.shape} and "
                f"{w_rec.shape}, bias {b.value.shape}"
            )
        # project maps a step's inputs [k,C,(H,W)] to gate preactivations
        # [k,4h,(H,W)] and back maps gate gradients to input gradients;
        # term(j, g, t, r) is record r's step-t gradient of wx (j = 0), wh
        # (1) or b (2) from its gate gradient g
        conv = w_in.ndim == 4
        if conv:
            kh, kw = w_in.shape[2:]
            h, w = spatial
            mx, mh, bias = w_in.reshape(rows, -1), w_rec.reshape(rows, -1), b.value[:, None, None]

            def project(m, inp):
                cols = T._im2col(inp.reshape(-1, h, w), kh, kw).reshape(k, -1, h * w)
                return np.matmul(m, cols).reshape((k, rows) + spatial)

            def back(m, gp):
                c = m.shape[1] // (kh * kw)
                d = np.matmul(m.T, gp.reshape(k, rows, h * w))
                return T._col2im(d.reshape(-1, h * w), k * c, kh, kw, h, w).reshape((k, c) + spatial)

            def term(j, g, t, r):
                if j == 2:
                    return g.sum(axis=(1, 2))
                v = xv[r, t] if j == 0 else hs[t][r]
                return (g.reshape(rows, h * w) @ T._im2col(v, kh, kw).T).reshape(rows, -1, kh, kw)
        else:
            mx, mh, bias = w_in, w_rec, b.value

            def project(m, inp):
                return np.matmul(m, inp[..., None])[..., 0]

            def back(m, gp):
                return np.matmul(m.T, gp[..., None])[..., 0]

            def term(j, g, t, r):  # np.outer for the weights
                if j == 2:
                    return g
                return g[:, None] * (xv[r, t] if j == 0 else hs[t][r])[None, :]

        # per step: the sigmoid gates i, f, o and the tanh gate g; h and c
        # also keep their zero start, so step t reads h[t] and c[t]
        sig, gs = [], []
        hs = [np.zeros((k, hidden) + spatial)]
        cs = [hs[0]]
        for t in range(steps):
            pre = (project(mx, xv[:, t]) + bias) + project(mh, hs[t])
            sig.append(T.map_sigmoid(pre[:, : 3 * hidden]))
            gs.append(T.map_tanh(np.ascontiguousarray(pre[:, 3 * hidden :])))
            i, f, o = (sig[t][:, j * hidden : (j + 1) * hidden] for j in range(3))
            cs.append(f * cs[t] + i * gs[t])
            hs.append(o * T.map_tanh(cs[t + 1]))
        out = hs[steps]
        if not last:
            out = np.stack(hs[1:], axis=1)
            hs[1:] = [out[:, t] for t in range(steps)]  # views, not copies
        weights = (wx, wh, b)

        def vjp(g_out):
            gx = np.empty_like(xv) if x.needs_grad else None
            kept = [None] * steps
            g_rec = gc_next = None
            for t in reversed(range(steps)):
                # h_t's consumers in creation order: the next step, then the
                # layer above (or, for the last step, whatever reads it)
                g_up = g_out if last else g_out[:, t]
                if g_rec is None:
                    gh = g_up
                else:
                    gh = g_rec if last else g_rec + g_up
                i, f, o = (sig[t][:, j * hidden : (j + 1) * hidden] for j in range(3))
                g, tc = gs[t], T.map_tanh(cs[t + 1])
                gc = gh * o * (1.0 - tc * tc)
                if gc_next is not None:
                    gc = gc + gc_next
                gp = np.empty((k, rows) + spatial)
                gp[:, :hidden] = gc * g * i * (1.0 - i)
                gp[:, hidden : 2 * hidden] = gc * cs[t] * f * (1.0 - f)
                gp[:, 2 * hidden : 3 * hidden] = gh * tc * o * (1.0 - o)
                gp[:, 3 * hidden :] = gc * i * (1.0 - g * g)
                if t:
                    gc_next = gc * f
                    g_rec = back(mh, gp)
                if gx is not None:
                    gx[:, t] = back(mx, gp)
                # a ConvLSTM step's weight terms are computed now and kept
                # instead of its gate gradients (see the docstring)
                kept[t] = [
                    [term(j, gp[r], t, r) if wt.needs_grad else None for j, wt in enumerate(weights)]
                    for r in range(k)
                ] if conv else gp

            def totals(j):
                for r in range(k):
                    steps_r = (kp[r][j] if conv else term(j, kp[r], t, r) for t, kp in enumerate(kept))
                    yield functools.reduce(operator.add, steps_r)

            return (gx, *(totals(j) if wt.needs_grad else None for j, wt in enumerate(weights)))

        return self._record(out, (x, wx, wh, b), vjp)

    def index0(self, x: Node, i: int) -> Node:
        """Item ``i`` along axis 0: one record of a chunk. The VJP fills the
        other items with -0.0, which adds to any value without changing its
        bits, so the items' gradients sum into ``x`` exactly."""
        out = x.value[i].copy()

        def vjp(g):
            gx = np.full(x.value.shape, -0.0)
            gx[i] = g
            return (gx,)

        return self._record(out, (x,), vjp)

    def global_avg_pool(self, x: Node) -> Node:
        out = T.global_avg_pool(x.value)
        _, h, w = x.value.shape

        def vjp(g):
            return (np.broadcast_to(g[:, None, None] / (h * w), x.value.shape),)

        return self._record(out, (x,), vjp)

    def squared_error(self, pred: Node, target: Node) -> Node:
        """Sum of elementwise squared differences, as a [1] scalar node."""
        if pred.value.shape != target.value.shape:
            raise T.ShapeError(f"squared_error: shape: {pred.value.shape} vs {target.value.shape}")
        diff = pred.value - target.value
        out = np.array([float(np.dot(diff.ravel(), diff.ravel()))])

        def vjp(g):
            gp = 2.0 * g[0] * diff if pred.needs_grad else None
            gt = -2.0 * g[0] * diff if target.needs_grad else None
            return gp, gt

        return self._record(out, (pred, target), vjp)

    def mean_scalars(self, items: list[Node]) -> Node:
        """Mean of [1] scalar nodes; the batch-loss reduction."""
        if not items:
            raise GraphError("mean_scalars: empty input")
        n = len(items)
        values = [float(it.value[0]) for it in items]
        try:
            out = np.array([math.fsum(values) / n])
        except OverflowError:  # a partial sum left the float range; terms over n cannot
            out = np.array([math.fsum(v / n for v in values)])

        def vjp(g):
            share = g / n
            return tuple(share if it.needs_grad else None for it in items)

        return self._record(out, tuple(items), vjp)

    # -- evaluation ------------------------------------------------------

    def forward(self) -> float:
        """Validate the terminal node and return the scalar loss value."""
        if not self.nodes:
            raise GraphError("forward on an empty tape")
        loss = self.nodes[-1]
        if loss.value.shape != (1,):
            raise GraphError(
                f"terminal node must have shape (1,), got {loss.value.shape}"
            )
        self._forward_done = True
        return float(loss.value[0])

    def seed(self, node: Node, value: np.ndarray) -> None:
        """Start the sum of ``node``'s gradient at ``value``: this tape's
        contributions are added onto it, so that one sum in record order
        can run over several tapes."""
        self._seeds[node] = value

    def backward(self) -> dict[str, np.ndarray]:
        """Gradient of the terminal loss for every registered parameter.

        The walk keeps each node's pending gradient contributions, and the
        leaf gradients, in dicts of its own: a node's contributions are
        dropped as soon as its VJP has consumed them, and the tape keeps no
        state from one call to the next, so ``backward`` can run again.

        A VJP may give a parent an iterator of terms instead of one array;
        they are added one at a time, in order, at its place in the sum.
        """
        if not self._forward_done:
            raise GraphError("backward called before forward")
        pending = {self.nodes[-1]: [np.ones(1)]}
        leaf_grads = {}
        for node in reversed(self.nodes):
            contribs = pending.pop(node, None)
            if contribs is None or not node.needs_grad:
                continue
            # Contributions arrived in reverse consumer order; sum them in
            # creation order for a reproducible accumulation sequence.
            acc = self._seeds.get(node)
            for contrib in reversed(contribs):
                for term in contrib if isinstance(contrib, Iterator) else (contrib,):
                    acc = term if acc is None else acc + term
            if node.vjp is None:
                leaf_grads[node] = acc
                continue
            for parent, contrib in zip(node.parents, node.vjp(acc)):
                if contrib is not None and parent.needs_grad:
                    pending.setdefault(parent, []).append(contrib)
        return {
            name: leaf_grads[p] if p in leaf_grads else np.zeros_like(p.value)
            for name, p in self.params.items()
        }


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    ok: bool
    unreliable: bool = False
    note: str = ""


@dataclass
class GradCheckReport:
    step: float
    tol: float
    entries: list[GradCheckEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    def render(self) -> str:
        lines = []
        for e in self.entries:
            status = "PASS" if e.ok else "FAIL"
            extra = ""
            if e.unreliable:
                extra += " [unreliable: one-sided slopes disagree]"
            if e.note:
                extra += f" ({e.note})"
            lines.append(f"{e.name}: max_rel_err={e.max_rel_err:.3e} {status}{extra}")
        return "\n".join(lines)


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def grad_check(loss_fn, params, step: float = 1e-3, tol: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` maps a name->array dict to a Tape whose terminal node is the
    scalar loss. Every element of every parameter is probed at +-step; the
    relative error uses max(|analytic|, |numeric|, 1e-8) as denominator.
    Elements whose one-sided difference quotients disagree strongly are
    flagged unreliable (a symptom of probing a non-smooth point).
    """
    if step <= 0:
        raise ValueError(f"grad_check: step must be > 0, got {step}")
    tape = loss_fn(params)
    base = tape.forward()
    grads = tape.backward()
    report = GradCheckReport(step=step, tol=tol)
    for name, arr in params.items():
        analytic = grads[name]
        worst = 0.0
        unreliable = False
        note = ""
        ok = True
        for idx in np.ndindex(arr.shape):
            plus = arr.copy()
            plus[idx] += step
            lp = loss_fn({**params, name: plus}).forward()
            minus = arr.copy()
            minus[idx] -= step
            lm = loss_fn({**params, name: minus}).forward()
            if not (math.isfinite(lp) and math.isfinite(lm)):
                ok = False
                note = f"non-finite loss while probing element {idx}"
                worst = math.inf
                break
            numeric = (lp - lm) / (2.0 * step)
            worst = max(worst, _rel_err(float(analytic[idx]), numeric))
            d_plus = (lp - base) / step
            d_minus = (base - lm) / step
            jump = abs(d_plus - d_minus)
            if jump > 0.5 * max(abs(d_plus), abs(d_minus), 1.0) and jump > 100.0 * step:
                unreliable = True
        if worst > tol:
            ok = False
        report.entries.append(GradCheckEntry(name, worst, ok, unreliable, note))
    return report
