"""Reverse-mode automatic differentiation over the tensor primitives.

A ``Tape`` is a define-by-run graph: node values are computed eagerly as
operations are recorded, ``forward`` validates and returns the terminal
scalar loss, and ``backward`` walks the arena in reverse creation order,
accumulating gradients at fan-out points by in-order addition over consumer
creation order so reruns are bitwise identical.
"""

from __future__ import annotations

import math
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

    def backward(self) -> dict[str, np.ndarray]:
        """Gradient of the terminal loss for every registered parameter.

        The walk keeps each node's pending gradient contributions, and the
        leaf gradients, in dicts of its own: a node's contributions are
        dropped as soon as its VJP has consumed them, and the tape keeps no
        state from one call to the next, so ``backward`` can run again.
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
            acc = contribs[-1]
            for contrib in reversed(contribs[:-1]):
                acc = acc + contrib
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
