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
        """Same-padded convolution of a [C,H,W] node (see ``tensor.conv2d``)."""
        out = T.conv2d(x.value, kernels.value, None if bias is None else bias.value)

        def vjp(g):
            gx = T.conv2d_input_grad(g, kernels.value) if x.needs_grad else None
            extents = kernels.value.shape[2:]
            gk = T.conv2d_kernel_grad(g, x.value, *extents) if kernels.needs_grad else None
            if bias is None:
                return gx, gk
            return gx, gk, (g.sum(axis=(-2, -1)) if bias.needs_grad else None)

        parents = (x, kernels) if bias is None else (x, kernels, bias)
        return self._record(out, parents, vjp)

    def affine(self, x: Node, weight: Node, bias: Node | None = None) -> Node:
        out = T.affine(x.value, weight.value, None if bias is None else bias.value)

        def vjp(g):
            gx = T.affine_input_grad(g, weight.value) if x.needs_grad else None
            gw = T.affine_weight_grad(g, x.value) if weight.needs_grad else None
            gb = g if bias is not None and bias.needs_grad else None
            if g.ndim > 1:  # leading axes: per-index terms, which backward adds in order
                m, n = weight.value.shape
                gw = None if gw is None else iter(gw.reshape(-1, m, n))
                gb = None if gb is None else iter(gb.reshape(-1, m))
            return (gx, gw) if bias is None else (gx, gw, gb)

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
        shaped like ``c_prev``. Records c_t = f*c_prev + i*g and then
        h_t = o*tanh(c_t) (``tensor._lstm_step``), and returns (c_t, h_t).
        The VJPs evaluate the products of the unfused slice0/sigmoid/tanh/
        mul/add composition in its order, so gradients have its bits; c_t's
        VJP, which always runs after h_t's, writes all four gates' gradients.
        """
        hidden = c_prev.value.shape[0]
        if pre.value.shape != (4 * hidden,) + c_prev.value.shape[1:]:
            raise T.ShapeError(f"lstm_cell: gates: expected {4 * hidden} rows shaped like "
                               f"c_prev {c_prev.value.shape}, got {pre.value.shape}")
        gates, c_out, h_out = T._lstm_step(pre.value, c_prev.value, 0)
        o_grad = [0.0]  # h_t's VJP sets it; c_t's VJP takes it and resets it

        def c_vjp(gc):
            go, o_grad[0] = o_grad[0], 0.0
            gpre, gc_prev = T._lstm_pre_grad(gc, go, gates, c_prev.value, 0)
            return gpre, (gc_prev if c_prev.needs_grad else None)

        def h_vjp(gh):
            o_grad[0], gc = T._lstm_h_grad(gh, gates[2], c_out)
            return (gc,)

        c_t = self._record(c_out, (pre, c_prev), c_vjp)
        h_t = self._record(h_out, (c_t,), h_vjp)
        return c_t, h_t

    def lstm_layer(self, x: Node, wx: Node, wh: Node, b: Node, last: bool = False) -> Node:
        """Every step of one LSTM layer over a chunk of records, as one node.

        ``x`` is the layer input [k,T,...]: k records of T steps of [C,H,W]
        maps (ConvLSTM, ``wx`` of rank 4) or [D] vectors (FC-LSTM). ``wx``,
        ``wh`` and ``b`` stack the i, f, o and g gates along axis 0. The
        states start at zero. The value is every step's hidden state
        [k,T,hidden,...], or with ``last`` the final one.

        A step runs conv2d's (or affine's), add's and lstm_cell's tensor
        functions with the records on a leading axis, each on a GEMM of its
        own shape, so the bits are those ops'. The VJP is backpropagation
        through time; per weight it yields, record by record, the gradient
        summed over the steps in ascending order.

        The node keeps every step's gates, h and c (tanh(c) is recomputed).
        Backward keeps the smaller: FC-LSTM gate gradients, ConvLSTM weight terms.
        """
        xv, w_in, w_rec = x.value, wx.value, wh.value
        k, steps = xv.shape[:2]
        rows = 4 * w_rec.shape[1]
        got = (w_in.shape[:2], w_rec.shape[0], b.value.shape, xv.ndim, w_rec.ndim)
        if got != ((rows, xv.shape[2]), rows, (rows,), w_in.ndim + 1, w_in.ndim):
            raise T.ShapeError(f"lstm_layer: gates: input {xv.shape}, weights {w_in.shape} "
                               f"and {w_rec.shape}, bias {b.value.shape}")
        conv = w_in.ndim == 4
        if conv:
            project, back, weight_grad = T.conv2d, T.conv2d_input_grad, T.conv2d_kernel_grad
        else:
            project, back, weight_grad = T.affine, T.affine_input_grad, T.affine_weight_grad
        # every step's gates; h and c keep their zero start, so step t reads h[t], c[t]
        gates, hs = [], [np.zeros((k, w_rec.shape[1]) + xv.shape[3:])]
        cs = [hs[0]]
        for t in range(steps):
            pre = project(xv[:, t], w_in, b.value) + project(hs[t], w_rec)
            step_gates, c, h = T._lstm_step(pre, cs[t], 1)
            gates.append(step_gates)
            cs.append(c)
            hs.append(h)
        out = hs[steps]
        if not last:
            out = np.stack(hs[1:], axis=1)
            hs[1:] = [out[:, t] for t in range(steps)]  # views, not copies
        weights = (wx, wh, b)

        def term(j, g, t, r):  # wx's (j = 0), wh's or b's step-t term for record(s) r
            if j == 2:
                return g.sum(axis=(-2, -1)) if conv else g
            return weight_grad(g, xv[r, t] if j == 0 else hs[t][r], *weights[j].value.shape[2:])

        def vjp(g_out):
            gx = np.empty_like(xv) if x.needs_grad else None
            kept = [None] * steps
            g_rec = gc_next = None
            for t in reversed(range(steps)):
                # h_t's consumers in creation order: the next step, then the
                # layer above (or, for the last step, whatever reads it)
                gh = g_out if last else g_out[:, t]
                if g_rec is not None:
                    gh = g_rec if last else g_rec + gh
                go, gc = T._lstm_h_grad(gh, gates[t][2], cs[t + 1])
                if gc_next is not None:
                    gc = gc + gc_next
                gp, gc_next = T._lstm_pre_grad(gc, go, gates[t], cs[t], 1)
                if t:
                    g_rec = back(gp, w_rec)
                if gx is not None:
                    gx[:, t] = back(gp, w_in)
                # a ConvLSTM step's weight terms replace its gate gradients now
                kept[t] = gp if not conv else [
                    term(j, gp, t, slice(None)) if w.needs_grad else None for j, w in enumerate(weights)]

            def totals(j):
                for r in range(k):
                    steps_r = (kp[j][r] if conv else term(j, kp[r], t, r) for t, kp in enumerate(kept))
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
        h, w = x.value.shape[-2:]

        def vjp(g):
            return (np.broadcast_to(g[..., None, None] / (h * w), x.value.shape),)

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
