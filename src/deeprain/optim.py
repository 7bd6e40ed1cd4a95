"""First-order optimizers: Adam and plain gradient descent."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

__all__ = ["AdamState", "adam_step", "sgd_step"]


@dataclass
class AdamState:
    """Per-parameter moment estimates plus the shared step counter.

    Moment tensors are created lazily on the first step so the state can be
    built before the parameter set is known. ``v`` stays elementwise >= 0.
    """

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8
    lr: float = 0.001
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def _check_grads(params, grads, op):
    for name in params:
        if name not in grads:
            raise ValueError(f"{op}: missing gradient for parameter {name!r}")


def adam_step(state: AdamState, params: dict, grads: dict) -> dict:
    """One Adam update, in place over ``params``.

    m <- b1*m + (1-b1)*g ; v <- b2*v + (1-b2)*g^2 ; with bias-corrected
    m_hat, v_hat the update is theta <- theta - lr * m_hat / (sqrt(v_hat) + eps).
    """
    _check_grads(params, grads, "adam_step")
    state.t += 1
    c1 = 1.0 - state.beta1**state.t
    c2 = 1.0 - state.beta2**state.t
    for name, theta in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(theta)
            state.v[name] = np.zeros_like(theta)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        theta -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return params


def sgd_step(lr: float, params: dict, grads: dict) -> dict:
    """Plain gradient descent: theta <- theta - lr * g, in place."""
    _check_grads(params, grads, "sgd_step")
    for name, theta in params.items():
        theta -= lr * grads[name]
    return params
