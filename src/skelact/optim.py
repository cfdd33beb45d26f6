"""Adam optimizer over named parameter tensors.

Implements the bias-corrected update

    m <- b1*m + (1-b1)*g         v <- b2*v + (1-b2)*g^2
    p <- p - lr * m_hat / (sqrt(v_hat) + eps)

with m_hat = m/(1-b1^t) and v_hat = v/(1-b2^t), applied elementwise.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self, params: dict[str, Tensor]):
        self.step = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """Apply one update in place from each parameter's .grad, then clear it.

    Parameters with no accumulated gradient are skipped entirely; their
    moment buffers do not advance.  The step counter advances once per call.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * np.square(g)
        p.data -= (lr / c1) * m / (np.sqrt(v / c2) + EPS)
        p.grad = None

