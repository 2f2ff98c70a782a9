"""Plain SGD as a pure state transition.

A step takes a parameter vector and a gradient and returns a new array;
nothing is mutated in place, so replaying a recorded gradient sequence
reproduces a trajectory exactly. Non-finite gradients raise instead of
being skipped, because a silently skipped step would corrupt any variance
study running on top of the trajectory.
"""

from __future__ import annotations

import numpy as np


class NonFiniteGradientError(RuntimeError):
    """Raised when a gradient contains NaN or infinity; aborts training."""


def sgd_step(params_vector, grad, lr: float) -> np.ndarray:
    """One descent step: params - lr * grad."""
    p = np.asarray(params_vector, dtype=float)
    g = np.asarray(grad, dtype=float)
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: params {p.shape} vs grad {g.shape}")
    if not np.all(np.isfinite(g)):
        bad = int(np.sum(~np.isfinite(g)))
        raise NonFiniteGradientError(
            f"{bad} non-finite gradient entries; max |finite| = "
            f"{np.max(np.abs(g[np.isfinite(g)])) if bad < g.size else 'n/a'}"
        )
    return p - lr * g
