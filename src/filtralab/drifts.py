"""Closed-form drift ingredients of the enlargement scenarios.

h', the derivative of the auxiliary function h of the half-terminal last
passage; the running-supremum instance rate; and the after-last-passage
rate.  All three are numpy only.  The scenarios' block kernels evaluate the
drifts from these over whole blocks of paths, at the left endpoint of each
step (the predictable convention).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularityError

__all__ = ["h_func_prime", "supremum_instance_rate", "emery_after_rate"]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def h_func_prime(y):
    """h'(y) = sqrt(2/pi) * y^2 * exp(-y^2/2); note h'(0) = 0.

    h(y) = sqrt(2/pi) * integral_0^y s^2 exp(-s^2/2) ds, and the Azema
    supermartingale of the half-terminal last passage is 1 - h.
    """
    y = np.asarray(y, dtype=float)
    return _SQRT_2_OVER_PI * y * y * np.exp(-0.5 * y * y)


def supremum_instance_rate(gap: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Drift rate of the instance M = int (U - X) dX, with the gap cancelled.

    rate = -(1 - gap^2 / tau); at gap = 0 the cancellation limit is -1, but
    the instance's discrete increments gap * dX vanish there, so record
    steps contribute 0 to the correction (handled by the caller).  Needs
    tau = T - t > 0, which the run path gives: T is the midpoint of a step
    at or after t, or a draw past the horizon.
    """
    gap = np.asarray(gap, dtype=float)
    tau = np.asarray(tau, dtype=float)
    rate = np.square(gap, out=np.empty(np.broadcast_shapes(gap.shape, tau.shape)))
    rate /= tau
    np.subtract(1.0, rate, out=rate)
    return np.negative(rate, out=rate)


def emery_after_rate(w, t, W1):
    """Closed-form drift rate on the after side of the last-passage time.

    rate = W1/((1-t) * expm1((2*w*W1 - W1^2)/(2*(1-t)))) - (w - W1)/(1-t),
    singular exactly on the avoided set w = W1/2.
    """
    w = np.asarray(w, dtype=float)
    t = np.asarray(t, dtype=float)
    denom = np.expm1((2.0 * w * W1 - W1 * W1) / (2.0 * (1.0 - t)))
    if np.any(denom == 0.0):
        raise SingularityError("rate evaluated on the singular set w = W1/2")
    return W1 / ((1.0 - t) * denom) - (w - W1) / (1.0 - t)
