"""Closed-form drift ingredients of the enlargement scenarios.

The Azema supermartingales ``emery_Z`` (last passage at half the terminal
value) and ``honest_Z`` (last zero before 1), the auxiliary function ``h``
and its derivative, the running-supremum instance rate and the
after-last-passage rate.  The scenarios' block kernels evaluate the drifts
from these over whole blocks of paths, at the left endpoint of each step
(the predictable convention); ``emery_Z`` and ``honest_Z`` are the closed
forms those kernels are tested against.  ``scipy.special`` is imported by
the functions that evaluate it, when they run: a run that needs none of
them never loads it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, SingularityError

__all__ = [
    "h_func",
    "h_func_prime",
    "emery_Z",
    "honest_Z",
    "supremum_instance_rate",
    "emery_after_rate",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


# ---------------------------------------------------------------------------
# auxiliary functions: Azema supermartingales of the two random times
# ---------------------------------------------------------------------------


def h_func(y):
    """h(y) = sqrt(2/pi) * integral_0^y s^2 exp(-s^2/2) ds, in closed form.

    Integration by parts gives h(y) = erf(y/sqrt(2)) - sqrt(2/pi)*y*exp(-y^2/2);
    h(0) = 0 and h(inf) = 1.
    """
    from scipy.special import erf

    y = np.asarray(y, dtype=float)
    return erf(y / math.sqrt(2.0)) - _SQRT_2_OVER_PI * y * np.exp(-0.5 * y * y)


def h_func_prime(y):
    """h'(y) = sqrt(2/pi) * y^2 * exp(-y^2/2); note h'(0) = 0."""
    y = np.asarray(y, dtype=float)
    return _SQRT_2_OVER_PI * y * y * np.exp(-0.5 * y * y)


def emery_Z(w, t):
    """Azema supermartingale of the last passage at half the terminal value.

    Z = 1 - h(|w| / sqrt(1-t)), computed through the complement form
    erfc + tail so it stays strictly positive in floating point.
    """
    from scipy.special import erfc

    t = np.asarray(t, dtype=float)
    if np.any(t >= 1.0):
        raise DomainError("emery_Z requires t < 1")
    y = np.abs(np.asarray(w, dtype=float)) / np.sqrt(1.0 - t)
    return erfc(y / math.sqrt(2.0)) + _SQRT_2_OVER_PI * y * np.exp(-0.5 * y * y)


def honest_Z(w, t):
    """Azema supermartingale of the last zero before time 1.

    The reflection principle gives Z = P[a zero occurs in (t, 1] | W_t]
    = erfc(|w| / sqrt(2(1-t))).
    """
    from scipy.special import erfc

    t = np.asarray(t, dtype=float)
    if np.any(t >= 1.0):
        raise DomainError("honest_Z requires t < 1")
    y = np.abs(np.asarray(w, dtype=float)) / np.sqrt(1.0 - t)
    return erfc(y / math.sqrt(2.0))


def supremum_instance_rate(gap: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Drift rate of the instance M = int (U - X) dX, with the gap cancelled.

    rate = -(1 - gap^2 / tau); at gap = 0 the cancellation limit is -1, but
    the instance's discrete increments gap * dX vanish there, so record
    steps contribute 0 to the correction (handled by the caller).
    """
    gap = np.asarray(gap, dtype=float)
    tau = np.asarray(tau, dtype=float)
    ratio = np.zeros_like(gap)
    ok = tau > 0.0
    ratio[ok] = gap[ok] ** 2 / tau[ok]
    return -(1.0 - ratio)


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
