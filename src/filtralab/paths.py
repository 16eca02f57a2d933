"""Bessel(3) simulation and bridge extrema.

The scenarios' block kernels simulate and condition whole blocks of paths;
this module holds what they share: ``draw_rows``, exact draws of the
Brownian-bridge maximum and the Bessel(3)-bridge minimum of a step, the
exact running maximum of a Brownian path at its grid times, the Pitman
construction of a block of Bessel(3) paths, exact in law, and the scale
function whose inverse completes the future infimum past the horizon.

Simulation is deterministic per (seed, path index): ``draw_rows`` gives each
path its own counter-based substream, whatever block the path falls in; one
bit generator per call is re-keyed row by row, and each path's stream is the
one a new ``substream`` would draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .rng import stream_keys, substream

__all__ = ["ScaleFunction", "reciprocal_scale", "draw_rows", "pitman_from_draws"]


@dataclass(frozen=True)
class ScaleFunction:
    """A strictly increasing map e: (0, inf) -> (-inf, 0) with its inverse.

    The default instance ``reciprocal_scale`` is e(z) = -1/z, the scale
    function of the three-dimensional Bessel process.  ``tail_sample``
    inverts the conditional law of the eventual infimum given the current
    value: P[inf <= a | Z = z] = e(z)/e(a), so a = e_inverse(e(z)/u) with
    u uniform on (0, 1), elementwise over arrays of z and u.
    """

    e: Callable
    e_inverse: Callable

    def tail_sample(self, z, u):
        if np.any(np.asarray(z) <= 0.0):
            raise DomainError(f"scale functions are defined on (0, inf), got {np.min(z)}")
        return self.e_inverse(self.e(z) / u)


def reciprocal_scale() -> ScaleFunction:
    return ScaleFunction(e=lambda z: -1.0 / z, e_inverse=lambda y: -1.0 / y)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def draw_rows(out: np.ndarray, seed: int, purpose: str, lo: int, draw) -> np.ndarray:
    """Fill row k of ``out`` by ``draw(substream(seed, purpose, lo + k), row)``; returns ``out``.

    ``draw(gen, row)`` writes its draws into ``row`` in place (through the
    generator's ``out=``, or a scalar call for a lone value); a 1-D ``out``
    passes each element as a length-1 view.  One generator serves the whole
    call.  Before each later row its Philox bit generator is re-keyed to that
    path's stream through a state dict of plain ints built once per call:
    the counter and the buffered state (``buffer``, ``buffer_pos``,
    ``has_uint32``, ``uinteger``) are those of a new generator, so every row
    draws exactly its own path's stream at a fraction of a new generator's
    cost.
    """
    gen = substream(seed, purpose, lo)
    bits = gen.bit_generator
    fresh = bits.state
    fresh["state"]["counter"] = fresh["state"]["counter"].tolist()
    fresh["buffer"] = fresh["buffer"].tolist()
    key = fresh["state"]["key"] = fresh["state"]["key"].tolist()  # [seed, word] on every row
    words = stream_keys(seed, purpose, lo, len(out))[:, 1].tolist()
    for k, row in enumerate(out[:, None] if out.ndim == 1 else out):
        if k:
            key[1] = words[k]
            bits.state = fresh
        draw(gen, row)
    return out


def _bridge_extremum(x: np.ndarray, y: np.ndarray, dt: float, u: np.ndarray, side,
                     out: np.ndarray | None = None) -> np.ndarray:
    """0.5 * side(x + y, sqrt((y - x)**2 - 2 dt log u)) with two temporaries,
    the second of them ``out`` when given; ``out`` may be ``u`` itself."""
    disc = np.subtract(y, x)
    np.square(disc, out=disc)
    out = np.log(u, out=out)
    out *= 2.0 * dt
    disc -= out
    np.sqrt(disc, out=disc)
    np.add(x, y, out=out)
    side(out, disc, out=out)
    out *= 0.5
    return out


def _bridge_max(x: np.ndarray, y: np.ndarray, dt: float, u: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Exact running-maximum draw of a Brownian bridge from x to y over dt."""
    return _bridge_extremum(x, y, dt, u, np.add, out)


def _bridge_min(x: np.ndarray, y: np.ndarray, dt: float, u: np.ndarray) -> np.ndarray:
    """Exact running-minimum draw of a Bessel(3) bridge from x > 0 to y > 0 over dt.

    It is a Brownian bridge conditioned not to hit 0, so with p0 = exp(-2xy/dt)
    its inverse is the Brownian one with u read as u + p0(1 - u), and every
    draw is above 0.  Where xy >= 20 dt, p0 < e^-40 and the Brownian draw is
    kept: the two laws differ there by less than 5e-18 in total variation.
    The draws are written over ``u``, which is returned.
    """
    near = np.nonzero(np.multiply(x, y) < 20.0 * dt)
    un = u[near]
    u[near] = un + np.exp(-2.0 / dt * x[near] * y[near]) * (1.0 - un)
    return _bridge_extremum(x, y, dt, u, np.subtract, out=u)


def _running_max(path: np.ndarray, sup: np.ndarray, dt: float) -> np.ndarray:
    """Exact running maximum of ``path`` at its grid times over ``sup``, whose
    ``sup[..., 1:]`` holds the steps' bridge uniforms (1 - U); returns ``sup``."""
    sup[..., :1] = path[..., :1]
    _bridge_max(path[..., :-1], path[..., 1:], dt, sup[..., 1:], out=sup[..., 1:])
    np.maximum.accumulate(sup[..., 1:], axis=-1, out=sup[..., 1:])
    return sup


def pitman_from_draws(r0: float, path: np.ndarray, sup: np.ndarray, dt: float) -> np.ndarray:
    """Deterministic kernel of the Pitman construction, in place along the last axis.

    ``path`` holds the j0 uniform, then n normals; ``sup`` an unread entry,
    then n bridge uniforms.  With J0 = r0 * j0_uniform, the auxiliary
    Brownian path B from 2*J0 - r0 goes over ``path``, its continuum running
    supremum, sampled exactly with bridge-maximum draws, over ``sup``, and
    then R = 2*max(J0, sup B) - B over ``sup``, which is returned: R has the
    exact finite-dimensional law of a Bessel(3) process from r0, and
    R >= J0 > 0 pathwise.  A block passes (rows, n + 1) buffers.
    """
    j0 = r0 * path[..., :1]
    path[..., :1] = 2.0 * j0 - r0
    path[..., 1:] *= math.sqrt(dt)
    np.cumsum(path[..., 1:], axis=-1, out=path[..., 1:])
    path[..., 1:] += path[..., :1]
    np.maximum(j0, _running_max(path, sup, dt), out=sup)
    sup *= 2.0
    sup -= path
    return sup
