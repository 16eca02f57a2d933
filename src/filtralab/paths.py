"""Bessel(3) simulation, bridge extrema and per-path reference operations.

The scenarios' block kernels simulate and condition whole blocks of paths;
this module holds what they share and the per-path forms tests compare
against: exact Brownian-bridge extremum draws, the Pitman construction of
a Bessel(3) path, Bessel(3) ensembles (exact or Euler), the future infimum
with its exact post-horizon tail, and the interpolated last level crossing.

Simulation is deterministic per (seed, path index) through counter-based
substreams, so results do not depend on evaluation order across paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalDegeneracyError
from .grids import GridPath, PathEnsemble, TimeGrid
from .rng import substream

__all__ = [
    "ScaleFunction",
    "reciprocal_scale",
    "pitman_from_draws",
    "simulate_bes3",
    "future_infimum",
    "last_level_crossing",
]


@dataclass(frozen=True)
class ScaleFunction:
    """A strictly increasing map e: (0, inf) -> (-inf, 0) with its inverse.

    The default instance ``reciprocal_scale`` is e(z) = -1/z, the scale
    function of the three-dimensional Bessel process.  ``tail_sample``
    inverts the conditional law of the eventual infimum given the current
    value: P[inf <= a | Z = z] = e(z)/e(a), so a = e_inverse(e(z)/u) with
    u uniform on (0, 1).
    """

    e: Callable[[float], float]
    e_inverse: Callable[[float], float]

    def tail_sample(self, z: float, u: float) -> float:
        if z <= 0.0:
            raise DomainError(f"scale functions are defined on (0, inf), got {z}")
        return float(self.e_inverse(self.e(z) / u))


def reciprocal_scale() -> ScaleFunction:
    return ScaleFunction(e=lambda z: -1.0 / z, e_inverse=lambda y: -1.0 / y)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def _bridge_max(x: np.ndarray, y: np.ndarray, dt: float, u: np.ndarray) -> np.ndarray:
    """Exact running-maximum draw of a Brownian bridge from x to y over dt."""
    disc = (y - x) ** 2 - 2.0 * dt * np.log(u)
    return 0.5 * (x + y + np.sqrt(disc))


def _bridge_min(x: np.ndarray, y: np.ndarray, dt: float, u: np.ndarray) -> np.ndarray:
    """Exact running-minimum draw of a Brownian bridge from x to y over dt."""
    disc = (y - x) ** 2 - 2.0 * dt * np.log(u)
    return 0.5 * (x + y - np.sqrt(disc))


def pitman_from_draws(
    r0: float,
    j0_uniform: float,
    normals: np.ndarray,
    bridge_uniforms: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Deterministic kernel of the Pitman construction.

    The eventual infimum level is J0 = r0 * j0_uniform; the auxiliary
    Brownian path starts at 2*J0 - r0 and its continuum running supremum is
    sampled exactly step by step with bridge-maximum draws.  The returned
    path R = 2*max(J0, sup B) - B then has the exact finite-dimensional law
    of a three-dimensional Bessel process from r0, and R >= J0 > 0 pathwise.
    """
    n = len(normals)
    j0 = r0 * j0_uniform
    b = np.empty(n + 1)
    b[0] = 2.0 * j0 - r0
    np.cumsum(normals * math.sqrt(dt), out=b[1:])
    b[1:] += b[0]
    step_max = _bridge_max(b[:-1], b[1:], dt, bridge_uniforms)
    sup = np.empty(n + 1)
    sup[0] = b[0]
    np.maximum.accumulate(step_max, out=sup[1:])
    m = np.maximum(j0, sup)
    return 2.0 * m - b


def simulate_bes3(
    grid: TimeGrid,
    r0: float,
    n_paths: int,
    seed: int,
    method: str = "pitman-construction",
) -> PathEnsemble:
    """Three-dimensional Bessel paths from r0 > 0.

    ``pitman-construction`` is exact in law and strictly positive by
    construction.  ``euler-sde`` integrates dR = dt/R + dW with reflection
    at 0 and is kept as a cross-check oracle; a path whose reflected value
    still touches <= 0 raises ``NumericalDegeneracyError`` instead of being
    clamped.
    """
    if r0 <= 0.0:
        raise DomainError(f"r0 must be > 0, got {r0}")
    if n_paths < 1:
        raise ConfigurationError(f"n_paths must be >= 1, got {n_paths}")
    if method not in ("pitman-construction", "euler-sde"):
        raise ConfigurationError(f"unknown method {method!r}")

    out = np.empty((n_paths, grid.n + 1))
    if method == "pitman-construction":
        for i in range(n_paths):
            g = substream(seed, "bes3", i)
            # uniforms mapped to (0, 1]: log(0) must be unreachable
            j0u = 1.0 - g.uniform()
            z = g.standard_normal(grid.n)
            bu = 1.0 - g.uniform(size=grid.n)
            out[i] = pitman_from_draws(r0, j0u, z, bu, grid.dt)
    else:
        sqdt = math.sqrt(grid.dt)
        bad: list = []
        for i in range(n_paths):
            z = substream(seed, "bes3", i).standard_normal(grid.n)
            r = r0
            out[i, 0] = r0
            for k in range(grid.n):
                r = r + grid.dt / r + sqdt * z[k]
                if r <= 0.0:
                    r = -r  # reflection floor, not a clamp
                    if r <= 0.0:  # reflection could not restore positivity
                        bad.append((i, k + 1))
                out[i, k + 1] = r
        if bad:
            raise NumericalDegeneracyError(
                f"euler-sde stuck at non-positive values at (path, step) {bad[:5]}"
                + ("..." if len(bad) > 5 else "")
            )
    return PathEnsemble(grid, out, seed, tuple(range(n_paths)))


# ---------------------------------------------------------------------------
# pathwise extraction
# ---------------------------------------------------------------------------


def future_infimum(
    path: GridPath,
    scale: ScaleFunction,
    seed: int,
    stream_id: int = 0,
    refine: str = "none",
) -> GridPath:
    """I_t = inf over s >= t of the path, completed past the horizon.

    The post-horizon infimum is a single random variable; it is drawn
    exactly from the conditional law given the terminal value (uniform on
    (0, Z_T) for e(z) = -1/z) and shared by every t, which removes the
    horizon-truncation bias entirely.

    ``refine="bridge-min"`` additionally samples the exact Brownian-bridge
    minimum of every grid step before taking the backward minimum; this
    removes the O(sqrt(dt)) discrete-monitoring bias of the plain
    grid-point minimum and is what the Pitman verification runs use.
    """
    v = path.values
    if np.any(v <= 0.0):
        raise DomainError("future_infimum requires a strictly positive path")
    if refine not in ("none", "bridge-min"):
        raise ConfigurationError(f"unknown refine mode {refine!r}")

    u_tail = 1.0 - float(substream(seed, "inf_tail", stream_id).uniform())
    tail = scale.tail_sample(float(v[-1]), u_tail)

    if refine == "bridge-min":
        u = 1.0 - substream(seed, "bridge_min", stream_id).uniform(size=path.grid.n)
        step_min = _bridge_min(v[:-1], v[1:], path.grid.dt, u)
        ext = np.append(step_min, min(float(v[-1]), tail))
        back = np.minimum.accumulate(ext[::-1])[::-1]
    else:
        back = np.minimum.accumulate(np.minimum(v, tail)[::-1])[::-1]
    return path.with_values(back)


def last_level_crossing(path: GridPath, level: float, horizon: float) -> float:
    """Linearly interpolated time of the last sign change of (path - level).

    Returns 0 when no crossing exists on the grid; callers that need a
    crossing almost surely must check their own nondegeneracy condition.
    """
    times = path.times()
    stop_idx = path.grid.floor_index(horizon)
    f = path.values[: stop_idx + 1] - level
    for k in range(stop_idx, 0, -1):
        a, b = f[k - 1], f[k]
        if b == 0.0:
            return float(times[k])
        if a == 0.0:
            # crossing exactly at the earlier grid point, unless a later one exists
            return float(times[k - 1])
        if (a > 0) != (b > 0):
            return float(times[k - 1] + (times[k] - times[k - 1]) * (-a) / (b - a))
    return 0.0
