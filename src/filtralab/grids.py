"""Uniform time grids and grid-sampled cadlag paths.

Every simulated process and every integral in the package lives on a
``TimeGrid``.  A ``GridPath`` holds one sample path; blocks of paths are
plain paths-by-points matrices on one grid, and ``cumulative`` turns per-step
increments into the running sums that every integral on a grid is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError

__all__ = ["TimeGrid", "GridPath", "cumulative"]

_GRID_TIME_TOL = 1e-9  # a time within this many dt of a grid point is that point


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid k*dt for k = 0..n."""

    dt: float
    n: int

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise ConfigurationError(f"dt must be > 0, got {self.dt}")
        if self.n < 1:
            raise ConfigurationError(f"n must be >= 1, got {self.n}")

    @property
    def horizon(self) -> float:
        return self.n * self.dt

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n + 1)

    def index_of(self, t: float) -> int:
        """Index of the grid point equal to t (within _GRID_TIME_TOL * dt)."""
        x = t / self.dt
        k = round(x) if math.isfinite(x) else -1  # an overflowed t is refused below
        if k < 0 or k > self.n or abs(k * self.dt - t) > _GRID_TIME_TOL * self.dt:
            raise ConfigurationError(f"{t} is not a grid time of {self}")
        return int(k)


@dataclass(frozen=True)
class GridPath:
    """A cadlag process sampled at the points of a uniform grid.

    Between grid points the path is interpreted as constant (step
    convention) unless an operation documents linear interpolation.
    """

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) != self.grid.n + 1:
            raise DataError(
                f"values must have length n+1 = {self.grid.n + 1}, got shape {v.shape}"
            )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def cumulative(increments: np.ndarray) -> np.ndarray:
    """Running sums of per-step increments along the last axis, starting from 0."""
    out = np.empty(increments.shape[:-1] + (increments.shape[-1] + 1,))
    out[..., 0] = 0.0
    np.cumsum(increments, axis=-1, out=out[..., 1:])
    return out
