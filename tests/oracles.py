"""Per-path reference oracles that the tests compare the package against.

None of these runs in a scenario: ``last_level_crossing`` is the per-path
reference for the block last-passage kernel, ``future_inf_piece_system``
feeds one Bessel path with its future infimum to the gluing algorithm, and
``emery_conditional_law_rows`` bins the simulated last passage against its
Azema supermartingale.  ``elem_integral_per_piece`` is the elementary
integral summed piece by piece, f evaluated at both ends of every piece.
``draw_rows_per_path`` (a new generator per row) and
``exact_last_passage_full`` (a touch probability on every step) are the
plain forms of ``paths.draw_rows`` and ``scenarios._exact_last_passage``;
patched in, they must leave every report byte-identical.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from filtralab import scenarios
from filtralab.drifts import h_func
from filtralab.gluing import PieceSystem, _mask_runs
from filtralab.grids import GridPath, TimeGrid
from filtralab.paths import ScaleFunction
from filtralab.rng import substream
from filtralab.scenarios import ScenarioConfig, _emery_block


def elem_integral_per_piece(h, f, t: float) -> float:
    """sum(d_i * (f(t ^ x_{i+1}) - f(t ^ x_i))) over the pieces with d_i != 0."""
    x, d = h.breakpoints, h.levels
    total = 0.0
    for i, di in enumerate(d):
        if di != 0.0:
            total += di * (f.fn(min(t, x[i + 1])) - f.fn(min(t, x[i])))
    return total


def draw_rows_per_path(out: np.ndarray, seed: int, purpose: str, lo: int, draw) -> np.ndarray:
    """Fill row k of ``out`` by ``draw(substream(seed, purpose, lo + k), row)``; returns ``out``."""
    for k in range(len(out)):
        draw(substream(seed, purpose, lo + k), out[k:k + 1] if out.ndim == 1 else out[k])
    return out


def exact_last_passage_full(values, levels, grid, seed, lo):
    """``scenarios._exact_last_passage`` with the touch probability of every step.

    The uniforms come from ``scenarios._bridge_uniforms``, so a test that
    substitutes them there feeds the kernel and this oracle the same draws.
    """
    f = values - levels[:, None]
    a, b = f[:, :-1], f[:, 1:]
    u = scenarios._bridge_uniforms(seed, lo, *a.shape)
    flip = (a == 0.0) | (b == 0.0) | ((a > 0.0) != (b > 0.0))
    with np.errstate(under="ignore"):
        p_touch = np.exp(-2.0 * np.maximum(a * b, 0.0) / grid.dt)
    visit = flip | (u < p_touch)
    any_row = visit.any(axis=1)
    k = visit.shape[1] - 1 - np.argmax(visit[:, ::-1], axis=1)
    rows = np.arange(len(f))
    a_star, b_star = a[rows, k], b[rows, k]
    times = grid.times()
    t_lo, t_hi = times[k], times[k + 1]
    is_flip = flip[rows, k]
    interp = np.where(
        b_star == 0.0,
        t_hi,
        np.where(
            a_star == 0.0,
            t_lo,
            t_lo + grid.dt * (-a_star) / np.where(b_star != a_star, b_star - a_star, 1.0),
        ),
    )
    out = np.where(is_flip, interp, t_hi)
    return np.where(any_row, out, 0.0)


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


def future_inf_piece_system(
    R: np.ndarray, I: np.ndarray, grid: TimeGrid, scale: ScaleFunction
) -> PieceSystem:
    """Piece system of the future-infimum enlargement on one Bessel path.

    Target is the scale-transformed path, reference the scale-transformed
    future infimum, and the per-piece drift d<e(Z)>/e(Z) is realized
    through squared increments.  The pieces are the maximal grid runs of
    {Z > I}: the closed intervals up to the next infimum increase also
    contain the touch points Z = I, but those form the boundary set that
    carries the local-time mass, and the decomposition identity needs them
    outside the covered set (the continuum statement only determines the
    covered set up to this countable boundary).
    """
    s = scale.e(R)
    s_check = scale.e(I)
    times = grid.times()
    covered = R > I
    intervals = []
    for a, b in _mask_runs(covered):
        intervals.append((float(times[a] - 0.5 * grid.dt), float(times[b])))
    de = np.diff(s)
    chi_inc = de * de / s[:-1]
    return PieceSystem.from_common_drift(
        GridPath(grid, s), GridPath(grid, s_check), intervals, chi_inc
    )


def emery_conditional_law_rows(cfg: ScenarioConfig, t_check: float = 0.5, bins: int = 20):
    """Binned empirical P[t < xi | y in bin] against 1 - h(y) at one time.

    Returns (mean absolute error, rows); the Azema supermartingale is the
    predicted conditional survival probability of the last-passage time.
    """
    grid = cfg.grid()
    ti = grid.index_of(t_check)
    threads = scenarios._tile_threads()
    rows = scenarios._tile_rows(grid, threads)  # a run's tiles

    def tile(lo):
        ctx = _emery_block(cfg, grid, lo, min(lo + rows, cfg.n_paths))
        return np.abs(ctx.W[:, ti]) / math.sqrt(1.0 - t_check), ctx.xi > t_check

    with ThreadPoolExecutor(threads) as pool:
        ys, alive = zip(*pool.map(tile, range(0, cfg.n_paths, rows)))
    y = np.concatenate(ys)
    a = np.concatenate(alive)
    edges = np.quantile(y, np.linspace(0.0, 1.0, bins + 1))
    edges[0] -= 1e-12
    rows = []
    errs = []
    for b in range(bins):
        sel = (y > edges[b]) & (y <= edges[b + 1])
        n = int(sel.sum())
        if n == 0:
            continue
        emp = float(np.mean(a[sel]))
        pred = float(np.mean(1.0 - h_func(y[sel])))
        errs.append(abs(emp - pred))
        rows.append({"bin": b, "n": n, "empirical": emp, "predicted": pred})
    return float(np.mean(errs)), rows
