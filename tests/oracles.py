"""Per-path reference oracles that the tests compare the package against.

None of these runs in a scenario, and the package keeps no helper that
only they would call: ``last_level_crossing`` is the per-path reference for
the block last-passage kernel, reading its grid times through
``TimeGrid.times`` and ``TimeGrid.index_of``; ``future_inf_piece_system``
feeds one Bessel path with its future infimum to the gluing algorithm, and
``emery_conditional_law_rows`` bins the simulated last passage, tiled
through the driver's tile map (``scenarios._map_tiles``), against its
Azema supermartingale, as the run path evaluates it
(``scenarios._emery_Z_from_y``).  ``elem_integral_per_piece`` is the
elementary integral summed piece by piece, f evaluated at both ends of
every piece.
``draw_rows_per_path`` (a new generator per row) and
``exact_last_passage_full`` (a touch probability on every step) are the
plain forms of ``paths.draw_rows`` and ``scenarios._exact_last_passage``;
patched in, they must leave every report byte-identical.
``pitman_block_allocating`` and ``supremum_block_allocating`` build the
Pitman and supremum blocks with a new matrix for every draw and every
intermediate, as they were built before the kernels drew into the buffers
that consume their draws; the in-place blocks must equal them bit for bit.
"""

import math

import numpy as np

from filtralab import paths, scenarios
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


def _uniforms(seed: int, purpose: str, lo: int, shape) -> np.ndarray:
    """1 - U for each row's uniforms of one purpose, from a new generator per row."""
    u = draw_rows_per_path(np.empty(shape), seed, purpose, lo, lambda gen, row: gen.random(out=row))
    return 1.0 - u


def bridge_min_allocating(x, y, dt, u):
    """``paths._bridge_min`` with u and every near-cell temporary apart from its result."""
    out = paths._bridge_extremum(x, y, dt, u, np.subtract)
    near = np.nonzero(x * y < 20.0 * dt)
    un = u[near] + np.exp(-2.0 / dt * x[near] * y[near]) * (1.0 - u[near])
    out[near] = paths._bridge_extremum(x[near], y[near], dt, un, np.subtract)
    return out


def pitman_block_allocating(cfg: ScenarioConfig, grid: TimeGrid, lo: int, hi: int):
    """(R, I) of paths [lo, hi): the Pitman construction R = 2 max(J0, sup B) - B
    from each path's bes3 draws (j0 uniform, n normals, n bridge uniforms) and
    the backward minimum of the Bessel(3)-bridge step minima and min(R_1, tail)."""
    nb, n = hi - lo, grid.n

    def draw(gen, row):
        gen.random(out=row[:1])
        gen.standard_normal(out=row[1:n + 1])
        gen.random(out=row[n + 1:])

    d = draw_rows_per_path(np.empty((nb, 2 * n + 1)), cfg.seed, "bes3", lo, draw)
    j0 = 1.0 * (1.0 - d[:, :1])  # r0 * (1 - U) with r0 = 1
    b = np.empty((nb, n + 1))
    b[:, :1] = 2.0 * j0 - 1.0
    b[:, 1:] = np.cumsum(d[:, 1:n + 1] * math.sqrt(grid.dt), axis=1) + b[:, :1]
    step_max = paths._bridge_max(b[:, :-1], b[:, 1:], grid.dt, 1.0 - d[:, n + 1:])
    sup = np.concatenate([b[:, :1], np.maximum.accumulate(step_max, axis=1)], axis=1)
    r = 2.0 * np.maximum(j0, sup) - b
    tails = paths.reciprocal_scale().tail_sample(r[:, -1], _uniforms(cfg.seed, "inf_tail", lo, nb))
    u = _uniforms(cfg.seed, "bridge_min", lo, (nb, n))
    ext = np.concatenate(
        [bridge_min_allocating(r[:, :-1], r[:, 1:], grid.dt, u),
         np.minimum(r[:, -1], tails)[:, None]], axis=1)
    return r, np.minimum.accumulate(ext[:, ::-1], axis=1)[:, ::-1]


def supremum_block_allocating(cfg: ScenarioConfig, grid: TimeGrid, lo: int, hi: int):
    """(W, U, Ttimes) of paths [lo, hi): the running supremum from exact step
    maxima and the record times (the midpoint of the next step in which U
    rises), censored ones completed by one post-horizon first-passage draw."""
    nb, n = hi - lo, grid.n
    w = scenarios._brownian_block(grid, cfg.seed, lo, hi)
    step_max = paths._bridge_max(w[:, :-1], w[:, 1:], grid.dt,
                                 _uniforms(cfg.seed, "bridge_min", lo, (nb, n)))
    u = np.concatenate([w[:, :1], np.maximum.accumulate(step_max, axis=1)], axis=1)
    mid = grid.times()[:-1] + 0.5 * grid.dt
    vals = np.where(step_max > u[:, :-1], mid[None, :], math.inf)
    ttimes = np.full_like(w, math.inf)
    ttimes[:, :-1] = np.minimum.accumulate(vals[:, ::-1], axis=1)[:, ::-1]
    z = np.array([substream(cfg.seed, "sup_tail", lo + k).standard_normal() for k in range(nb)])
    t_star = grid.horizon + (u[:, -1] - w[:, -1]) ** 2 / (z * z)
    return w, u, np.where(np.isfinite(ttimes), ttimes, t_star[:, None])


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
    """Linearly interpolated time of the last sign change of (path - level)
    up to ``horizon``, which must be a grid time of the path.

    Returns 0 when no crossing exists on the grid; callers that need a
    crossing almost surely must check their own nondegeneracy condition.
    """
    times = path.grid.times()
    stop_idx = path.grid.index_of(horizon)
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
    """Binned empirical P[t < xi | y in bin] against Z = 1 - h(y) at one time.

    Returns (mean absolute error, rows); the Azema supermartingale is the
    predicted conditional survival probability of the last-passage time.
    """
    ti = cfg.grid().index_of(t_check)

    def tile(ctx):
        return np.abs(ctx.W[:, ti]) / math.sqrt(1.0 - t_check), ctx.xi > t_check

    ys, alive = zip(*scenarios._map_tiles(cfg, _emery_block, tile))  # a run's tiles
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
        pred = float(np.mean(scenarios._emery_Z_from_y(y[sel])))
        errs.append(abs(emp - pred))
        rows.append({"bin": b, "n": n, "empirical": emp, "predicted": pred})
    return float(np.mean(errs)), rows
