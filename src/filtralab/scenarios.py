"""End-to-end enlargement experiments.

Each statistical scenario simulates an ensemble in row tiles, builds one or
more candidate martingales (drift-corrected unless the negative control is
requested), evaluates the functional family at the checkpoints, and reduces
everything through shard-safe moment accumulators.  Each one is a
``Scenario`` record in ``_RECORDS``, built per run, and one driver,
``_drive``, runs them all through one tile map, ``_map_tiles``.  Per-path
substreams make every path independent of the schedule, the grid alone
sets a tile's rows, and tiles are reduced where they are built and merged
in path order, so a report depends on its config alone.

Scenario names: bridge, supremum, emery-before, emery-after, honest,
pitman, glue-demo, elemint-check.
"""

from __future__ import annotations

import ctypes
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .drifts import (
    emery_after_rate,
    h_func_prime,
    supremum_instance_rate,
)
from .errors import ConfigurationError
from .grids import GridPath, TimeGrid, cumulative
from .gluing import PieceSystem, glue, reconstruction_residual
from .paths import _bridge_min, _running_max, draw_rows, pitman_from_draws, reciprocal_scale
from .rng import substream  # noqa: F401  (the benchmark's trace table looks it up here)
from .verify import (
    MartingaleTestReport,
    MomentAccumulator,
    SuiteEntry,
    TestFunctional,
    bonferroni_threshold,
    martingale_suite,
)

__all__ = [
    "ScenarioConfig",
    "ScenarioResult",
    "SCENARIOS",
    "run_scenario",
    "random_piece_system",
]

# Space-damping scale for the after-side candidates: the corrected
# increments are weighted by min(1, (distance to the singular set / this)^4),
# a bounded predictable integrand that tames the reciprocal-distance drifts.
_DAMP_SCALE = 0.3
# The after-side candidates integrate only steps ending by this time.
_AFTER_CAP = 0.9
# Bytes of one tile's (paths x grid points) float64 matrices: a tile's rows
# follow from the grid alone, so a report never depends on the thread count.
# With tiles of half this size, `honest` at dt 5e-4 ran about 14 % slower on
# two threads, in per-tile overhead.
_TILE_BYTES = 1 << 20
# Threads a run builds its tiles on, at most: the tiles in flight hold
# _MAX_THREADS * _TILE_BYTES per path matrix.
_MAX_THREADS = 2


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative description of one experiment run."""

    scenario: str
    horizon: float = 1.0
    dt: float = 1e-3
    n_paths: int = 50_000
    seed: int = 1
    delta: float = 0.05
    threshold: float = 3.0
    out_path: str | None = None
    format: str = "csv"
    no_correction: bool = False

    def validated(self) -> "ScenarioConfig":
        if self.scenario not in SCENARIOS:
            raise ConfigurationError(f"unknown scenario {self.scenario!r}")
        if self.format not in ("csv", "json"):
            raise ConfigurationError(f"unknown format {self.format!r}")
        if not (0.0 < self.threshold and bonferroni_threshold(self.threshold, 2) < math.inf):
            raise ConfigurationError(
                "threshold must be > 0 and below about 37.677, where the per-entry "
                f"threshold turns inf; got {self.threshold}"
            )
        if self.out_path == "":
            raise ConfigurationError("the report path must not be empty")
        if not 0 <= self.seed < 1 << 64:
            raise ConfigurationError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.scenario not in _RECORDS:
            return self
        if not (0.0 < self.dt < math.inf and 0.0 < self.horizon < math.inf):
            raise ConfigurationError("dt and horizon must be finite and positive")
        rec = _RECORDS[self.scenario](self)
        if rec.unit_horizon and self.horizon != 1.0:
            raise ConfigurationError(f"the {self.scenario} scenario is defined on horizon 1")
        steps = self.horizon / self.dt
        if (steps + 1) * 8 > np.iinfo(np.intp).max:
            raise ConfigurationError(f"a grid of {steps:g} steps is too large for numpy to index")
        if abs(steps - round(steps)) > 1e-9:
            raise ConfigurationError(
                f"dt = {self.dt} does not divide horizon = {self.horizon}"
            )
        if rec.reads_delta and not self.dt <= self.delta < self.horizon:
            raise ConfigurationError(
                f"delta = {self.delta} must be >= dt = {self.dt} and < horizon = {self.horizon}"
            )
        end = rec.window_end
        if end is not None and self.delta > end - self.dt + 1e-12:
            raise ConfigurationError(
                f"delta = {self.delta} leaves the {self.scenario} correction window "
                f"empty; it must be <= {end:g} - dt = {end - self.dt:g}"
            )
        if self.n_paths < 100:
            raise ConfigurationError(
                f"statistical scenarios need n_paths >= 100, got {self.n_paths}"
            )
        grid = self.grid()
        for t in rec.times():
            try:
                grid.index_of(t)
            except ConfigurationError:
                raise ConfigurationError(
                    f"{self.scenario} checkpoint t = {t:g} is not a multiple of dt = {self.dt:g}; "
                    "dt must divide every checkpoint time of the scenario"
                ) from None
        return self

    def grid(self) -> TimeGrid:
        return TimeGrid(self.dt, round(self.horizon / self.dt))


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    report: MartingaleTestReport
    extra_entries: tuple = ()

    @property
    def passed(self) -> bool:
        return self.report.passed and all(e.passed for e in self.extra_entries)


@dataclass
class BlockContext:
    """Per-block arrays the functionals and candidates read, and nothing else;
    a last-passage block holds its time ``tau``, its per-path ``level`` as a
    column and, between its legs, the ``post_rate`` the pre leg evaluated."""

    times: np.ndarray
    W: np.ndarray
    W1: np.ndarray | None = None
    U: np.ndarray | None = None
    I: np.ndarray | None = None
    Ttimes: np.ndarray | None = None
    tau: np.ndarray | None = None
    level: np.ndarray | None = None
    post_rate: np.ndarray | None = None

    def head(self, last: int) -> "BlockContext":
        """The block on grid columns [0, last]: per-time arrays are cut (as
        views), per-path ones (W1, tau, level) stay whole."""
        cols = ("times", "W", "U", "I", "Ttimes")
        return replace(self, **{
            k: getattr(self, k)[..., :last + 1] for k in cols if getattr(self, k) is not None
        })


class Leg(NamedTuple):
    """One candidate of a scenario and the entries tested on it.

    ``candidate(cfg, ctx)`` is the process matrix of a block, and
    ``functionals(s, t)`` lists the functionals tested on its increment
    over each checkpoint (s, t); entry ids start with ``prefix``.
    """

    prefix: str
    candidate: Callable
    functionals: Callable
    checkpoints: tuple


class Levels(NamedTuple):
    """Per-path values ``values(ctx, ti)`` reduced at each of ``times`` by
    corrected runs, outside the suite: each entry is judged on its own at
    |z| <= 3."""

    id: str
    times: tuple
    values: Callable


class Scenario(NamedTuple):
    """One statistical scenario: ``block(cfg, grid, lo, hi)`` builds the
    BlockContext of paths [lo, hi), and each leg is tested on it.

    ``unit_horizon`` marks a scenario defined on [0, 1] only,
    ``reads_delta`` one whose windows or masks read ``delta`` (only these
    check dt <= delta < horizon), and ``window_end`` the time by which the
    last step of its correction window ends (None: no window rule).
    ``special`` marks a run whose kernels evaluate ``scipy.special`` (the
    corrected runs with a leg stopped at a last passage, whose rate reads
    Z), which no other run imports.
    """

    block: Callable
    legs: tuple
    unit_horizon: bool = False
    reads_delta: bool = False
    window_end: float | None = None
    levels: Levels | None = None
    special: bool = False

    def times(self) -> list:
        """The times whose grid columns a run reads; each must be a grid time."""
        cps = [x for leg in self.legs for st in leg.checkpoints for x in st]
        return cps + list(self.levels.times if self.levels else ())


def _brownian_block(grid: TimeGrid, seed: int, lo: int, hi: int) -> np.ndarray:
    out = np.zeros((hi - lo, grid.n + 1))
    draw_rows(out[:, 1:], seed, "brownian", lo, lambda gen, row: gen.standard_normal(out=row))
    np.cumsum(out[:, 1:], axis=1, out=out[:, 1:])
    out[:, 1:] *= math.sqrt(grid.dt)
    return out


def _bridge_uniforms(seed: int, lo: int, nb: int, n: int, out=None) -> np.ndarray:
    """1 - U for each row's n per-step ``bridge_min`` uniforms, in ``out`` if given."""
    u = np.empty((nb, n)) if out is None else out
    draw_rows(u, seed, "bridge_min", lo, lambda gen, row: gen.random(out=row))
    return np.subtract(1.0, u, out=u)


def _exact_last_passage(
    values: np.ndarray,
    levels: np.ndarray,
    grid: TimeGrid,
    seed: int,
    lo: int,
) -> np.ndarray:
    """Last passage at a level, with within-step touches sampled exactly.

    Grid values only reveal sign flips; a Brownian path also touches the
    level inside a same-side step with the bridge probability
    exp(-2*f_j*f_{j+1}/dt).  Those hidden visits shift the effective
    barrier of the discrete walk by O(sqrt(dt)) and bias every last-passage
    conditioning; drawing them restores the continuum law.  Flip crossings
    are placed by interpolation, sampled touches at the step's right
    endpoint (the position error is O(dt), far below the window trim).
    """
    f = values - levels[:, None]
    ab = f[:, :-1] * f[:, 1:]
    del f
    # Where f_j*f_{j+1} >= 20 dt the touch probability is below
    # e^-40 < 2^-53 <= u, so only steps nearer the level are tested.
    near = np.flatnonzero(ab < 20.0 * grid.dt)
    p_touch = np.exp(-2.0 * np.maximum(ab.ravel()[near], 0.0) / grid.dt)
    visit = ab <= 0.0  # the flips: a product of nonzero O(1) differences never underflows
    del ab  # before the uniforms, which then reuse its memory
    u = _bridge_uniforms(seed, lo, *visit.shape)
    visit.ravel()[near] |= u.ravel()[near] < p_touch
    any_row = visit.any(axis=1)
    k = visit.shape[1] - 1 - np.argmax(visit[:, ::-1], axis=1)
    rows = np.arange(len(values))
    a_star, b_star = values[rows, k] - levels, values[rows, k + 1] - levels
    times = grid.times()
    t_lo, t_hi = times[k], times[k + 1]
    inside = t_lo + grid.dt * (-a_star) / np.where(b_star != a_star, b_star - a_star, 1.0)
    interp = np.where(b_star == 0.0, t_hi, np.where(a_star == 0.0, t_lo, inside))
    out = np.where(a_star * b_star <= 0.0, interp, t_hi)
    return np.where(any_row, out, 0.0)


# ---------------------------------------------------------------------------
# functional catalog and the driver
# ---------------------------------------------------------------------------


def _f_const() -> TestFunctional:
    return TestFunctional("1", lambda ctx, si: np.ones(ctx.W.shape[0]))


def _f_sign_level(c: float) -> TestFunctional:
    return TestFunctional(
        f"sign(W-{c:g})", lambda ctx, si: np.sign(ctx.W[:, si] - c)
    )


def _base_functionals() -> list:
    return [_f_const(), _f_sign_level(-0.5), _f_sign_level(0.0), _f_sign_level(0.5)]


def _tile_threads() -> int:
    """Threads a run builds its tiles on: the CPUs this process may run on,
    but no more than ``_MAX_THREADS``."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity interface on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, _MAX_THREADS)


def _tile_rows(grid: TimeGrid) -> int:
    """Rows of one tile: ``_TILE_BYTES`` per path matrix."""
    return max(1, _TILE_BYTES // (8 * (grid.n + 1)))


try:  # glibc's allocator controls; None under another C library
    _LIBC = ctypes.CDLL(None)
    _LIBC.mallopt.argtypes, _LIBC.mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _LIBC.malloc_trim.argtypes, _LIBC.malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int
    # By default glibc hands freed memory back once its arenas hold about twice
    # its dynamic mmap threshold (a few MiB), so each tile faulted its temporaries
    # in anew; these thresholds, the top of its dynamic range, keep them.  In a tile
    # thread's arena ``malloc_trim`` frees binned chunks' pages, not the top chunk.
    _LIBC.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _LIBC.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
except (AttributeError, OSError, TypeError):
    _LIBC = None


def _map_tiles(cfg: ScenarioConfig, block: Callable, fn: Callable):
    """Yield ``fn(block(cfg, grid, lo, hi))`` for each tile [lo, hi) of the
    run's paths, in path order, and re-raise a tile's error when it is due.

    Tiles of ``_tile_rows(grid)`` paths run on ``_tile_threads()`` threads,
    at most two a thread submitted and not yet consumed, and reuse each
    other's freed memory (``_LIBC``), trimmed at the end.  A block builder
    wrapped from outside (``__wrapped__``, as ``functools.wraps`` and the
    benchmark's trace leave it) runs on one thread: it need not be thread-safe.
    """
    grid = cfg.grid()
    rows = _tile_rows(grid)
    threads = 1 if hasattr(block, "__wrapped__") else _tile_threads()

    def tile(lo: int):
        return fn(block(cfg, grid, lo, min(lo + rows, cfg.n_paths)))

    pending = deque()
    try:
        with ThreadPoolExecutor(threads) as pool:
            for lo in range(0, cfg.n_paths, rows):
                if len(pending) == 2 * threads:
                    yield pending.popleft().result()  # re-raises a tile's error
                pending.append(pool.submit(tile, lo))
            while pending:
                yield pending.popleft().result()
    finally:
        if _LIBC is not None:
            _LIBC.malloc_trim(0)


def _drive(cfg: ScenarioConfig, rec: Scenario) -> ScenarioResult:
    """Run every tile through every leg of ``rec`` and judge one Bonferroni
    suite, plus the record's level entries.

    Kernels work row by row, so a tile's per-path values are those of its
    rows in the whole ensemble; a tile, cut to the last column a leg or
    level reads, reduces them as one (entries x rows) matrix, and the merged
    tiles give every entry at once.  A run is refused if it has no suite entry,
    a non-finite entry, every suite stderr 0, or one of stderr 0 and mean not 0.
    """
    grid = cfg.grid()
    legs = [
        (leg.candidate, [(grid.index_of(s), grid.index_of(t),
                          [((s, t, leg.prefix + f.id), f) for f in leg.functionals(s, t)])
                         for s, t in leg.checkpoints])
        for leg in rec.legs
    ]
    keys = [key for _, idx in legs for *_, fs in idx for key, _ in fs]
    if not keys:
        raise ConfigurationError(f"the {cfg.scenario} run gathered no suite entries")
    level_times = () if rec.levels is None or cfg.no_correction else rec.levels.times
    names = keys + [(0.0, t, rec.levels.id) for t in level_times]
    last = max((grid.index_of(t) for t in rec.times()), default=grid.n)
    if rec.special:
        # Imported here before the tiles start: a first import in a tile thread
        # leaves its memory in that thread's arena (honest-dense, 2-core box,
        # alternating 10 s runs: peak RSS 68.6-69.6 MiB with, 70.4-72.3 without).
        import scipy.special  # noqa: F401

    def reduce_tile(ctx: BlockContext) -> MomentAccumulator:
        ctx = ctx.head(last)
        vals = np.empty((len(names), ctx.W.shape[0]))
        out = iter(vals)
        for candidate, idx in legs:
            x = candidate(cfg, ctx)
            for si, ti, fs in idx:
                inc = x[:, ti] - x[:, si]
                for _, f in fs:
                    np.multiply(inc, f.values(ctx, si), out=next(out))
            del x  # the next candidate is built without this one alive
        for t in level_times:
            next(out)[:] = rec.levels.values(ctx, grid.index_of(t))
        acc = MomentAccumulator()
        acc.add(vals)
        return acc

    total = MomentAccumulator()
    for acc in _map_tiles(cfg, rec.block, reduce_tile):
        total = total.merge(acc)
    mean, stderr, z = (v.tolist() for v in total.stats())
    for (s, t, fid), m, e in zip(names, mean, stderr):
        if not (math.isfinite(m) and math.isfinite(e)):
            raise ConfigurationError(
                f"entry ({s:g}, {t:g}, {fid}): its mean or stderr is not finite")
    if not any(e > 0.0 for e in stderr[:len(keys)]):
        raise ConfigurationError(f"the {cfg.scenario} run tests nothing: every suite stderr is 0")
    for (s, t, fid), m, e in zip(names, mean, stderr):
        if e == 0.0 and m != 0.0:
            raise ConfigurationError(f"entry ({s:g}, {t:g}, {fid}): mean {m:g} with stderr 0 "
                                     "cannot be judged at this config")
    entries = [SuiteEntry(*name, m, e, q, total.n, abs(q) <= 3.0)
               for name, m, e, q in zip(names, mean, stderr, z)]
    suite = martingale_suite(entries[:len(keys)], cfg.threshold)
    return ScenarioResult(cfg.scenario, suite, tuple(entries[len(keys):]))


def _chain(*pts) -> tuple:
    """The checkpoints (p0, p1), (p1, p2), ... of consecutive times."""
    return tuple(zip(pts, pts[1:]))


def _pairs(*pts) -> tuple:
    """Every checkpoint (s, t) with s < t among the times."""
    return tuple((s, t) for s in pts for t in pts if s < t)


# ---------------------------------------------------------------------------
# bridge: initial enlargement with the terminal value
# ---------------------------------------------------------------------------


def _bridge_block(cfg: ScenarioConfig, grid: TimeGrid, lo: int, hi: int) -> BlockContext:
    w = _brownian_block(grid, cfg.seed, lo, hi)
    return BlockContext(grid.times(), w, W1=w[:, -1])


def _bridge_candidate(cfg: ScenarioConfig, ctx: BlockContext) -> np.ndarray:
    """W minus the bridge drift (W1 - W_t)/(1 - t), integrated on (0, 1 - delta].

    The rate is the logarithmic derivative of the Gaussian conditional
    density of the terminal value.
    """
    if cfg.no_correction:
        return ctx.W
    t_left = ctx.times[:-1]
    window = ctx.times[1:] <= 1.0 - cfg.delta + 1e-12
    rate = (ctx.W1[:, None] - ctx.W[:, :-1]) / (1.0 - t_left)[None, :]
    return ctx.W - cumulative(rate * (cfg.dt * window)[None, :])


def _bridge_functionals() -> list:
    return _base_functionals() + [
        TestFunctional("sign(W1-W)", lambda ctx, si: np.sign(ctx.W1 - ctx.W[:, si]))
    ]


# ---------------------------------------------------------------------------
# supremum: initial enlargement with the whole running supremum
# ---------------------------------------------------------------------------


def _supremum_block(cfg: ScenarioConfig, grid: TimeGrid, lo: int, hi: int) -> BlockContext:
    """Brownian block with its continuum running supremum sampled exactly.

    Per-step bridge-maximum draws give the exact joint law of the path and
    its supremum at grid times, which removes the O(sqrt(dt)) downward bias
    of the grid-sampled supremum; record times are resolved to the step
    that contains them (midpoint convention) and censored entries get one
    exact post-horizon first-passage draw, made on every path (U_h > W_h a.s.).
    """
    w = _brownian_block(grid, cfg.seed, lo, hi)
    u = np.empty_like(w)
    _bridge_uniforms(cfg.seed, lo, hi - lo, grid.n, out=u[:, 1:])
    _running_max(w, u, grid.dt)

    rec = u[:, 1:] > u[:, :-1]  # the supremum rises inside this step
    ttimes = np.full_like(w, math.inf)
    np.copyto(ttimes[:, :-1], grid.times()[:-1] + 0.5 * grid.dt, where=rec)
    np.minimum.accumulate(ttimes[:, ::-1], axis=1, out=ttimes[:, ::-1])

    z = draw_rows(np.empty(hi - lo), cfg.seed, "sup_tail", lo,
                  lambda gen, row: row.fill(gen.standard_normal()))
    t_star = grid.horizon + (u[:, -1] - w[:, -1]) ** 2 / (z * z)
    np.copyto(ttimes, t_star[:, None], where=np.isinf(ttimes))
    return BlockContext(grid.times(), w, U=u, Ttimes=ttimes)


def _supremum_candidate(cfg: ScenarioConfig, ctx: BlockContext) -> np.ndarray:
    """The instance M = int (U - W) dW minus its supremum-enlargement drift.

    The generic increment -(1/(U-W)) (1 - (U-W)^2/(T-t)) d<M,W> has the
    gap cancelled against d<M,W> = (U - W) dt; steps starting at a record
    (U = W) contribute 0, as the instance's own increments do there.
    """
    gap = np.subtract(ctx.U[:, :-1], ctx.W[:, :-1])
    inc = np.diff(ctx.W, axis=1)
    inc *= gap
    m = cumulative(inc)
    if cfg.no_correction:
        return m
    # m minus the running sum of rate * dt, in place; tau = T - t goes into inc
    rate = supremum_instance_rate(gap, np.subtract(ctx.Ttimes[:, :-1], ctx.times[:-1], out=inc))
    np.copyto(rate, 0.0, where=gap <= 0.0)
    rate *= cfg.dt
    m[:, 1:] -= np.cumsum(rate, axis=1, out=rate)
    return m


def _supremum_functionals(cfg: ScenarioConfig, t: float) -> list:
    """Functionals masked to paths with no record time before t + delta."""

    def record_free(ctx: BlockContext, si: int) -> np.ndarray:
        return (ctx.Ttimes[:, si] >= t + cfg.delta).astype(float)

    def masked(fn):
        return lambda ctx, si: record_free(ctx, si) * fn(ctx, si)

    def gap(ctx: BlockContext, si: int) -> np.ndarray:
        return ctx.U[:, si] - ctx.W[:, si]

    return [
        TestFunctional("recfree", record_free),
        TestFunctional("recfree*tanh(U)", masked(lambda ctx, si: np.tanh(ctx.U[:, si]))),
        TestFunctional("recfree*tanh(U-W)", masked(lambda ctx, si: np.tanh(gap(ctx, si)))),
        TestFunctional("recfree*ratio", masked(lambda ctx, si: np.minimum(
            1.0, gap(ctx, si) ** 2 / np.maximum(ctx.Ttimes[:, si] - ctx.times[si], 1e-300)))),
    ]


# ---------------------------------------------------------------------------
# progressive enlargement with a last passage: xi at W1/2 (emery), g at 0 (honest)
# ---------------------------------------------------------------------------


def _last_passage_block(cfg, grid, lo, hi, level: Callable) -> BlockContext:
    """Brownian block with its last passage ``tau`` at the per-path level
    ``level(W1)``, which the block keeps as a column."""
    w = _brownian_block(grid, cfg.seed, lo, hi)
    level = level(w[:, -1])
    tau = _exact_last_passage(w, level, grid, cfg.seed, lo)
    return BlockContext(grid.times(), w, W1=w[:, -1], tau=tau, level=level[:, None])


def _emery_block(cfg: ScenarioConfig, grid: TimeGrid, lo: int, hi: int) -> BlockContext:
    return _last_passage_block(cfg, grid, lo, hi, lambda w1: w1 / 2.0)


def _honest_block(cfg: ScenarioConfig, grid: TimeGrid, lo: int, hi: int) -> BlockContext:
    return _last_passage_block(cfg, grid, lo, hi, np.zeros_like)


def _azema_rates(ctx: BlockContext, parts: Callable, after: bool = False) -> np.ndarray:
    """The rate before the last passage, dNdW/max(Z_-, 1e-300) (the two underflow
    together), of the parts ``parts(ctx)`` = (dNdW, Z) at the left endpoints,
    in Z's buffer; with ``after``, the rate after it, -dNdW/max(1 - Z_-,
    1e-300), is left in ``ctx.post_rate`` for the post leg to take."""
    dndw, z = parts(ctx)
    if after:
        post = np.subtract(1.0, z)  # -(dndw / max(1 - z, 1e-300)); negating is exact
        np.negative(np.divide(dndw, np.maximum(post, 1e-300, out=post), out=post), out=post)
        ctx.post_rate = post
    return np.divide(dndw, np.maximum(z, 1e-300, out=z), out=z)


def _stopped_candidate(cfg, ctx, parts, after=False) -> np.ndarray:
    """W stopped at the last passage ``ctx.tau`` at ``ctx.level``, progressively corrected.

    From tau on, the stopped value is the level itself, also where tau is a
    grid time.  The drift rate ``_azema_rates(ctx, parts, after)`` at the
    left endpoints is integrated in place up to tau; the step straddling tau
    picks up the partial contribution rate * (tau - t_k), so the stopped
    process stays unbiased.
    """
    t, tau = ctx.times, ctx.tau
    if cfg.no_correction:
        return np.where(t[None, :] < tau[:, None], ctx.W, ctx.level)
    drift = _azema_rates(ctx, parts, after)
    dt_eff = np.subtract(tau[:, None], t[:-1][None, :])
    drift *= np.clip(dt_eff, 0.0, cfg.dt, out=dt_eff)
    del dt_eff
    drift = cumulative(drift)
    # the stopped process minus the drift, in the drift's buffer
    before = t[None, :] < tau[:, None]
    np.subtract(ctx.W, drift, out=drift, where=before)
    return np.subtract(ctx.level, drift, out=drift, where=np.invert(before, out=before))


def _damped_candidate(cfg, ctx, rate) -> np.ndarray:
    """Damped corrected increments on steps fully inside (tau + delta, cap].

    After the last passage ``ctx.tau`` the drift blows up like the
    reciprocal distance to the avoided ``ctx.level``, so the candidate
    integrates the corrected increments against the bounded predictable
    weight min(1, |W - level|^4 / c^4); under the null any such integral is
    again a martingale, and the weight suppresses the region where a finite
    grid cannot match the continuum compensator.  ``rate(active)`` is the
    drift rate, read on the active steps only; the negative control never
    evaluates it.
    """
    t_left, t_right = ctx.times[:-1], ctx.times[1:]
    active = (t_left[None, :] >= ctx.tau[:, None] + cfg.delta - 1e-12) & (
        t_right[None, :] <= _AFTER_CAP + 1e-12
    )
    inc = np.diff(ctx.W, axis=1)
    if not cfg.no_correction:
        drift = rate(active)
        drift *= cfg.dt
        np.subtract(inc, drift, out=inc, where=active)
        del drift
    # phi = min(1, (|W - level| / c)^4) * active, in place
    phi = np.subtract(ctx.W[:, :-1], ctx.level)
    np.abs(phi, out=phi)
    phi /= _DAMP_SCALE
    np.power(phi, 4, out=phi)
    np.minimum(1.0, phi, out=phi)
    phi *= active
    phi *= inc
    del inc
    return cumulative(phi)


def _before_functionals(name: str) -> list:
    """The base functionals and two indicators of whether the last passage
    tau, ``name`` in the entry ids, has come by the grid time of s."""

    def not_yet(ctx: BlockContext, si: int) -> np.ndarray:
        return (ctx.tau > ctx.times[si]).astype(float)

    return _base_functionals() + [
        TestFunctional(f"1[{name}<=s]", lambda ctx, si: 1.0 - not_yet(ctx, si)),
        TestFunctional(
            f"sign(W)*1[{name}>s]", lambda ctx, si: np.sign(ctx.W[:, si]) * not_yet(ctx, si)
        ),
    ]


def _after_functionals(name: str, cfg: ScenarioConfig, s: float, extra=()) -> list:
    """The indicator that the last passage tau, ``name`` in the entry ids,
    came by s - delta, and this mask times sign(W) and each of ``extra``."""

    def mask(ctx: BlockContext) -> np.ndarray:
        return (ctx.tau <= s - cfg.delta).astype(float)

    sign_w = TestFunctional("sign(W)", lambda ctx, si: np.sign(ctx.W[:, si]))
    return [TestFunctional(f"1[{name}<=s-d]", lambda ctx, si: mask(ctx))] + [
        TestFunctional(f"mask*{f.id}", lambda ctx, si, f=f: mask(ctx) * f.evaluate(ctx, si))
        for f in (sign_w, *extra)
    ]


def _last_passage_record(cfg: ScenarioConfig, block: Callable, name: str,
                         pre: tuple = (), post: tuple = ()) -> Scenario:
    """The scenario on horizon 1 of the last passage tau ``block`` builds,
    ``name`` in its entry ids.  ``pre`` = (candidate, *checkpoints) declares
    a leg stopped at tau, tested on the chain 0.1, 0.3, ..., 0.9 and the
    checkpoints given; ``post`` = (candidate, *functionals) one damped after
    it, tested on the chain 0.3, ..., 0.9 and (0.3, 0.9), the functionals
    given masked.  Only a post leg reads delta and has a correction window,
    and only a corrected pre leg evaluates Z, so ``scipy.special``."""
    both = bool(pre and post)  # then ids start "pre|" and "post|"
    legs = []
    if pre:
        legs.append(Leg("pre|" * both, pre[0], lambda s, t: _before_functionals(name),
                        _chain(0.1, 0.3, 0.5, 0.7, 0.9) + pre[1:]))
    if post:
        legs.append(Leg("post|" * both, post[0],
                        lambda s, t: _after_functionals(name, cfg, s, post[1:]),
                        _chain(0.3, 0.5, 0.7, 0.9) + ((0.3, 0.9),)))
    return Scenario(block, tuple(legs), unit_horizon=True, reads_delta=bool(post),
                    window_end=_AFTER_CAP if post else None,
                    special=bool(pre) and not cfg.no_correction)


def _emery_Z_from_y(y: np.ndarray) -> np.ndarray:
    """erfc(y/sqrt 2) + sqrt(2/pi)*y*exp(-0.5*y*y), in place in two buffers."""
    from scipy.special import erfc

    y = np.asarray(y, dtype=float)
    z = np.multiply(-0.5, y, out=np.empty_like(y))
    z *= y
    s = np.multiply(math.sqrt(2.0 / math.pi), y, out=np.empty_like(y))
    s *= np.exp(z, out=z)
    erfc(np.divide(y, math.sqrt(2.0), out=z), out=z)
    z += s
    return z


def _azema_rate_parts(ctx: BlockContext, k, z_of_y):
    """(dNdW, Z) = (-k(y) sgn(W)/sqrt(1-t), z_of_y(y)), y = |W|/sqrt(1-t), at the
    left endpoints; k runs before Z's buffers exist, and sgn(W) then overwrites y."""
    root = np.sqrt(1.0 - ctx.times[:-1])
    w = ctx.W[:, :-1]
    y = np.abs(w)
    y /= root
    dndw = k(y)
    np.negative(dndw, out=dndw)
    z = z_of_y(y)
    dndw *= np.sign(w, out=y)
    dndw /= root
    return dndw, z


def _emery_rate_parts(ctx: BlockContext):
    """(dNdW, Z) of the half-terminal last passage at the left endpoints.

    Z = 1 - h(|W|/sqrt(1-t)) and dNdW = -h'(|W|/sqrt(1-t)) sgn(W)/sqrt(1-t);
    the kink of |w| at 0 contributes no local time because h'(0) = 0.
    """
    return _azema_rate_parts(ctx, h_func_prime, _emery_Z_from_y)


def _emery_before_candidate(cfg: ScenarioConfig, ctx: BlockContext) -> np.ndarray:
    """Stopped at xi, where W sits at W1/2, and corrected before xi."""
    return _stopped_candidate(cfg, ctx, _emery_rate_parts)


def _emery_after_candidate(cfg: ScenarioConfig, ctx: BlockContext) -> np.ndarray:
    """Damped after xi, with the closed-form rate; the avoided set is W = W1/2."""

    def rate(active):
        out = np.zeros_like(ctx.W[:, :-1])
        rows, cols = np.nonzero(active)
        out[rows, cols] = emery_after_rate(ctx.W[rows, cols], ctx.times[cols], ctx.W1[rows])
        return out

    return _damped_candidate(cfg, ctx, rate)


def _honest_rate_parts(ctx: BlockContext):
    """(dNdW, Z) of the last zero before 1 at the left endpoints.

    Z = erfc(|W|/sqrt(2(1-t))) by the reflection principle, and
    dNdW = -2 phi(|W|/sqrt(1-t)) sgn(W)/sqrt(1-t) with phi the standard
    normal density, its derivative in w.
    """
    from scipy.special import erfc

    def two_phi(y):  # 2 exp(-0.5*y*y)/sqrt(2 pi), in place
        phi = np.multiply(-0.5, y)
        phi *= y
        np.exp(phi, out=phi)
        phi /= math.sqrt(2.0 * math.pi)
        phi *= 2.0
        return phi

    return _azema_rate_parts(ctx, two_phi, lambda y: erfc(z := y / math.sqrt(2.0), out=z))


def _honest_before_candidate(cfg: ScenarioConfig, ctx: BlockContext) -> np.ndarray:
    """Stopped at g, where W sits at 0, and corrected before g; the rate
    after g is left on the block for the post leg."""
    return _stopped_candidate(cfg, ctx, _honest_rate_parts, after=True)


def _honest_after_candidate(cfg: ScenarioConfig, ctx: BlockContext) -> np.ndarray:
    """Damped after g, with the rate -dNdW/(1 - Z_-) the pre leg left; the
    avoided set is W = 0."""

    def rate(active):  # off the block, or it outlives its use (tile peak 3.93, not 3.82)
        rate, ctx.post_rate = ctx.post_rate, None
        return rate

    return _damped_candidate(cfg, ctx, rate)


# ---------------------------------------------------------------------------
# pitman: future-infimum enlargement of the Bessel(3) process
# ---------------------------------------------------------------------------


def _pitman_block(cfg: ScenarioConfig, grid: TimeGrid, lo: int, hi: int) -> BlockContext:
    """Bessel(3) paths R from 1 (in ``W``) with their future infimum I; the
    transform 2I - R is left to the candidate, so a control never builds it.

    The paths come from the Pitman construction, exact in law at the grid
    times.  I is the backward minimum of every step's exact Bessel(3)-bridge
    minimum, completed past the horizon by one exact draw of the eventual
    infimum given the terminal value, so I > 0 on every path.
    """
    nb, n = hi - lo, grid.n
    # one buffer a row: R's n + 1 columns, then the auxiliary path's, which
    # become I; the bes3 stream (j0 uniform, n normals, n bridge uniforms)
    # fills all but the first column
    buf = np.empty((nb, 2 * n + 2))
    sup, path = buf[:, :n + 1], buf[:, n + 1:]

    def draw(gen, row):
        row[n] = 1.0 - gen.random()  # 1 - U, as for every uniform here
        gen.standard_normal(out=row[n + 1:])
        gen.random(out=row[:n])

    draw_rows(buf[:, 1:], cfg.seed, "bes3", lo, draw)
    np.subtract(1.0, sup[:, 1:], out=sup[:, 1:])
    r = pitman_from_draws(1.0, path, sup, grid.dt)
    u_tail = draw_rows(np.empty(nb), cfg.seed, "inf_tail", lo,
                       lambda gen, row: row.fill(gen.random()))
    np.subtract(1.0, u_tail, out=u_tail)
    tails = reciprocal_scale().tail_sample(r[:, -1], u_tail)
    # the step minima, drawn over their uniforms, and min(R_1, tail): I in place
    step_min = _bridge_uniforms(cfg.seed, lo, nb, n, out=path[:, :-1])
    _bridge_min(r[:, :-1], r[:, 1:], grid.dt, step_min)
    np.minimum(r[:, -1], tails, out=path[:, -1])
    np.minimum.accumulate(path[:, ::-1], axis=1, out=path[:, ::-1])
    return BlockContext(grid.times(), r, I=path)


def _pitman_candidate(cfg: ScenarioConfig, ctx: BlockContext) -> np.ndarray:
    """Pitman's 2I - R, twice the future infimum minus the Bessel path; the
    negative control drops the infimum information entirely and is R."""
    if cfg.no_correction:
        return ctx.W
    x = np.multiply(2.0, ctx.I)
    x -= ctx.W
    return x


def _pitman_functionals() -> list:
    return [
        _f_const(),
        TestFunctional("min(I,2)/2", lambda ctx, si: np.minimum(ctx.I[:, si], 2.0) / 2.0),
    ]


def _tenths(h: float) -> tuple:
    """The times h/10, 2h/10, ..., h."""
    return tuple(h * k / 10.0 for k in range(1, 11))


# ---------------------------------------------------------------------------
# deterministic scenarios
# ---------------------------------------------------------------------------


def random_piece_system(
    rng: np.random.Generator,
    n_steps: int = 200,
    dt: float = 0.01,
    n_pieces: int = 6,
) -> PieceSystem:
    """Synthetic jumpy PieceSystem whose support assumption holds by build.

    The reference path is an arbitrary jump path started at 0; the target
    adds a disturbance supported on the covered grid points; piece drifts
    restrict one common increment stream.
    """
    grid = TimeGrid(dt, n_steps)
    times = grid.times()
    intervals = []
    for _ in range(n_pieces):
        a = rng.integers(0, n_steps - 2)
        b = rng.integers(a + 1, n_steps)
        intervals.append((times[a] + dt * 0.5, times[b] + dt * 0.5))
    covered = np.zeros(n_steps + 1, dtype=bool)
    for lo, hi in intervals:
        covered |= (times > lo) & (times <= hi)

    s_check = cumulative(rng.normal(0.0, 1.0, n_steps))
    disturb = np.where(covered, rng.normal(0.0, 1.0, n_steps + 1), 0.0)
    s = s_check + disturb

    inc = rng.normal(0.0, 1.0, n_steps)
    return PieceSystem.from_common_drift(
        GridPath(grid, s), GridPath(grid, s_check), intervals, inc
    )


def _identity_result(
    cfg: ScenarioConfig, name: str, functional: str, worst: float, n_cases: int
) -> ScenarioResult:
    """One entry holding the worst error of n_cases exact-identity checks."""
    entry = SuiteEntry(0.0, 0.0, functional, worst, 0.0, 0.0, n_cases, worst <= 1e-12)
    return ScenarioResult(name, martingale_suite([], cfg.threshold), (entry,))


def run_glue_demo(cfg: ScenarioConfig) -> ScenarioResult:
    """Randomized reconstruction checks on synthetic piece systems."""
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    n_cases = 40
    for _ in range(n_cases):
        system = random_piece_system(rng)
        dec = glue(system, eps_list=[system.grid.dt, 4 * system.grid.dt])
        res = np.max(np.abs(reconstruction_residual(system, dec)))
        worst = max(worst, float(res))
    return _identity_result(cfg, "glue-demo", "glue:max-reconstruction-error", worst, n_cases)


def run_elemint_check(cfg: ScenarioConfig) -> ScenarioResult:
    """Randomized elementary-integral property checks (small, fast): the worst
    residual of the stopping identity (absolute) and of the composition one."""
    from . import elemint as ei

    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    n_cases = 100
    for _ in range(n_cases):
        f, h, g, c = _random_elemint_case(rng)
        lhs = ei.stop(ei.elem_integral(h, f), c)
        rhs = ei.elem_integral(h, ei.stop(f, c))
        for t in ei.probe_points(h, f, extra=[c]):
            if f.a < t <= f.b:
                worst = max(worst, abs(lhs(t) - rhs(t)))
        # composition, g.(h.f) = (gh).f
        lhs = ei.elem_integral(g, ei.elem_integral(h, f))
        rhs = ei.elem_integral(ei.mul_steps(g, h), f)
        for t in ei.probe_points(g, h, f):
            if f.a < t <= f.b:
                u, v = lhs(t), rhs(t)
                worst = max(worst, abs(u - v) / max(1.0, abs(u), abs(v)))
    return _identity_result(cfg, "elemint-check", "elemint:max-property-error", worst, n_cases)


def _random_step_function(rng: np.random.Generator, a: float, b: float):
    from .elemint import LeftStepFunction

    k = int(rng.integers(1, 6))
    inner = np.sort(rng.uniform(a, b, size=k))
    pts = [a] + [float(v) for v in inner if a < v < b] + [b]
    pts = sorted(set(pts))
    levels = rng.normal(0.0, 2.0, size=len(pts) - 1)
    return LeftStepFunction(tuple(pts), tuple(levels))


def _random_cadlag(rng: np.random.Generator, a: float, b: float):
    from .elemint import CadlagFunction

    coeffs = rng.normal(0.0, 1.0, size=3)
    n_jumps = int(rng.integers(0, 4))
    locs = np.sort(rng.uniform(a, b, size=n_jumps))
    sizes = rng.normal(0.0, 1.0, size=n_jumps)
    jumps = tuple((float(l), float(s)) for l, s in zip(locs, sizes) if a < l <= b)

    def fn(t: float) -> float:
        base = coeffs[0] + coeffs[1] * t + coeffs[2] * t * t
        return base + sum(s for l, s in jumps if l <= t)

    return CadlagFunction(fn, a, b, jumps)


def _random_elemint_case(rng: np.random.Generator):
    a, b = 0.0, float(rng.uniform(1.0, 3.0))
    f = _random_cadlag(rng, a, b)
    h = _random_step_function(rng, a, b)
    g = _random_step_function(rng, a, b)
    c = float(rng.uniform(a - 0.5, b + 0.5))
    return f, h, g, c


# The statistical scenarios, one record each.  A record is built when a run
# starts, never at import: its fields then hold the kernels the module's
# globals hold at that time.
_RECORDS = {
    "bridge": lambda cfg: Scenario(
        _bridge_block,
        (Leg("", _bridge_candidate, lambda s, t: _bridge_functionals(),
             _pairs(0.2, 0.4, 0.6, 0.8)),),
        unit_horizon=True,
        reads_delta=True,
        window_end=1.0,
    ),
    "supremum": lambda cfg: Scenario(
        _supremum_block,
        (Leg("", _supremum_candidate, lambda s, t: _supremum_functionals(cfg, t),
             _pairs(*(k * cfg.horizon for k in (0.2, 0.4, 0.6, 0.8)))),),
        reads_delta=True,
    ),
    "emery-before": lambda cfg: _last_passage_record(
        cfg, _emery_block, "xi", pre=(_emery_before_candidate, (0.1, 0.5), (0.5, 0.9))),
    "emery-after": lambda cfg: _last_passage_record(cfg, _emery_block, "xi", post=(
        _emery_after_candidate,
        TestFunctional("sign(W1)", lambda ctx, si: np.sign(ctx.W1)),
        TestFunctional("sign(W-W1/2)", lambda ctx, si: np.sign(ctx.W[:, si] - ctx.level[:, 0])),
    )),
    "honest": lambda cfg: _last_passage_record(
        cfg, _honest_block, "g", pre=(_honest_before_candidate, (0.1, 0.9)),
        post=(_honest_after_candidate,)),
    "pitman": lambda cfg: Scenario(
        _pitman_block,
        (Leg("", _pitman_candidate, lambda s, t: _pitman_functionals(),
             _chain(*_tenths(cfg.horizon))),),
        levels=Levels("level:2I-R", (0.0,) + _tenths(cfg.horizon),
                      lambda ctx, ti: 2.0 * ctx.I[:, ti] - ctx.W[:, ti]),
    ),
}


def _run_statistical(cfg: ScenarioConfig) -> ScenarioResult:
    return _drive(cfg, _RECORDS[cfg.scenario](cfg))


SCENARIOS = {
    **dict.fromkeys(_RECORDS, _run_statistical),
    "glue-demo": run_glue_demo,
    "elemint-check": run_elemint_check,
}


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    cfg = cfg.validated()
    return SCENARIOS[cfg.scenario](cfg)
