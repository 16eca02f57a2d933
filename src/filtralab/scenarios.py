"""End-to-end enlargement experiments.

Each statistical scenario simulates an ensemble in path blocks, builds one
or more candidate martingales (drift-corrected unless the negative control
is requested), evaluates the functional family at the checkpoints, and
reduces everything through shard-safe moment accumulators.  Each one is a
``Scenario`` record in ``_RECORDS``, built per run, and one driver,
``_drive``, runs them all.  Per-path substreams make the result independent
of the block schedule.

Scenario names: bridge, supremum, emery-before, emery-after, honest,
pitman, glue-demo, elemint-check.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import erfc

from .drifts import (
    emery_after_rate,
    h_func_prime,
    supremum_instance_rate,
)
from .errors import ConfigurationError
from .grids import GridPath, TimeGrid, cumulative
from .gluing import PieceSystem, glue, reconstruction_residual
from .paths import (
    _bridge_min,
    draw_rows,
    euler_bes3_block,
    pitman_from_draws,
    reciprocal_scale,
)
from .rng import substream  # noqa: F401  (the benchmark's trace table looks it up here)
from .verify import (
    MartingaleTestReport,
    MomentAccumulator,
    SuiteEntry,
    TestFunctional,
    martingale_suite,
)

__all__ = [
    "ScenarioConfig",
    "ScenarioResult",
    "SCENARIOS",
    "run_scenario",
    "random_piece_system",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)

# Space-damping scale for the after-side candidates: the corrected
# increments are weighted by min(1, (distance to the singular set / this)^4),
# a bounded predictable integrand that tames the reciprocal-distance drifts.
_DAMP_SCALE = 0.3
# The after-side candidates integrate only steps ending by this time.
_AFTER_CAP = 0.9


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
    block_size: int = 8192
    bes_method: str = "pitman-construction"

    def validated(self) -> "ScenarioConfig":
        if self.scenario not in SCENARIOS:
            raise ConfigurationError(f"unknown scenario {self.scenario!r}")
        if self.format not in ("csv", "json"):
            raise ConfigurationError(f"unknown format {self.format!r}")
        if not 0.0 < self.threshold < math.inf:
            raise ConfigurationError(
                f"threshold must be finite and > 0, got {self.threshold}"
            )
        if self.block_size < 1:
            raise ConfigurationError(f"block_size must be >= 1, got {self.block_size}")
        if self.scenario not in _RECORDS:
            return self
        if not (0.0 < self.dt < math.inf and 0.0 < self.horizon < math.inf):
            raise ConfigurationError("dt and horizon must be finite and positive")
        rec = _RECORDS[self.scenario](self)
        if rec.unit_horizon and self.horizon != 1.0:
            raise ConfigurationError(f"the {self.scenario} scenario is defined on horizon 1")
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ConfigurationError(
                f"dt = {self.dt} does not divide horizon = {self.horizon}"
            )
        if not self.dt <= self.delta < self.horizon:
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
        if self.bes_method not in ("pitman-construction", "euler-sde"):
            raise ConfigurationError(f"unknown bes_method {self.bes_method!r}")
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
        return TimeGrid(0.0, self.dt, round(self.horizon / self.dt))


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
    """Per-block arrays the functionals and candidates read.

    ``rate_parts`` holds drift-rate ingredients that more than one leg of a
    block reads, once the first leg has evaluated them.
    """

    grid: TimeGrid
    times: np.ndarray
    W: np.ndarray
    W1: np.ndarray | None = None
    U: np.ndarray | None = None
    I: np.ndarray | None = None
    Ttimes: np.ndarray | None = None
    xi: np.ndarray | None = None
    g: np.ndarray | None = None
    transform: np.ndarray | None = None
    rate_parts: tuple | None = None

    def head(self, last: int) -> "BlockContext":
        """The block on grid columns [0, last]: per-time arrays are cut (as
        views), per-path ones (W1, xi, g) stay whole."""
        cols = ("times", "W", "U", "I", "Ttimes", "transform")
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

    ``unit_horizon`` marks a scenario defined on [0, 1] only, and
    ``window_end`` the time by which the last step of its correction window
    ends (None: no window rule).
    """

    block: Callable
    legs: tuple
    unit_horizon: bool = False
    window_end: float | None = None
    levels: Levels | None = None

    def times(self) -> list:
        """The times whose grid columns a run reads; each must be a grid time."""
        cps = [x for leg in self.legs for st in leg.checkpoints for x in st]
        return cps + list(self.levels.times if self.levels else ())


def _brownian_block(grid: TimeGrid, seed: int, lo: int, hi: int) -> np.ndarray:
    out = np.zeros((hi - lo, grid.n + 1))
    draw_rows(out[:, 1:], seed, "brownian", lo, lambda gen: gen.standard_normal(grid.n))
    np.cumsum(out[:, 1:], axis=1, out=out[:, 1:])
    out[:, 1:] *= math.sqrt(grid.dt)
    return out


def _bridge_uniforms(seed: int, lo: int, nb: int, n: int) -> np.ndarray:
    """1 - U for the n per-step uniforms of each row's ``bridge_min`` stream."""
    return draw_rows(np.empty((nb, n)), seed, "bridge_min", lo, lambda g: 1.0 - g.uniform(size=n))


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
    zero, pos = f == 0.0, f > 0.0
    flip = zero[:, :-1] | zero[:, 1:] | (pos[:, :-1] != pos[:, 1:])
    ab = f[:, :-1] * f[:, 1:]
    del f, zero, pos
    u = _bridge_uniforms(seed, lo, *ab.shape)
    # Where f_j*f_{j+1} >= 20 dt the touch probability is below
    # e^-40 < 2^-53 <= u, so only steps nearer the level are tested.
    near = np.flatnonzero(ab < 20.0 * grid.dt)
    with np.errstate(under="ignore"):
        p_touch = np.exp(-2.0 * np.maximum(ab.ravel()[near], 0.0) / grid.dt)
    visit = flip.copy()
    visit.ravel()[near] |= u.ravel()[near] < p_touch
    any_row = visit.any(axis=1)
    k = visit.shape[1] - 1 - np.argmax(visit[:, ::-1], axis=1)
    rows = np.arange(len(values))
    a_star, b_star = values[rows, k] - levels, values[rows, k + 1] - levels
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


def _drive(cfg: ScenarioConfig, rec: Scenario) -> ScenarioResult:
    """Run every block through every leg of ``rec`` and reduce into one
    Bonferroni suite, plus the record's level entries.

    Candidates, functionals and levels see the block up to the last column
    any of them reads; no entry reads a later one.  A run that gathers no
    suite entry is refused.
    """
    grid = cfg.grid()
    accs: dict = defaultdict(MomentAccumulator)
    legs = [
        (leg, [(s, t, grid.index_of(s), grid.index_of(t)) for s, t in leg.checkpoints])
        for leg in rec.legs
    ]
    levels = {} if rec.levels is None or cfg.no_correction else {
        t: MomentAccumulator() for t in rec.levels.times
    }
    last = max((grid.index_of(t) for t in rec.times()), default=grid.n)
    for lo in range(0, cfg.n_paths, cfg.block_size):
        ctx = rec.block(cfg, grid, lo, min(lo + cfg.block_size, cfg.n_paths)).head(last)
        for leg, idx in legs:
            x = leg.candidate(cfg, ctx)
            for s, t, si, ti in idx:
                inc = x[:, ti] - x[:, si]
                for f in leg.functionals(s, t):
                    accs[(s, t, leg.prefix + f.id)].add(inc * f.values(ctx, si))
            del x  # the next candidate is built without this one alive
        for t, acc in levels.items():
            acc.add(rec.levels.values(ctx, grid.index_of(t)))
        del ctx  # and the next block without this one
    if not accs:
        raise ConfigurationError(f"the {cfg.scenario} run gathered no suite entries")
    extra = []
    for t, acc in sorted(levels.items()):
        mean, stderr, z = acc.stats()
        extra.append(SuiteEntry(0.0, t, rec.levels.id, mean, stderr, z, acc.n, abs(z) <= 3.0))
    return ScenarioResult(cfg.scenario, martingale_suite(accs, cfg.threshold), tuple(extra))


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
    return BlockContext(grid, grid.times(), w, W1=w[:, -1])


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
    # imported per call, not at the top, so that a wrapper put on
    # paths._bridge_max (the benchmark's per-layer trace) is the one called
    from .paths import _bridge_max

    w = _brownian_block(grid, cfg.seed, lo, hi)
    bu = _bridge_uniforms(cfg.seed, lo, hi - lo, grid.n)
    step_max = _bridge_max(w[:, :-1], w[:, 1:], grid.dt, bu)
    u = np.empty_like(w)
    u[:, 0] = w[:, 0]
    np.maximum.accumulate(step_max, axis=1, out=u[:, 1:])

    rec = step_max > u[:, :-1]  # the supremum rises inside this step
    mid = grid.times()[:-1] + 0.5 * grid.dt
    vals = np.where(rec, mid[None, :], math.inf)
    ttimes = np.empty_like(w)
    ttimes[:, :-1] = np.minimum.accumulate(vals[:, ::-1], axis=1)[:, ::-1]
    ttimes[:, -1] = math.inf

    z = draw_rows(np.empty(hi - lo), cfg.seed, "sup_tail", lo, lambda gen: gen.standard_normal())
    t_star = grid.horizon + (u[:, -1] - w[:, -1]) ** 2 / (z * z)
    ttimes = np.where(np.isfinite(ttimes), ttimes, t_star[:, None])
    return BlockContext(grid, grid.times(), w, U=u, Ttimes=ttimes)


def _supremum_candidate(cfg: ScenarioConfig, ctx: BlockContext) -> np.ndarray:
    """The instance M = int (U - W) dW minus its supremum-enlargement drift.

    The generic increment -(1/(U-W)) (1 - (U-W)^2/(T-t)) d<M,W> has the
    gap cancelled against d<M,W> = (U - W) dt; steps starting at a record
    (U = W) contribute 0, as the instance's own increments do there.
    """
    gap = ctx.U[:, :-1] - ctx.W[:, :-1]
    m = cumulative(gap * np.diff(ctx.W, axis=1))
    if cfg.no_correction:
        return m
    tau = ctx.Ttimes[:, :-1] - ctx.times[:-1][None, :]
    rate = np.where(gap > 0.0, supremum_instance_rate(gap, tau), 0.0)
    return m - cumulative(rate * cfg.dt)


def _supremum_functionals(cfg: ScenarioConfig, t: float) -> list:
    """Functionals masked to paths with no record time before t + delta."""

    def record_free(ctx: BlockContext, si: int) -> np.ndarray:
        return (ctx.Ttimes[:, si] >= t + cfg.delta).astype(float)

    def masked(fn):
        return lambda ctx, si: record_free(ctx, si) * fn(ctx, si)

    return [
        TestFunctional("recfree", record_free),
        TestFunctional("recfree*tanh(U)", masked(lambda ctx, si: np.tanh(ctx.U[:, si]))),
        TestFunctional(
            "recfree*tanh(U-W)",
            masked(lambda ctx, si: np.tanh(ctx.U[:, si] - ctx.W[:, si])),
        ),
        TestFunctional(
            "recfree*ratio",
            masked(
                lambda ctx, si: np.minimum(
                    1.0,
                    (ctx.U[:, si] - ctx.W[:, si]) ** 2
                    / np.maximum(ctx.Ttimes[:, si] - ctx.times[si], 1e-300),
                )
            ),
        ),
    ]


# ---------------------------------------------------------------------------
# progressive enlargement with a last-passage time: the shared kernels
# ---------------------------------------------------------------------------


def _stopped_candidate(cfg, ctx, tau, level, rate_parts) -> np.ndarray:
    """W stopped at the last passage ``tau`` at ``level``, progressively corrected.

    From tau on, the stopped value is the level itself, also where tau is a
    grid time.  The drift rate dNdW/Z_- comes from ``rate_parts(ctx)`` =
    (dNdW, Z) at the left endpoints and is integrated up to tau; the step
    straddling tau picks up the partial contribution rate * (tau - t_k), so
    the stopped process stays unbiased.
    """
    t = ctx.times
    if cfg.no_correction:
        return np.where(t[None, :] < tau[:, None], ctx.W, level)
    dndw, z = rate_parts(ctx)
    # stopped - cumulative(rate * dt_eff), with rate = dNdW / max(Z, 1e-300)
    # (Z and dNdW underflow together), in place and one temporary at a time
    rate = np.maximum(z, 1e-300)
    np.divide(dndw, rate, out=rate)
    dt_eff = np.subtract(tau[:, None], t[:-1][None, :])
    rate *= np.clip(dt_eff, 0.0, cfg.dt, out=dt_eff)
    del dt_eff
    drift = cumulative(rate)
    del rate
    stopped = np.where(t[None, :] < tau[:, None], ctx.W, level)
    return np.subtract(stopped, drift, out=drift)


def _damped_candidate(cfg, ctx, tau, level, rate) -> np.ndarray:
    """Damped corrected increments on steps fully inside (tau + delta, cap].

    After a last passage the drift blows up like the reciprocal distance to
    the avoided ``level``, so the candidate integrates the corrected
    increments against the bounded predictable weight
    min(1, |W - level|^4 / c^4); under the null any such integral is again
    a martingale, and the weight suppresses the region where a finite grid
    cannot match the continuum compensator.  ``rate(active)`` is the drift
    rate, read on the active steps only; the negative control never
    evaluates it.
    """
    t_left, t_right = ctx.times[:-1], ctx.times[1:]
    active = (t_left[None, :] >= tau[:, None] + cfg.delta - 1e-12) & (
        t_right[None, :] <= _AFTER_CAP + 1e-12
    )
    inc = np.diff(ctx.W, axis=1)
    if not cfg.no_correction:
        drift = rate(active)
        drift *= cfg.dt
        np.subtract(inc, drift, out=inc, where=active)
        del drift
    # phi = min(1, (|W - level| / c)^4) * active, in place
    phi = np.subtract(ctx.W[:, :-1], level)
    np.abs(phi, out=phi)
    phi /= _DAMP_SCALE
    np.power(phi, 4, out=phi)
    np.minimum(1.0, phi, out=phi)
    phi *= active
    phi *= inc
    del inc
    return cumulative(phi)


def _before_functionals(field: str) -> list:
    """The base functionals and two indicators of whether the last passage
    ``field`` (xi or g) has come by the grid time of s."""

    def not_yet(ctx: BlockContext, si: int) -> np.ndarray:
        return (getattr(ctx, field) > ctx.times[si]).astype(float)

    return _base_functionals() + [
        TestFunctional(f"1[{field}<=s]", lambda ctx, si: 1.0 - not_yet(ctx, si)),
        TestFunctional(
            f"sign(W)*1[{field}>s]", lambda ctx, si: np.sign(ctx.W[:, si]) * not_yet(ctx, si)
        ),
    ]


def _after_functionals(field: str, cfg: ScenarioConfig, s: float) -> list:
    """Functionals masked to paths whose last passage ``field`` came by
    s - delta; emery's (xi) also read W1 and its avoided level W1/2."""

    def mask(ctx: BlockContext) -> np.ndarray:
        return (getattr(ctx, field) <= s - cfg.delta).astype(float)

    funcs = [
        TestFunctional(f"1[{field}<=s-d]", lambda ctx, si: mask(ctx)),
        TestFunctional("mask*sign(W)", lambda ctx, si: mask(ctx) * np.sign(ctx.W[:, si])),
    ]
    if field == "xi":
        funcs += [
            TestFunctional("mask*sign(W1)", lambda ctx, si: mask(ctx) * np.sign(ctx.W1)),
            TestFunctional(
                "mask*sign(W-W1/2)",
                lambda ctx, si: mask(ctx) * np.sign(ctx.W[:, si] - ctx.W1 / 2.0),
            ),
        ]
    return funcs


# ---------------------------------------------------------------------------
# emery: progressive enlargement with the half-terminal last-passage time
# ---------------------------------------------------------------------------


def _emery_block(cfg: ScenarioConfig, grid: TimeGrid, lo: int, hi: int) -> BlockContext:
    w = _brownian_block(grid, cfg.seed, lo, hi)
    w1 = w[:, -1]
    xi = _exact_last_passage(w, w1 / 2.0, grid, cfg.seed, lo)
    return BlockContext(grid, grid.times(), w, W1=w1, xi=xi)


def _emery_Z_from_y(y: np.ndarray) -> np.ndarray:
    return erfc(y / math.sqrt(2.0)) + math.sqrt(2.0 / math.pi) * y * np.exp(-0.5 * y * y)


def _emery_rate_parts(ctx: BlockContext):
    """(dNdW, Z) of the half-terminal last passage at the left endpoints.

    Z = 1 - h(|W|/sqrt(1-t)) and dNdW = -h'(|W|/sqrt(1-t)) sgn(W)/sqrt(1-t);
    the kink of |w| at 0 contributes no local time because h'(0) = 0.
    """
    root = np.sqrt(1.0 - ctx.times[:-1])
    w = ctx.W[:, :-1]
    y = np.abs(w) / root[None, :]
    return -h_func_prime(y) * np.sign(w) / root[None, :], _emery_Z_from_y(y)


def _emery_before_candidate(cfg: ScenarioConfig, ctx: BlockContext) -> np.ndarray:
    """Stopped at xi, where W sits at W1/2, and corrected before xi."""
    return _stopped_candidate(cfg, ctx, ctx.xi, (ctx.W1 / 2.0)[:, None], _emery_rate_parts)


def _emery_after_candidate(cfg: ScenarioConfig, ctx: BlockContext) -> np.ndarray:
    """Damped after xi, with the closed-form rate; the avoided set is W = W1/2."""

    def rate(active):
        out = np.zeros_like(ctx.W[:, :-1])
        rows, cols = np.nonzero(active)
        out[rows, cols] = emery_after_rate(ctx.W[rows, cols], ctx.times[cols], ctx.W1[rows])
        return out

    return _damped_candidate(cfg, ctx, ctx.xi, (ctx.W1 / 2.0)[:, None], rate)


# ---------------------------------------------------------------------------
# honest: progressive enlargement with the last zero before 1
# ---------------------------------------------------------------------------


def _honest_block(cfg: ScenarioConfig, grid: TimeGrid, lo: int, hi: int) -> BlockContext:
    w = _brownian_block(grid, cfg.seed, lo, hi)
    g = _exact_last_passage(w, np.zeros(hi - lo), grid, cfg.seed, lo)
    return BlockContext(grid, grid.times(), w, W1=w[:, -1], g=g)


def _honest_rate_parts(ctx: BlockContext):
    """(dNdW, Z) of the last zero before 1 at the left endpoints.

    Z = erfc(|W|/sqrt(2(1-t))) by the reflection principle, and
    dNdW = -2 phi(|W|/sqrt(1-t)) sgn(W)/sqrt(1-t) with phi the standard
    normal density, its derivative in w.
    """
    root = np.sqrt(1.0 - ctx.times[:-1])
    w = ctx.W[:, :-1]
    # y = |w|/root, z = erfc(y/sqrt 2), phi = exp(-0.5*y*y)/sqrt(2 pi) and
    # dndw = -2*phi*sign(w)/root, computed in place
    y = np.abs(w)
    y /= root
    z = np.divide(y, math.sqrt(2.0))
    erfc(z, out=z)
    dndw = np.multiply(-0.5, y)
    dndw *= y
    np.exp(dndw, out=dndw)
    dndw /= _SQRT2PI
    dndw *= -2.0
    dndw *= np.sign(w, out=y)
    dndw /= root
    return dndw, z


def _honest_shared_parts(ctx: BlockContext):
    """``_honest_rate_parts`` of the block, evaluated once for both legs."""
    if ctx.rate_parts is None:
        ctx.rate_parts = _honest_rate_parts(ctx)
    return ctx.rate_parts


def _honest_before_candidate(cfg: ScenarioConfig, ctx: BlockContext) -> np.ndarray:
    """Stopped at g, where W sits at 0, and corrected before g."""
    return _stopped_candidate(cfg, ctx, ctx.g, 0.0, _honest_shared_parts)


def _honest_after_candidate(cfg: ScenarioConfig, ctx: BlockContext) -> np.ndarray:
    """Damped after g, with rate -dNdW/(1 - Z_-); the avoided set is W = 0."""

    def rate(active):
        # -dndw / max(1 - z, 1e-300) in place; negating the quotient is exact
        dndw, z = _honest_shared_parts(ctx)
        out = np.subtract(1.0, z)
        np.maximum(out, 1e-300, out=out)
        np.divide(dndw, out, out=out)
        return np.negative(out, out=out)

    return _damped_candidate(cfg, ctx, ctx.g, 0.0, rate)


# ---------------------------------------------------------------------------
# pitman: future-infimum enlargement of the Bessel(3) process
# ---------------------------------------------------------------------------


def _pitman_block(cfg: ScenarioConfig, grid: TimeGrid, lo: int, hi: int) -> BlockContext:
    """Bessel(3) paths from 1 with their future infimum I and the transform 2I - R.

    The paths come from the Pitman construction (exact in law) or the
    reflecting Euler kernel.  I is the backward minimum of every step's
    exact bridge minimum, completed past the horizon by one exact draw of
    the eventual infimum given the terminal value.
    """
    nb, n = hi - lo, grid.n
    if cfg.bes_method == "pitman-construction":
        # one row of the bes3 stream: j0 uniform, n normals, n bridge uniforms
        d = draw_rows(np.empty((nb, 2 * n + 1)), cfg.seed, "bes3", lo, lambda gen: np.concatenate(
            ([1.0 - gen.uniform()], gen.standard_normal(n), 1.0 - gen.uniform(size=n))))
        r = pitman_from_draws(1.0, d[:, 0], d[:, 1:n + 1], d[:, n + 1:], grid.dt)
        del d  # the draws go before the future infimum's temporaries: same peak RSS
    else:
        r = euler_bes3_block(grid, cfg.seed, lo, hi)

    u_tail = draw_rows(np.empty(nb), cfg.seed, "inf_tail", lo, lambda gen: 1.0 - gen.uniform())
    tails = reciprocal_scale().tail_sample(r[:, -1], u_tail)
    step_min = _bridge_min(r[:, :-1], r[:, 1:], grid.dt, _bridge_uniforms(cfg.seed, lo, nb, n))
    ext = np.concatenate([step_min, np.minimum(r[:, -1], tails)[:, None]], axis=1)
    inf_path = np.minimum.accumulate(ext[:, ::-1], axis=1)[:, ::-1]
    return BlockContext(grid, grid.times(), r, I=inf_path, transform=2.0 * inf_path - r)


def _pitman_candidate(cfg: ScenarioConfig, ctx: BlockContext) -> np.ndarray:
    """Twice the future infimum minus the Bessel path; the negative control
    drops the infimum information entirely."""
    return ctx.W if cfg.no_correction else ctx.transform


def _pitman_functionals() -> list:
    return [
        _f_const(),
        TestFunctional("min(I,2)/2", lambda ctx, si: np.minimum(ctx.I[:, si], 2.0) / 2.0),
    ]


def _tenths(h: float) -> tuple:
    """The times h/10, 2h/10, ..., h."""
    return tuple(round(h * k / 10.0, 12) for k in range(1, 11))


# ---------------------------------------------------------------------------
# deterministic scenarios
# ---------------------------------------------------------------------------


def random_piece_system(
    rng: np.random.Generator,
    n_steps: int = 200,
    dt: float = 0.01,
    n_pieces: int = 6,
    jump_scale: float = 1.0,
    conflicting: bool = False,
) -> PieceSystem:
    """Synthetic jumpy PieceSystem whose support assumption holds by build.

    The reference path is an arbitrary jump path started at 0; the target
    adds a disturbance supported on the covered grid points; piece drifts
    restrict one common increment stream, or two clashing ones when
    ``conflicting`` is set.
    """
    grid = TimeGrid(0.0, dt, n_steps)
    times = grid.times()
    intervals = []
    for _ in range(n_pieces):
        a = rng.integers(0, n_steps - 2)
        b = rng.integers(a + 1, n_steps)
        intervals.append((times[a] + dt * 0.5, times[b] + dt * 0.5))
    covered = np.zeros(n_steps + 1, dtype=bool)
    for lo, hi in intervals:
        covered |= (times > lo) & (times <= hi)

    s_check = cumulative(rng.normal(0.0, jump_scale, n_steps))
    disturb = np.where(covered, rng.normal(0.0, jump_scale, n_steps + 1), 0.0)
    s = s_check + disturb

    inc = rng.normal(0.0, jump_scale, n_steps)
    system = PieceSystem.from_common_drift(
        GridPath(grid, s), GridPath(grid, s_check), intervals, inc
    )
    if conflicting and len(system.pieces) >= 2:
        p0 = system.pieces[0]
        # overlap the first interval with itself but carry a different drift
        clash = PieceSystem.from_common_drift(
            GridPath(grid, s), GridPath(grid, s_check), [(p0.T, p0.U)], inc + 1.0
        ).pieces[0]
        system = PieceSystem(system.S, system.S_check, system.pieces + (clash,))
    return system


def _identity_result(
    cfg: ScenarioConfig, name: str, functional: str, worst: float, n_cases: int
) -> ScenarioResult:
    """One entry holding the worst error of n_cases exact-identity checks."""
    entry = SuiteEntry(0.0, 0.0, functional, worst, 0.0, 0.0, n_cases, worst <= 1e-12)
    return ScenarioResult(name, martingale_suite({}, cfg.threshold), (entry,))


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
    """Randomized elementary-integral property checks (small, fast)."""
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
        if not ei.check_composition(g, h, f):
            worst = max(worst, 1.0)
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
        window_end=1.0,
    ),
    "supremum": lambda cfg: Scenario(
        _supremum_block,
        (Leg("", _supremum_candidate, lambda s, t: _supremum_functionals(cfg, t),
             _pairs(*(k * cfg.horizon for k in (0.2, 0.4, 0.6, 0.8)))),),
    ),
    "emery-before": lambda cfg: Scenario(
        _emery_block,
        (Leg("", _emery_before_candidate, lambda s, t: _before_functionals("xi"),
             _chain(0.1, 0.3, 0.5, 0.7, 0.9) + ((0.1, 0.5), (0.5, 0.9))),),
        unit_horizon=True,
    ),
    "emery-after": lambda cfg: Scenario(
        _emery_block,
        (Leg("", _emery_after_candidate, lambda s, t: _after_functionals("xi", cfg, s),
             _chain(0.3, 0.5, 0.7, 0.9) + ((0.3, 0.9),)),),
        unit_horizon=True,
        window_end=_AFTER_CAP,
    ),
    "honest": lambda cfg: Scenario(
        _honest_block,
        (Leg("pre|", _honest_before_candidate, lambda s, t: _before_functionals("g"),
             _chain(0.1, 0.3, 0.5, 0.7, 0.9) + ((0.1, 0.9),)),
         Leg("post|", _honest_after_candidate, lambda s, t: _after_functionals("g", cfg, s),
             _chain(0.3, 0.5, 0.7, 0.9) + ((0.3, 0.9),))),
        unit_horizon=True,
        window_end=_AFTER_CAP,
    ),
    "pitman": lambda cfg: Scenario(
        _pitman_block,
        (Leg("", _pitman_candidate, lambda s, t: _pitman_functionals(),
             _chain(*_tenths(cfg.horizon))),),
        levels=Levels("level:2I-R", (0.0,) + _tenths(cfg.horizon),
                      lambda ctx, ti: ctx.transform[:, ti]),
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
