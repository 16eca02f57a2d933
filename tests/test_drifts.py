"""Drift formulas against hand computations and independent oracles.

The formulas are evaluated by the scenarios' block kernels; hand values
run through them on hand-built one-path BlockContexts.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from filtralab import drifts as D
from filtralab import scenarios as sc
from filtralab.errors import SingularityError
from filtralab.grids import TimeGrid
from filtralab.paths import reciprocal_scale


def _ctx(dt, w, **fields):
    """One-path BlockContext on the grid 0, dt, ..., (len(w) - 1) dt."""
    grid = TimeGrid(dt, len(w) - 1)
    fields = {k: np.array([v], dtype=float) for k, v in fields.items()}
    return sc.BlockContext(grid.times(), np.array([w], dtype=float), **fields)


def _cfg(dt, **kw):
    return sc.ScenarioConfig(scenario="bridge", dt=dt, **kw)


def _drift(candidate, cfg, ctx):
    """Per-step drift a candidate subtracts: its uncorrected minus its
    corrected increments, for the block's single path."""
    raw = candidate(dataclasses.replace(cfg, no_correction=True), ctx)
    return np.diff(raw - candidate(cfg, ctx), axis=1)[0]


def _parts(dndw, z):
    """A rate-parts kernel returning constant hand-given (dNdW, Z)."""

    def parts(ctx):
        shape = ctx.W[:, :-1].shape
        return np.full(shape, dndw), np.full(shape, z)

    return parts


def _stopped(tau, dndw, z):
    """The shared before-candidate, stopped at tau at level 0, with the rate
    dNdW / max(Z, 1e-300) of constant hand-given (dNdW, Z)."""
    return lambda cfg, ctx: sc._stopped_candidate(
        cfg, dataclasses.replace(ctx, tau=np.array([tau]), level=0.0), _parts(dndw, z))


def _hand_parts(monkeypatch, dndw, z, kernel="_honest_rate_parts"):
    """Patch a rate-parts kernel to return constant hand-given (dNdW, Z)."""
    monkeypatch.setattr(sc, kernel, _parts(dndw, z))


def _h_quad(y):
    """h(y) = sqrt(2/pi) * integral_0^y s^2 exp(-s^2/2) ds by quadrature."""
    return quad(lambda s: math.sqrt(2 / math.pi) * s * s * math.exp(-s * s / 2), 0, y)[0]


class TestHFunc:
    """h through the run path's Emery Z = 1 - h(y), ``scenarios._emery_Z_from_y``."""

    def test_h_at_zero_and_infinity(self):
        assert float(sc._emery_Z_from_y(0.0)) == 1.0
        # normalization: integral of s^2 e^{-s^2/2} over (0, inf) is sqrt(pi/2)
        assert _h_quad(50) == pytest.approx(1.0, abs=1e-9)
        assert float(sc._emery_Z_from_y(40.0)) == pytest.approx(0.0, abs=1e-12)

    def test_h_against_quadrature_oracle(self):
        for y in np.linspace(0.0, 6.0, 25):
            assert abs(1.0 - float(sc._emery_Z_from_y(y)) - _h_quad(y)) <= 1e-9

    def test_h_at_one_frozen_value(self):
        z = float(sc._emery_Z_from_y(1.0))
        assert z == pytest.approx(1.0 - 0.1987480430987991, abs=1e-12)

    def test_emery_Z_shape(self):
        # Z = 1 at w = 0, even in w, decreasing in |w|, within [0, 1]; one
        # path per w, constant in time, on the left endpoints t = 0, ..., 0.99
        w = np.linspace(-4.0, 4.0, 101)
        grid = TimeGrid(0.01, 100)
        ctx = sc.BlockContext(grid.times(), np.repeat(w[:, None], grid.n + 1, axis=1))
        _, zs = sc._emery_rate_parts(ctx)
        for z in zs.T:
            assert np.all((0.0 <= z) & (z <= 1.0 + 1e-15))
            assert z[50] == pytest.approx(1.0)
            assert np.allclose(z, z[::-1], atol=1e-14)
            assert np.all(np.diff(z[50:]) <= 1e-15)


class TestBridgeDrift:
    def test_hand_values(self):
        ctx = _ctx(0.5, [0.0, 0.3, 1.0], W1=1.0)
        inc = _drift(sc._bridge_candidate, _cfg(0.5, delta=0.05), ctx)
        # the step over (0.5, 1.0] ends past the window 1 - delta = 0.95: masked
        assert inc[0] == pytest.approx((1.0 - 0.0) / 1.0 * 0.5)
        assert inc[1] == 0.0

    def test_rate_matches_log_density_derivative(self):
        # oracle: finite difference of log q_t(x) in W_t, q = N(W_t, 1-t) density at x=W1
        rng = np.random.default_rng(0)
        for _ in range(100):
            t = rng.uniform(0.0, 0.95)
            wt = rng.normal()
            w1 = rng.normal()
            eps = 1e-6

            def logq(w):
                return -((w1 - w) ** 2) / (2 * (1 - t))

            fd = (logq(wt + eps) - logq(wt - eps)) / (2 * eps)
            rate = (w1 - wt) / (1.0 - t)
            assert abs(fd - rate) <= 1e-6 * max(1.0, abs(rate))

    def test_zero_rate_at_terminal_value(self):
        ctx = _ctx(0.25, [0.0, 1.0, 1.0, 0.5, 1.0], W1=1.0)
        inc = _drift(sc._bridge_candidate, _cfg(0.25), ctx)
        assert inc[1] == 0.0  # W_t = W1 at the left endpoint
        assert inc[0] == pytest.approx(1.0 * 0.25)  # t=0, rate W1


class TestProgressiveDrift:
    def test_immersion_case_zero_drift(self):
        ctx = _ctx(0.1, np.zeros(6))
        inc = _drift(_stopped(0.45, 0.0, 1.0), _cfg(0.1), ctx)
        assert np.all(inc == 0.0)

    def test_rate_is_dndw_over_z(self):
        ctx = _ctx(0.1, np.zeros(5))
        inc = _drift(_stopped(1.0, 0.2, 0.5), _cfg(0.1), ctx)
        assert np.allclose(inc, 0.2 / 0.5 * 0.1)

    def test_partial_step_at_the_random_time(self):
        ctx = _ctx(0.1, np.zeros(5))
        inc = _drift(_stopped(0.25, 0.2, 0.5), _cfg(0.1), ctx)
        assert inc[2] == pytest.approx(0.4 * 0.05)
        assert inc[3] == 0.0

    def test_underflowed_Z_gives_zero_rate(self):
        # far from the level Z and dNdW underflow to 0 together; the kernel
        # reads that as a zero rate, not as 0/0
        ctx = _ctx(0.1, np.zeros(5))
        inc = _drift(_stopped(1.0, 0.0, 0.0), _cfg(0.1), ctx)
        assert np.all(inc == 0.0)

    @pytest.mark.parametrize("kernel, candidate", [
        ("_honest_rate_parts", sc._honest_before_candidate),
        ("_emery_rate_parts", sc._emery_before_candidate),
    ], ids=["honest", "emery-before"])
    def test_underflowed_Z_gives_zero_rate_in_each_run(self, monkeypatch, kernel, candidate):
        # as above, through each run's own before-rate
        _hand_parts(monkeypatch, 0.0, 0.0, kernel)
        ctx = _ctx(0.1, np.zeros(5), tau=1.0, level=0.0)
        assert np.all(_drift(candidate, _cfg(0.1), ctx) == 0.0)

    def test_emery_instance_rate_zero_at_origin_level(self):
        # dNdW = -h'(0) sgn(0)/sqrt(0.5) = 0 at W_t = 0
        dndw, _ = sc._emery_rate_parts(_ctx(0.5, [0.0, 0.3]))
        assert dndw[0, 0] == 0.0


class TestHonestDrift:
    def test_two_sided_rates(self, monkeypatch):
        _hand_parts(monkeypatch, 0.2, 0.5)
        # |W| >= 0.3 everywhere: the after-side damping weight is 1
        ctx = _ctx(0.1, np.full(10, 0.5), tau=0.45, level=0.0)
        cfg = _cfg(0.1, delta=0.1)
        before = _drift(sc._honest_before_candidate, cfg, ctx)
        after = _drift(sc._honest_after_candidate, cfg, ctx)
        # before g: +dNdW/Z = 0.4 per unit time
        assert before[0] == pytest.approx(0.4 * 0.1)
        # partial step into g: rate * (g - t_left)
        assert before[4] == pytest.approx(0.4 * 0.05)
        # after g + delta: -dNdW/(1-Z) = -0.4
        assert after[6] == pytest.approx(-0.4 * 0.1)
        # trimmed neighbourhood contributes nothing
        assert after[5] == 0.0

    def test_zero_dndw_zero_drift(self, monkeypatch):
        _hand_parts(monkeypatch, 0.0, 0.5)
        ctx = _ctx(0.1, np.full(10, 0.5), tau=0.45, level=0.0)
        for candidate in (sc._honest_before_candidate, sc._honest_after_candidate):
            assert np.all(_drift(candidate, _cfg(0.1), ctx) == 0.0)

    def test_honest_Z_against_monte_carlo(self):
        # oracle: P[no zero of W on (t, 1] | W_t = x] by simulation
        rng = np.random.default_rng(12)
        t, x = 0.4, 0.6
        n, steps = 40_000, 600
        dt = (1.0 - t) / steps
        incs = rng.normal(0.0, math.sqrt(dt), size=(n, steps))
        paths = x + np.cumsum(incs, axis=1)
        no_zero = np.all(paths > 0.0, axis=1)
        z_mc = 1.0 - np.mean(no_zero)
        # z of the run path's rate parts, one path at W_t = x on the grid 0, t, 2t
        _, z = sc._honest_rate_parts(_ctx(t, [0.0, x, 0.0]))
        z_formula = float(z[0, 1])
        # discrete monitoring misses some zeros: allow the known O(sqrt(dt)) slack
        assert abs(z_mc - z_formula) <= 4.0 / math.sqrt(n) + 1.3 * math.sqrt(dt)


class TestSupremumDrift:
    """The instance M = int (U - X) dX has d<M,X> = (U - X) dt, so each drift
    increment is the generic rate -(1/(U-X)) (1 - (U-X)^2/(T-t)) times
    (U - X) dt."""

    def _inc(self, u, x, ttime):
        ctx = _ctx(0.01, [x, x], U=[u, u])
        ctx.Ttimes = np.array([[ttime, math.inf]])
        return _drift(sc._supremum_candidate, _cfg(0.01), ctx)[0]

    def test_hand_rate(self):
        # U-X = 0.2, T-t = 0.1: generic rate -3.0
        assert self._inc(0.7, 0.5, 0.1) == pytest.approx(-3.0 * 0.2 * 0.01)

    def test_vanishing_factor(self):
        # (U-X)^2 = T - t: rate 0
        assert self._inc(0.7, 0.5, 0.04) == pytest.approx(0.0, abs=1e-15)

    def test_record_point_cancellation(self):
        # at U = X the instance bracket vanishes and the step contributes 0,
        # while the cancelled rate tends to -1
        assert self._inc(0.5, 0.5, 0.005) == 0.0
        rate = D.supremum_instance_rate(np.array([1e-9]), np.array([0.5]))
        assert rate[0] == pytest.approx(-1.0, abs=1e-12)

    def test_instance_cumulative_drift_bounded(self):
        # the instance correction is bounded even through records
        cfg = sc.ScenarioConfig(scenario="supremum", dt=1e-3, seed=30)
        grid = cfg.grid()
        ctx = sc._supremum_block(cfg, grid, 0, 5)
        for i in range(5):
            gap = ctx.U[i, :-1] - ctx.W[i, :-1]
            tau = np.full(grid.n, 0.25)
            rate = D.supremum_instance_rate(gap, tau)
            assert np.all(np.isfinite(rate))
            assert np.max(np.abs(np.cumsum(rate * grid.dt))) < 10.0


class TestEmeryAfterDrift:
    def test_hand_value(self):
        # t = 0.5, W_t = 0, W1 = 1: rate = 2/(e^{-1} - 1) + 2 = -1.163953...
        val = float(D.emery_after_rate(0.0, 0.5, 1.0))
        assert val == pytest.approx(2.0 / (math.exp(-1.0) - 1.0) + 2.0, abs=1e-12)
        assert val == pytest.approx(-1.163953413738653, abs=1e-9)

    def test_singular_at_half_level(self):
        with pytest.raises(SingularityError):
            D.emery_after_rate(0.5, 0.3, 1.0)

    def test_rate_magnitude_grows_near_level(self):
        vals = [abs(float(D.emery_after_rate(0.5 + d, 0.3, 1.0))) for d in (0.1, 0.01, 0.001)]
        assert vals[0] < vals[1] < vals[2]

    def test_window_masking(self):
        grid = TimeGrid(0.1, 9)
        ctx = _ctx(0.1, np.linspace(0.0, 0.9, 10), W1=0.9, tau=0.3, level=0.45)
        inc = _drift(sc._emery_after_candidate, _cfg(0.1, delta=0.1), ctx)
        t_left = grid.times()[:-1]
        outside = (t_left < 0.4 - 1e-12) | (grid.times()[1:] > 0.9 + 1e-12)
        assert np.all(inc[outside] == 0.0)
        assert np.any(inc != 0.0)


class TestFutureInfDecomposition:
    def test_transform_is_2I_minus_Z(self):
        # the corrected candidate 1/e(Z) - 2/e(I) is 2I - Z for e(z) = -1/z
        cfg = sc.ScenarioConfig(scenario="pitman", dt=0.01, seed=9)
        ctx = sc._pitman_block(cfg, cfg.grid(), 0, 20)
        e = reciprocal_scale().e
        assert np.all((ctx.I > 0.0) & (ctx.I <= ctx.W))
        assert np.allclose(sc._pitman_candidate(cfg, ctx), 1.0 / e(ctx.W) - 2.0 / e(ctx.I))

    def test_initial_pitman_mean_zero(self):
        # E[2 I_0 - Z_0] = 2 (r0/2) - r0 = 0 under the uniform initial-infimum law
        rng = np.random.default_rng(9)
        r0 = 1.0
        i0 = r0 * rng.uniform(size=200_000)
        m = np.mean(2 * i0 - r0)
        se = np.std(2 * i0 - r0, ddof=1) / math.sqrt(len(i0))
        assert abs(m) <= 3 * se


class TestDriftSeriesFiniteness:
    def test_rates_finite_inside_windows(self):
        cfg = sc.ScenarioConfig(scenario="emery-before", dt=1e-3, seed=31)
        ctx = sc._emery_block(cfg, cfg.grid(), 0, 50)
        assert np.all(np.isfinite(sc._bridge_candidate(cfg, ctx)))
        assert np.all(np.isfinite(sc._emery_before_candidate(cfg, ctx)))
