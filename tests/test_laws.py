"""The laws of the information each conditioning kernel simulates.

Each kernel's own blocks, at dt 1e-2 where grid effects show and at a fixed
seed, against the closed-form marginal law of what it simulates at grid
times.  A proportion must lie within _Z binomial standard errors of its
exact value and a Kolmogorov distance within 1.95/sqrt(n): both bounds have
level 1e-3.  The Bessel(3) moments, at dt 1e-3, must lie within 3 standard
errors.
"""

import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf
from scipy.stats import halfnorm, kstest

from filtralab import scenarios as sc

_N = 50_000  # paths per check at dt 1e-2
_Z = NormalDist().inv_cdf(1.0 - 0.5e-3)


def _columns(scenario, seed, take, n=_N, dt=1e-2, tile=5000):
    """``take(ctx, grid)`` over the paths [0, n) of the scenario's own block,
    built ``tile`` paths at a time."""
    cfg = sc.ScenarioConfig(scenario=scenario, dt=dt, seed=seed)
    build, grid = sc._RECORDS[scenario](cfg).block, cfg.grid()
    parts = [take(build(cfg, grid, lo, min(lo + tile, n)), grid) for lo in range(0, n, tile)]
    return np.concatenate(parts)


def _assert_proportion(hits, p):
    z = (hits.mean() - p) / math.sqrt(p * (1.0 - p) / len(hits))
    assert abs(z) <= _Z, (hits.mean(), p, z)


def test_supremum_block():
    # U_1 ~ |N(0, 1)|; T_t >= t + d, no new maximum on (t, t + d], has
    # probability E[erf((U_t - W_t)/sqrt(2d))] = (2/pi) atan(sqrt(t/d)),
    # as U_t - W_t ~ |N(0, t)|
    cases = [(0.4, 0.45), (0.2, 0.3)]
    cols = _columns("supremum", 9, lambda ctx, grid: np.column_stack(
        [ctx.U[:, -1]] + [ctx.Ttimes[:, grid.index_of(t)] >= end for t, end in cases]))
    assert kstest(cols[:, 0], halfnorm.cdf).statistic <= 1.95 / math.sqrt(_N)
    for k, (t, end) in enumerate(cases, start=1):
        _assert_proportion(cols[:, k], 2.0 / math.pi * math.atan(math.sqrt(t / (end - t))))


def _emery_law(t):
    """P(xi <= t) = E[h(|W_t|/sqrt(1 - t))], with h(y) = erf(y/sqrt 2) -
    sqrt(2/pi) y exp(-y^2/2) and W_t ~ N(0, t), by quadrature."""
    a = math.sqrt(t / (1.0 - t))

    def integrand(x):  # twice h(a x) times the standard normal density, x > 0
        y = a * x
        h = erf(y / math.sqrt(2.0)) - math.sqrt(2.0 / math.pi) * y * math.exp(-0.5 * y * y)
        return 2.0 * h * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    return quad(integrand, 0.0, math.inf, epsabs=0.0, epsrel=1e-12)[0]


@pytest.mark.parametrize(
    "scenario, law",
    [
        # the last zero before 1 follows the arcsine law
        ("honest", lambda s: 2.0 / math.pi * math.asin(math.sqrt(s))),
        # the last passage at W_1/2 before 1
        ("emery-before", _emery_law),
    ],
    ids=["honest-g", "emery-xi"],
)
def test_last_passage_block(scenario, law):
    tau = _columns(scenario, 9, lambda ctx, grid: ctx.tau)
    for s in (0.1, 0.5, 0.9):
        _assert_proportion(tau <= s, law(s))


def test_pitman_block_lower_tail():
    # I_0 is the infimum of the whole path, R_0 times a uniform: P(I_0 < 0.01) = 0.01
    i0 = _columns("pitman", 9, lambda ctx, grid: ctx.I[:, 0])
    _assert_proportion(i0 < 0.01, 0.01)


def test_pitman_block_moments():
    # Bessel(3) from 1: E[R_t] = (1 + t)(2 Phi(1/sqrt t) - 1) + sqrt(2t/pi) e^(-1/(2t))
    # and E[R_t^2] = 1 + 3t
    times = (0.2, 0.4, 0.6, 0.8, 1.0)
    r = _columns("pitman", 21, lambda ctx, grid: ctx.W[:, [grid.index_of(t) for t in times]],
                 n=20_000, dt=1e-3)
    phi = NormalDist().cdf
    for t, rt in zip(times, r.T):
        mean = ((1.0 + t) * (2.0 * phi(1.0 / math.sqrt(t)) - 1.0)
                + math.sqrt(2.0 * t / math.pi) * math.exp(-0.5 / t))
        for x, want in ((rt, mean), (rt * rt, 1.0 + 3.0 * t)):
            assert abs(x.mean() - want) <= 3.0 * x.std(ddof=1) / math.sqrt(len(x)), (t, want)
