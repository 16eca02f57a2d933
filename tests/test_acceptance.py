"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines as
they complete.  Every tolerance is pinned here, nothing is calibrated at
run time.  The statistical criteria use frozen seeds; their thresholds
come from the suite's own Bonferroni rule.
"""

import math
import time

import numpy as np
import pytest

from filtralab import elemint as ei
from filtralab.gluing import boundary_half_local_time, glue, reconstruction_residual
from filtralab.paths import reciprocal_scale
from filtralab.scenarios import ScenarioConfig, random_piece_system, run_scenario
from filtralab.drifts import emery_after_rate
from filtralab.scenarios import Leg, Scenario, _base_functionals, _bridge_block, _drive
from filtralab.scenarios import _emery_block, _pitman_block, _tile_rows
from oracles import emery_conditional_law_rows, future_inf_piece_system


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# deterministic calculus criteria
# ---------------------------------------------------------------------------


def _random_step(rng, a, b, max_pieces=5):
    k = int(rng.integers(1, max_pieces + 1))
    pts = sorted({a, b, *np.round(rng.uniform(a, b, size=k), 9)})
    return ei.LeftStepFunction(tuple(pts), tuple(rng.normal(0.0, 2.0, len(pts) - 1)))


def _random_poly_jump_cadlag(rng, a, b):
    coeffs = rng.normal(0.0, 1.0, size=4)
    n_j = int(rng.integers(0, 4))
    locs = np.round(rng.uniform(a, b, size=n_j), 9)
    sizes = rng.normal(0.0, 1.5, size=n_j)
    jumps = tuple(
        (float(l), float(s)) for l, s in zip(locs, sizes) if a < l <= b and s != 0.0
    )

    def fn(t):
        base = coeffs[0] + coeffs[1] * t + coeffs[2] * t * t + coeffs[3] * t ** 3
        return base + sum(s for loc, s in jumps if loc <= t)

    return ei.CadlagFunction(fn, a, b, jumps)


def _rel_err(x, y):
    return abs(x - y) / max(1.0, abs(x), abs(y))


def test_criterion_1_elementary_integral_properties():
    """Five integral identities on 1000 randomized (h, g, f, c) cases."""
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        a, b = 0.0, float(rng.uniform(1.0, 3.0))
        h = _random_step(rng, a, b)
        g = _random_step(rng, a, b)
        f = _random_poly_jump_cadlag(rng, a, b)
        c = float(rng.uniform(a - 0.3, b + 0.3))
        probes = [t for t in ei.probe_points(h, g, f, extra=[c]) if a < t <= b]

        # (1) representation independence under refinement
        pts, levels = [h.breakpoints[0]], []
        for i, d in enumerate(h.levels):
            mid = 0.5 * (h.breakpoints[i] + h.breakpoints[i + 1])
            pts.extend([mid, h.breakpoints[i + 1]])
            levels.extend([d, d])
        h_ref = ei.LeftStepFunction(tuple(pts), tuple(levels))
        base = ei.elem_integral(h, f)
        refd = ei.elem_integral(h_ref, f)
        worst = max(worst, max((_rel_err(base(t), refd(t)) for t in probes), default=0.0))

        # (2) bilinearity
        alpha, beta = rng.normal(size=2)
        combo = ei.elem_integral(ei.add_steps(h.scaled(alpha), g.scaled(beta)), f)
        ih, ig = ei.elem_integral(h, f), ei.elem_integral(g, f)
        worst = max(
            worst,
            max(
                (_rel_err(combo(t), alpha * ih(t) + beta * ig(t)) for t in probes),
                default=0.0,
            ),
        )

        # (3) composition
        lhs3 = ei.elem_integral(g, ei.elem_integral(h, f))
        rhs3 = ei.elem_integral(ei.mul_steps(g, h), f)
        worst = max(worst, max((_rel_err(lhs3(t), rhs3(t)) for t in probes), default=0.0))

        # (4) stopping commutation
        lhs4 = ei.stop(base, c)
        rhs4 = ei.elem_integral(h, ei.stop(f, c))
        worst = max(worst, max((_rel_err(lhs4(t), rhs4(t)) for t in probes), default=0.0))

        # (5) jumps of the integral
        for loc, size in f.jumps:
            want = h(loc) * size if a < loc <= b else 0.0
            worst = max(worst, _rel_err(ei.jump_of_integral(h, f, loc), want))
    elapsed = time.time() - t0
    _verdict(
        1,
        "elementary-integral identities (1000 cases)",
        worst <= 1e-12 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_union_of_intervals():
    """500 randomized finite coverings reproduce the plain increment exactly."""
    rng = np.random.default_rng(202)
    t0 = time.time()
    worst = 0.0
    for case in range(500):
        a, b = 0.0, float(rng.uniform(1.0, 2.5))
        f = _random_poly_jump_cadlag(rng, a, b)
        cuts = np.sort(rng.uniform(a, b, size=int(rng.integers(1, 5))))
        nodes = [a, *cuts, b]
        intervals = []
        for lo, hi in zip(nodes[:-1], nodes[1:]):
            if case % 3 == 0:
                # butt-joined tiles: every junction is a second-type endpoint
                intervals.append((lo, hi))
            else:
                intervals.append((max(a - 0.1, lo - rng.uniform(0, 0.2)), hi))
        # every third case puts a jump exactly at a junction
        if case % 3 == 0 and len(cuts):
            f = ei.CadlagFunction(
                lambda t, f0=f.fn, j=float(cuts[0]): f0(t) + (2.0 if t >= j else 0.0),
                a, b, f.jumps + ((float(cuts[0]), 2.0),),
            )
        # redundant extra intervals, shuffled enumeration
        for _ in range(int(rng.integers(0, 3))):
            lo = rng.uniform(a, b - 1e-6)
            intervals.append((lo, rng.uniform(lo + 1e-6, b)))
        rng.shuffle(intervals)
        s = ei.LeftIntervalSet(tuple(intervals))
        out = ei.union_integral(s, f, (a, b))
        for t in ei.probe_points(s, f):
            if a < t <= b:
                worst = max(worst, _rel_err(out(t), f(t) - f.fn(a)))
    elapsed = time.time() - t0
    _verdict(
        2,
        "union-of-intervals integral (500 coverings)",
        worst <= 1e-12 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_gluing_reconstruction():
    """200 randomized systems on 1000-point grids glue back exactly."""
    rng = np.random.default_rng(303)
    t0 = time.time()
    worst = 0.0
    ok_structure = True
    for _ in range(200):
        sys_ = random_piece_system(rng, n_steps=1000, dt=1e-3, n_pieces=8)
        dt = sys_.grid.dt
        dec = glue(sys_, [dt, 5 * dt])
        worst = max(worst, float(np.max(np.abs(reconstruction_residual(sys_, dec)))))
        dv_p, dv_m = np.diff(dec.V_plus.values), np.diff(dec.V_minus.values)
        ok_structure &= bool(np.all(dv_p >= 0.0) and np.all(dv_m >= 0.0))
        on_a = dec.A_mask[1:]
        ok_structure &= bool(np.all(dv_p[on_a] == 0.0) and np.all(dv_m[on_a] == 0.0))
        times = sys_.grid.times()
        for eps, rungs in dec.Rn_dRn.items():
            rebuilt = np.zeros_like(dec.A_mask)
            for r, d in rungs:
                rebuilt |= (times > r) & (times <= (d if math.isfinite(d) else np.inf))
            ok_structure &= bool(np.array_equal(rebuilt, dec.A_eps_masks[eps]))
    elapsed = time.time() - t0
    _verdict(
        3,
        "gluing reconstruction (200 systems)",
        worst <= 1e-12 and ok_structure and elapsed < 30.0,
        f"max residual {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Bessel / future-infimum criteria
# ---------------------------------------------------------------------------


def test_criterion_4_future_inf_local_time_bridge():
    """Glued boundary compensator reproduces the infimum transform, 10%."""
    t0 = time.time()
    dt, n_paths, seed = 1e-4, 100, 42
    cfg = ScenarioConfig(scenario="pitman", dt=dt, seed=seed)
    grid = cfg.grid()
    scale = reciprocal_scale()
    ctx = _pitman_block(cfg, grid, 0, n_paths)
    # the plain grid future infimum: backward minimum completed by the exact tail
    back = np.minimum.accumulate(ctx.W[:, ::-1], axis=1)[:, ::-1]
    inf_plain = np.minimum(back, ctx.I[:, -1:])
    rels = []
    glue_ok = True
    for i in range(n_paths):
        path, inf_fine = ctx.W[i], ctx.I[i]
        system = future_inf_piece_system(path, inf_plain[i], grid, scale)
        dec = glue(
            system, [dt], jump_mask=np.zeros(grid.n, dtype=bool), strict=False
        )
        glue_ok &= bool(np.max(np.abs(reconstruction_residual(system, dec))) <= 1e-9)
        # V+ = half the boundary local time (its ladder form is resolution
        # limited on sampled-continuous data; the reflected-bridge estimator
        # on the refined drawdown is the consistent instrument)
        gap = path - inf_fine
        weight = 1.0 / inf_fine[:-1] ** 2
        v_plus = boundary_half_local_time(gap, weight, dt)
        target = scale.e(inf_fine[-1]) - scale.e(inf_fine[0])
        rels.append(abs(v_plus - target) / max(target, 0.05))
    mean_rel = float(np.mean(rels))
    elapsed = time.time() - t0
    _verdict(
        4,
        "infimum local-time bridge (100 Bessel paths)",
        mean_rel <= 0.10 and glue_ok and elapsed < 120.0,
        f"mean rel err {mean_rel:.3f}, {elapsed:.0f}s",
    )


def test_criterion_5_pitman_transform_martingale():
    """2I - R is centred and passes the suite; the raw path fails."""
    t0 = time.time()
    cfg = ScenarioConfig(scenario="pitman", dt=1e-3, n_paths=50_000, seed=1)
    res = run_scenario(cfg)
    level_ok = all(e.passed for e in res.extra_entries)
    zero_row = [e for e in res.extra_entries if e.t == 0.0][0]
    neg = run_scenario(
        ScenarioConfig(scenario="pitman", dt=1e-3, n_paths=20_000, seed=1, no_correction=True)
    )
    elapsed = time.time() - t0
    _verdict(
        5,
        "Pitman transform martingale (n=50000)",
        res.report.passed and level_ok and zero_row.passed
        and not neg.report.passed and elapsed < 300.0,
        f"suite max|z| {res.report.max_abs_z():.2f}, levels max|z| "
        f"{max(abs(e.z) for e in res.extra_entries):.2f}, t=0 z {zero_row.z:+.2f}, "
        f"{elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# Brownian enlargement criteria
# ---------------------------------------------------------------------------


def test_criterion_6_bridge_scenario():
    t0 = time.time()
    good = run_scenario(ScenarioConfig(scenario="bridge", dt=1e-3, n_paths=50_000, seed=1))
    bad = run_scenario(
        ScenarioConfig(scenario="bridge", dt=1e-3, n_paths=50_000, seed=1, no_correction=True)
    )
    elapsed = time.time() - t0
    _verdict(
        6,
        "terminal-value bridge drift (n=50000)",
        good.report.passed and (not bad.report.passed) and bad.report.max_abs_z() > 5.0
        and elapsed < 180.0,
        f"corrected max|z| {good.report.max_abs_z():.2f}, "
        f"uncorrected max|z| {bad.report.max_abs_z():.1f}, {elapsed:.0f}s",
    )


def test_criterion_7_supremum_scenario():
    t0 = time.time()
    good = run_scenario(ScenarioConfig(scenario="supremum", dt=1e-3, n_paths=50_000, seed=1))
    bad = run_scenario(
        ScenarioConfig(scenario="supremum", dt=1e-3, n_paths=50_000, seed=1, no_correction=True)
    )
    elapsed = time.time() - t0
    _verdict(
        7,
        "running-supremum drift (n=50000)",
        good.report.passed and not bad.report.passed and elapsed < 240.0,
        f"corrected max|z| {good.report.max_abs_z():.2f}, "
        f"uncorrected max|z| {bad.report.max_abs_z():.1f}, {elapsed:.0f}s",
    )


def test_criterion_8_emery_scenario():
    t0 = time.time()
    # (a) conditional survival law in bins
    mae, rows = emery_conditional_law_rows(
        ScenarioConfig(scenario="emery-before", dt=1e-3, n_paths=100_000, seed=2),
        t_check=0.5,
        bins=20,
    )
    # (b) after-time drift
    good_after = run_scenario(
        ScenarioConfig(scenario="emery-after", dt=5e-4, n_paths=50_000, seed=2)
    )
    bad_after = run_scenario(
        ScenarioConfig(scenario="emery-after", dt=1e-3, n_paths=50_000, seed=2, no_correction=True)
    )
    # (c) before-time progressive drift
    good_before = run_scenario(
        ScenarioConfig(scenario="emery-before", dt=1e-3, n_paths=50_000, seed=2)
    )
    bad_before = run_scenario(
        ScenarioConfig(scenario="emery-before", dt=1e-3, n_paths=50_000, seed=2, no_correction=True)
    )
    elapsed = time.time() - t0
    _verdict(
        8,
        "last-passage scenario: law, after- and before-drifts",
        mae <= 0.02
        and good_after.report.passed and not bad_after.report.passed
        and good_before.report.passed and not bad_before.report.passed
        and elapsed < 360.0,
        f"law MAE {mae:.4f}, after max|z| {good_after.report.max_abs_z():.2f}, "
        f"before max|z| {good_before.report.max_abs_z():.2f}, {elapsed:.0f}s",
    )


def test_criterion_9_after_drift_integrable():
    """Pathwise integral of the after-time rate stays finite on 10^4 paths."""
    t0 = time.time()
    cfg = ScenarioConfig(scenario="emery-after", dt=1e-3, n_paths=10_000, seed=3)
    grid = cfg.grid()
    t_left = grid.times()[:-1]
    worst = 0.0
    n_done = 0
    tile = _tile_rows(grid, 1)  # one thread's tile of a run
    for lo in range(0, cfg.n_paths, tile):
        hi = min(lo + tile, cfg.n_paths)
        ctx = _emery_block(cfg, grid, lo, hi)
        active = (t_left[None, :] >= ctx.xi[:, None] + 0.01) & (
            t_left[None, :] <= 0.99 - grid.dt
        )
        rows, cols = np.nonzero(active)
        rates = np.zeros_like(active, dtype=float)
        rates[rows, cols] = np.abs(
            emery_after_rate(ctx.W[rows, cols], t_left[cols], ctx.W1[rows])
        )
        integrals = np.sum(rates, axis=1) * grid.dt
        assert np.all(np.isfinite(integrals))
        worst = max(worst, float(np.max(integrals, initial=0.0)))
        n_done += hi - lo
    elapsed = time.time() - t0
    _verdict(
        9,
        "after-drift pathwise integrability (10^4 paths)",
        worst < 1e6 and n_done == 10_000 and elapsed < 60.0,
        f"max integral {worst:.3g}, {elapsed:.0f}s",
    )


def test_criterion_10_honest_time_scenario():
    t0 = time.time()
    good = run_scenario(ScenarioConfig(scenario="honest", dt=5e-4, n_paths=50_000, seed=1))
    bad = run_scenario(
        ScenarioConfig(scenario="honest", dt=1e-3, n_paths=50_000, seed=1, no_correction=True)
    )
    after_fail = any(
        not e.passed for e in bad.report.entries if e.functional.startswith("post|")
    )
    elapsed = time.time() - t0
    _verdict(
        10,
        "honest-time two-sided drift (n=50000)",
        good.report.passed and after_fail and elapsed < 240.0,
        f"corrected max|z| {good.report.max_abs_z():.2f}, "
        f"uncorrected max|z| {bad.report.max_abs_z():.1f}, {elapsed:.0f}s",
    )


def test_criterion_11_null_calibration():
    """Base-filtration Brownian martingale: at most 2 rejections in 100 seeds."""
    t0 = time.time()
    rejections = 0
    # base-filtration null: test W itself with base functionals only
    rec = Scenario(_bridge_block, (Leg(
        "", lambda cfg, ctx: ctx.W, lambda s, t: _base_functionals(),
        ((0.2, 0.4), (0.4, 0.6), (0.6, 0.8)),
    ),))
    for seed in range(100):
        cfg = ScenarioConfig(scenario="bridge", dt=0.01, n_paths=2000, seed=seed)
        rejections += 0 if _drive(cfg, rec).passed else 1
    elapsed = time.time() - t0
    _verdict(
        11,
        "null calibration (100 seeds, Bonferroni 3-sigma)",
        rejections <= 2 and elapsed < 300.0,
        f"{rejections} rejections, {elapsed:.0f}s",
    )
