"""Scenario layer: config validation, block kernels, candidate consistency."""

import importlib
import math
import os
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from filtralab.errors import ConfigurationError
from filtralab.grids import GridPath, TimeGrid
from filtralab.cli import emit_report
from filtralab.rng import substream
from filtralab import paths as P
from filtralab import scenarios as sc
from filtralab.verify import TestFunctional
from oracles import (
    draw_rows_per_path,
    exact_last_passage_full,
    future_inf_piece_system,
    last_level_crossing,
)


def _dZ_dw(Z, w, t, eps=1e-6):
    """Central finite difference of an Azema supermartingale in w."""
    return (Z(w + eps, t) - Z(w - eps, t)) / (2.0 * eps)


@np.vectorize
def _emery_Z_quad(w, t):
    """Emery's Z = 1 - h(|w|/sqrt(1-t)) by quadrature of h's defining
    integrand over (y, inf), which stays positive where 1 - h rounds to 0."""
    y = abs(w) / math.sqrt(1.0 - t)
    z, _ = quad(lambda s: math.sqrt(2 / math.pi) * s * s * math.exp(-s * s / 2), y, math.inf,
                epsabs=0.0, epsrel=1e-13)
    return z


@np.vectorize
def _honest_Z_reflection(w, t):
    """Honest Z = P[a zero in (t, 1] | W_t = w] = 2 P[N < -|w|/sqrt(1-t)],
    by the reflection principle."""
    return 2.0 * NormalDist().cdf(-abs(w) / math.sqrt(1.0 - t))


def _walks(seed, n_paths, n_steps, scale=0.2):
    rng = np.random.default_rng(seed)
    vals = np.cumsum(rng.normal(0.0, scale, size=(n_paths, n_steps + 1)), axis=1)
    vals[:, 0] = 0.0
    return vals


class TestScenarioConfig:
    def test_dt_divides_horizon(self):
        with pytest.raises(ConfigurationError):
            sc.ScenarioConfig(scenario="bridge", dt=0.0007).validated()

    def test_delta_at_least_dt(self):
        with pytest.raises(ConfigurationError):
            sc.ScenarioConfig(scenario="bridge", dt=0.01, delta=0.001).validated()

    def test_min_paths_statistical_only(self):
        with pytest.raises(ConfigurationError):
            sc.ScenarioConfig(scenario="pitman", n_paths=10).validated()
        sc.ScenarioConfig(scenario="elemint-check", n_paths=1).validated()

    def test_unknown_scenario(self):
        with pytest.raises(ConfigurationError):
            sc.ScenarioConfig(scenario="mystery").validated()

    # Extreme floats, mixed with values near the valid ranges so that the
    # later rules (divisibility, delta, checkpoints) are reached too.
    @settings(max_examples=400, deadline=None)
    # pitman's checkpoints h*k/10 overflow to inf where h/dt does not
    @example("pitman", 1e308, 1.0, 1.0, 3.0, 100)
    @given(
        scenario=st.sampled_from(sorted(sc._RECORDS)),
        horizon=st.one_of(st.floats(), st.sampled_from([1.0, 2.0, 1e300, 1e308])),
        dt=st.one_of(st.floats(), st.sampled_from([1e-3, 0.01, 0.5, 1.0, 1e-300, 5e-324])),
        delta=st.one_of(st.floats(), st.sampled_from([0.01, 0.05, 1.0, 1e300])),
        threshold=st.floats(),
        n_paths=st.integers(max_value=10**30),
    )
    def test_validated_returns_or_refuses(self, scenario, horizon, dt, delta, threshold, n_paths):
        # runs no scenario: validation alone, which ends in a config or a refusal
        cfg = sc.ScenarioConfig(scenario=scenario, horizon=horizon, dt=dt, delta=delta,
                                threshold=threshold, n_paths=n_paths)
        try:
            assert cfg.validated() is cfg
        except ConfigurationError:
            pass


class TestBlockKernels:
    def test_brownian_block_matches_simulate(self):
        # each row is its own path's substream, summed and scaled
        grid = TimeGrid(0.01, 50)
        block = sc._brownian_block(grid, 13, 2, 5)
        for i in range(2, 5):
            z = substream(13, "brownian", i).standard_normal(grid.n)
            want = np.concatenate([[0.0], np.cumsum(z) * math.sqrt(grid.dt)])
            assert np.allclose(block[i - 2], want, atol=1e-15)

    def test_exact_last_passage_matches_scalar_op_without_touches(self):
        # every grid value at least 1 away from the level: a same-side step
        # touches with probability below exp(-40), so only flips count
        grid = TimeGrid(0.05, 20)
        rng = np.random.default_rng(3)
        levels = rng.normal(0.0, 0.3, size=40)
        sides = rng.choice([-1.0, 1.0], size=(40, 21), p=[0.3, 0.7])
        vals = levels[:, None] + sides * (1.0 + rng.exponential(size=(40, 21)))
        out = sc._exact_last_passage(vals, levels, grid, seed=3, lo=0)
        for i in range(40):
            want = last_level_crossing(GridPath(grid, vals[i]), levels[i], 1.0)
            assert out[i] == pytest.approx(want, abs=1e-12)

    def test_exact_last_passage_never_earlier_than_flips(self):
        grid = TimeGrid(0.05, 20)
        vals = _walks(4, 60, 20)
        exact = sc._exact_last_passage(vals, np.zeros(60), grid, seed=4, lo=0)
        for i in range(60):
            flip = last_level_crossing(GridPath(grid, vals[i]), 0.0, 1.0)
            assert exact[i] >= flip - 1e-12

    def test_exact_last_passage_matches_full_matrix_oracle(self, monkeypatch):
        # adversarial blocks, on half the steps with the smallest 1 - U there is
        # (2^-53, where a touch is likeliest): grid values exactly at the level,
        # and same-side steps whose a*b sits at, just below and just above 20*dt
        grid = TimeGrid(0.01, 40)
        cut = 20.0 * grid.dt
        rng = np.random.default_rng(11)
        levels = np.where(np.arange(300) < 150, 0.0, rng.normal(0.0, 0.5, 300))
        root = math.sqrt(cut)
        sizes = np.array([0.5, 2.0 * cut, root, 0.95 * root, 0.99 * root, 1.01 * root])
        f = rng.choice(sizes, size=(300, 41)) * rng.choice([-1.0, 1.0], size=(300, 1))
        f[rng.random(f.shape) < 0.05] = 0.0
        f[-50:] = rng.normal(0.0, 0.3, size=(50, 41))  # walks that flip
        vals = levels[:, None] + f
        g = vals - levels[:, None]
        ab = g[:, :-1] * g[:, 1:]
        assert np.any(ab == cut) and np.any((ab > 0.9 * cut) & (ab < cut))
        assert np.any(vals == levels[:, None])

        def uniforms(u):
            monkeypatch.setattr(sc, "_bridge_uniforms", lambda seed, lo, nb, n: u.copy())

        uniforms(np.ones((300, 40)))
        no_touch = exact_last_passage_full(vals, levels, grid, seed=0, lo=0)
        uniforms(np.where(rng.random((300, 40)) < 0.5, 2.0**-53, 1.0 - rng.random((300, 40))))
        want = exact_last_passage_full(vals, levels, grid, seed=0, lo=0)
        assert np.any(want != no_touch)
        assert np.array_equal(sc._exact_last_passage(vals, levels, grid, seed=0, lo=0), want)

    @pytest.mark.parametrize("dt", [1e-2, 1e-3])
    def test_supremum_record_times_follow_each_left_endpoint(self, dt):
        # tau = T - t_k > 0 on every step, so the supremum instance rate
        # needs no guard: T is a step midpoint at or after k, or past the horizon
        for seed in (1, 2, 3):
            cfg = sc.ScenarioConfig(scenario="supremum", dt=dt, seed=seed)
            ctx = sc._supremum_block(cfg, cfg.grid(), 0, 1000)
            assert (ctx.Ttimes[:, :-1] > ctx.times[:-1]).all()

    def test_exact_last_passage_deterministic(self):
        grid = TimeGrid(0.05, 20)
        rng = np.random.default_rng(5)
        vals = np.cumsum(rng.normal(0.0, 0.2, size=(10, 21)), axis=1)
        a = sc._exact_last_passage(vals, np.zeros(10), grid, seed=9, lo=0)
        b = sc._exact_last_passage(vals, np.zeros(10), grid, seed=9, lo=0)
        assert np.array_equal(a, b)


class TestCandidateConsistency:
    """Block candidates and rate parts against independent per-path oracles:
    the Azema supermartingales from h's defining integral by quadrature
    (Emery) and from the reflection principle through ``statistics``
    (honest), and finite differences in w for the rates (dNdW = dZ/dw for
    both random times)."""

    def test_bridge_candidate_vs_drift_series(self):
        # oracle rate: finite difference in w of the log-density of W1 given W_t
        cfg = sc.ScenarioConfig(scenario="bridge", dt=0.01, n_paths=200, seed=6)
        grid = cfg.grid()
        ctx = sc._bridge_block(cfg, grid, 0, 5)
        x = sc._bridge_candidate(cfg, ctx)
        t = grid.times()[:-1]
        window = grid.times()[1:] <= 1.0 - cfg.delta + 1e-12

        def logq(w, w1):
            return -((w1 - w) ** 2) / (2.0 * (1.0 - t))

        for i in range(5):
            w, w1 = ctx.W[i, :-1], ctx.W1[i]
            rate = (logq(w + 1e-6, w1) - logq(w - 1e-6, w1)) / 2e-6
            drift = np.concatenate([[0.0], np.cumsum(rate * cfg.dt * window)])
            assert np.allclose(x[i], ctx.W[i] - drift, atol=1e-8)

    def test_emery_before_candidate_vs_progressive_drift(self):
        cfg = sc.ScenarioConfig(scenario="emery-before", dt=0.01, n_paths=200, seed=7)
        grid = cfg.grid()
        ctx = sc._emery_block(cfg, grid, 0, 8)
        t = grid.times()
        w, t_left = ctx.W[:, :-1], t[None, :-1]
        dndw, z = sc._emery_rate_parts(ctx)
        z_want, dndw_want = _emery_Z_quad(w, t_left), _dZ_dw(_emery_Z_quad, w, t_left)
        assert np.allclose(z, z_want, atol=1e-12)
        assert np.allclose(dndw, dndw_want, atol=1e-6)
        x = sc._emery_before_candidate(cfg, ctx)
        for i in range(8):
            rate = dndw_want[i] / z_want[i]
            dt_eff = np.clip(ctx.tau[i] - t[:-1], 0.0, cfg.dt)
            stopped = np.where(t < ctx.tau[i], ctx.W[i], ctx.W1[i] / 2.0)
            want = stopped - np.concatenate([[0.0], np.cumsum(rate * dt_eff)])
            assert np.allclose(x[i], want, atol=1e-6)

    def test_honest_rate_parts_vs_azema(self):
        # over the columns the block loop gives the rates: up to the last checkpoint
        cfg = sc.ScenarioConfig(scenario="honest", dt=0.01, n_paths=200, seed=8)
        grid = cfg.grid()
        last = grid.index_of(0.9)
        ctx = sc._honest_block(cfg, grid, 0, 6).head(last)
        w, t_left = ctx.W[:, :-1], grid.times()[None, :last]
        dndw, z = sc._honest_rate_parts(ctx)
        assert z.shape == dndw.shape == (6, last)
        assert np.allclose(z, _honest_Z_reflection(w, t_left), atol=1e-12)
        assert np.allclose(dndw, _dZ_dw(_honest_Z_reflection, w, t_left), atol=1e-6)


class TestFutureInfPieceSystem:
    def test_support_and_interval_structure(self):
        from filtralab.paths import reciprocal_scale

        cfg = sc.ScenarioConfig(scenario="pitman", dt=1e-3, seed=10)
        grid = cfg.grid()
        scale = reciprocal_scale()
        ctx = sc._pitman_block(cfg, grid, 0, 3)
        # the plain grid future infimum: backward minimum completed by the tail
        back = np.minimum.accumulate(ctx.W[:, ::-1], axis=1)[:, ::-1]
        inf_plain = np.minimum(back, ctx.I[:, -1:])
        for r, inf_p in zip(ctx.W, inf_plain):
            system = future_inf_piece_system(r, inf_p, grid, scale)
            covered = system.covered_mask()
            # covered exactly where the path sits strictly above its future inf
            assert np.array_equal(covered, r > inf_p)
            # target and reference differ only on the covered set
            d = np.abs(system.S.values - system.S_check.values)
            assert np.all(d[~covered] == 0.0)


class TestReportDeterminism:
    def test_same_config_same_entries(self):
        cfg = sc.ScenarioConfig(scenario="supremum", dt=0.01, n_paths=500, seed=12)
        a = sc.run_scenario(cfg)
        b = sc.run_scenario(cfg)
        for ea, eb in zip(a.report.entries, b.report.entries):
            assert ea == eb

    def test_tile_size_does_not_change_counts(self, monkeypatch):
        cfg = sc.ScenarioConfig(scenario="bridge", dt=0.01, n_paths=600, seed=13)
        monkeypatch.setattr(sc, "_TILE_BYTES", 8 * 101 * 100)  # dt 1e-2: 101 points
        a = sc.run_scenario(cfg)
        monkeypatch.setattr(sc, "_TILE_BYTES", 8 * 101 * 600)
        b = sc.run_scenario(cfg)
        for ea, eb in zip(a.report.entries, b.report.entries):
            assert ea.n_paths == eb.n_paths
            assert ea.mean == pytest.approx(eb.mean, abs=1e-12)
            assert ea.z == pytest.approx(eb.z, abs=1e-9)


_STATISTICAL = list(sc._RECORDS)


@pytest.mark.parametrize("scenario", _STATISTICAL)
def test_reports_do_not_depend_on_the_threads(monkeypatch, scenario):
    """A report does not depend on how its tiles are scheduled: tiles of 11
    rows (which do not divide the run), and one tile a run, give equal
    entries and verdicts on 1, 2 and 3 threads, corrected and control; each
    tile reduces the same per-path values, and the tiles merge in path
    order."""

    def runs(threads, tile_rows):
        monkeypatch.setattr(sc, "_tile_threads", lambda: threads)
        monkeypatch.setattr(sc, "_TILE_BYTES", 8 * 101 * tile_rows)  # dt 1e-2: 101 points
        out = []
        for control in (False, True):
            run = sc.run_scenario(sc.ScenarioConfig(
                scenario=scenario, dt=1e-2, n_paths=1000, seed=4, no_correction=control))
            out.append((run.report.verdict, run.passed, [
                (e.s, e.t, e.functional, e.mean, e.stderr, e.z, e.n_paths, e.passed)
                for e in run.report.entries + run.extra_entries
            ]))
        return out

    for tile_rows in (11, 1000):
        one = runs(1, tile_rows)
        assert len(one[0][2]) >= 16
        for threads in (2, 3):
            assert runs(threads, tile_rows) == one


def test_tiles_in_flight_are_bounded(monkeypatch):
    """At most two tiles a thread are submitted and not yet merged: while the
    tile at lo = 0 is held, 2 threads start at most 2 x 2 + 1 of the 182
    tiles of 11 rows, so memory does not grow with the path count."""
    import threading

    started, held, release = [], [], threading.Event()

    def block(cfg, grid, lo, hi):
        started.append(lo)
        if len(started) > 2 * 2 + 1:
            release.set()  # past the bound: no need to wait any longer
        if lo == 0:
            release.wait(timeout=1.0)
            held.append(len(started))
        return sc._bridge_block(cfg, grid, lo, hi)

    monkeypatch.setattr(sc, "_tile_threads", lambda: 2)
    monkeypatch.setattr(sc, "_TILE_BYTES", 8 * 101 * 11)  # dt 1e-2: 101 points
    cfg = sc.ScenarioConfig(scenario="bridge", dt=1e-2, n_paths=2000, seed=1)
    sc._drive(cfg, sc._RECORDS["bridge"](cfg)._replace(block=block))
    assert held[0] <= 2 * 2 + 1
    assert sorted(started) == list(range(0, 2000, 11))


def _traced_peak(cfg) -> int:
    import tracemalloc

    tracemalloc.start()
    try:
        sc.run_scenario(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scenario", list(sc._RECORDS))
def test_peak_memory_does_not_grow_with_path_count(monkeypatch, scenario):
    # each block a builder builds is one tile, reduced where it is built, so
    # the traced peak is set by the tile, not by the path count (a whole run
    # of 6 000 paths would be 3x the peak of 2 048); the tiles in flight on 2
    # threads hold no more than one thread's tile of _TILE_BYTES x
    # _MAX_THREADS.  The path-count case runs on one thread: with more, the
    # peak depends on how the tiles in flight happen to overlap.
    tile_bytes = sc._TILE_BYTES

    def peak(n_paths, threads, tiles=1):
        monkeypatch.setattr(sc, "_tile_threads", lambda: threads)
        monkeypatch.setattr(sc, "_TILE_BYTES", tile_bytes * tiles)
        return _traced_peak(sc.ScenarioConfig(scenario=scenario, dt=1e-3, n_paths=n_paths, seed=2))

    assert peak(6000, 1) <= 1.25 * peak(2048, 1)
    budget = peak(6000, 1, tiles=sc._MAX_THREADS)
    for threads in (1, 2):
        assert peak(6000, threads) <= 1.25 * budget


# Ceilings of one tile's traced peak, in path matrices, as (corrected,
# control).  Before the block kernels drew into the buffers that consume
# their draws, this measure read pitman 5.14 / 5.13, supremum 7.85 / 7.33,
# emery-before 6.46 / 4.02, honest 4.81 / 4.02, emery-after 4.44 / 3.99 and
# bridge 3.48 / 1.11 (rounded up): pitman must now stay under 3.25, supremum
# and emery-before a matrix under their old peaks, and nothing above it.
# Since the last-passage kernel reads its flips from the step products and
# draws its uniforms once the products are freed, the controls of
# emery-before, honest and emery-after peak at 3.115, 3.119 and 3.088.
# The supremum control has peaked at 5.442 since the block kernels drew into
# their consumers.  Since honest's legs take their drift rates, not the
# (dNdW, Z) parts kept across both legs, its corrected tile peaks at 3.818
# (4.800 before).  The ceilings of pitman (3.135 both), supremum corrected
# (6.338) and emery-before corrected (4.655) sit at most 0.05 above those
# peaks, measured when pitman and supremum came to share one running-maximum
# kernel.
_TILE_PEAKS = {
    "pitman": (3.17, 3.17),
    "supremum": (6.40, 5.45),
    "emery-before": (4.70, 3.12),
    "honest": (3.85, 3.12),
    "emery-after": (4.44, 3.09),
    "bridge": (3.48, 1.11),
}


@pytest.mark.parametrize("control", [False, True], ids=["corrected", "control"])
@pytest.mark.parametrize("scenario", list(_TILE_PEAKS))
def test_tile_peak_in_path_matrices(monkeypatch, scenario, control):
    """The traced peak of a run of one tile of 261 rows on one thread (its
    block and every leg, as ``_drive`` runs them) at dt 1e-3, in path
    matrices of rows x (n + 1) float64s; a first run keeps one-time imports
    out of it."""
    import tracemalloc

    assert set(_TILE_PEAKS) == set(sc._RECORDS)
    monkeypatch.setattr(sc, "_tile_threads", lambda: 1)
    monkeypatch.setattr(sc, "_TILE_BYTES", 2 << 20)
    cfg = sc.ScenarioConfig(scenario=scenario, dt=1e-3, seed=3, no_correction=control)
    rows = sc._tile_rows(cfg.grid())
    assert rows == 261
    cfg = replace(cfg, n_paths=rows)
    sc.run_scenario(cfg)
    tracemalloc.start()
    try:
        sc.run_scenario(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (rows * (cfg.grid().n + 1) * 8) <= _TILE_PEAKS[scenario][control]


@pytest.mark.parametrize("cpus, threads", [(1, 1), (2, 2), (3, 2), (64, 2)])
def test_tile_threads_keep_the_smallest_measured_tile(monkeypatch, cpus, threads):
    # one thread per CPU of the affinity mask, or of os.cpu_count() without
    # one, but no more than _MAX_THREADS (2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert sc._tile_threads() == threads
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert sc._tile_threads() == threads
    assert threads == min(cpus, sc._MAX_THREADS)


@pytest.mark.skipif(sc._LIBC is None, reason="the C library has no mallopt (not glibc)")
@pytest.mark.parametrize("scenario", ["honest", "pitman", "supremum"])
def test_a_repeated_run_reuses_its_tile_memory(scenario):
    # glibc keeps each tile's freed temporaries for the next tile, so the
    # second of two equal runs in one process faults in almost no new pages:
    # 100-2 500 minor faults, against 18 700 (honest), 38 900 (pitman) and
    # 50 100 (supremum) when glibc hands each tile's memory back.
    import resource

    def faults() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    cfg = sc.ScenarioConfig(scenario=scenario, dt=1e-3, n_paths=3000, seed=5)
    sc.run_scenario(cfg)
    before = faults()
    sc.run_scenario(cfg)
    assert faults() - before <= 5000


class TestFunctionalCatalog:
    def test_bounded_everywhere(self):
        cfg = sc.ScenarioConfig(scenario="supremum", dt=0.01, n_paths=300, seed=14)
        grid = cfg.grid()
        ctx = sc._supremum_block(cfg, grid, 0, 300)
        si = grid.index_of(0.4)
        for f in sc._base_functionals():
            vals = f.values(ctx, si)
            assert np.all(np.abs(vals) <= 1.0)

    def test_emery_masked_functionals_respect_measurability(self):
        # the sign(W1) functional must vanish wherever xi > s - delta
        cfg = sc.ScenarioConfig(scenario="emery-after", dt=0.01, n_paths=300, seed=15)
        grid = cfg.grid()
        ctx = sc._emery_block(cfg, grid, 0, 300)
        s = 0.5
        si = grid.index_of(s)
        funcs = sc._RECORDS["emery-after"](cfg).legs[0].functionals(s, 0.7)
        w1_func = [f for f in funcs if f.id == "mask*sign(W1)"][0]
        vals = w1_func.values(ctx, si)
        hidden = ctx.tau > s - cfg.delta
        assert np.all(vals[hidden] == 0.0)


class TestDrive:
    def test_no_entries_is_a_config_error(self):
        # an empty run must not come out as a vacuous PASS
        cfg = sc.ScenarioConfig(scenario="bridge", dt=0.01, n_paths=100, seed=1)
        with pytest.raises(ConfigurationError, match="no suite entries"):
            sc._drive(cfg, sc.Scenario(sc._bridge_block, ()))
        no_functionals = sc.Leg("", sc._bridge_candidate, lambda s, t: [], ((0.2, 0.4),))
        with pytest.raises(ConfigurationError, match="no suite entries"):
            sc._drive(cfg, sc.Scenario(sc._bridge_block, (no_functionals,)))

    def test_error_in_a_late_tile(self, monkeypatch, capsys):
        """A functional that breaks the unit bound only on paths 900 on, in
        tiles of 11 rows: 3 threads raise the 1-thread error, the CLI prints
        the same one line and exits 2, and no pool thread outlives the run."""
        import threading

        from filtralab.cli import main

        def block(cfg, grid, lo, hi):
            return replace(sc._bridge_block(cfg, grid, lo, hi), tau=np.arange(lo, hi, dtype=float))

        late = TestFunctional("late", lambda ctx, si: np.where(ctx.tau >= 900, 2.0, 0.0))
        leg = sc.Leg("", lambda cfg, ctx: ctx.W, lambda s, t: [late], ((0.2, 0.4),))
        monkeypatch.setitem(sc._RECORDS, "bridge", lambda cfg: sc.Scenario(block, (leg,)))
        cfg = sc.ScenarioConfig(scenario="bridge", dt=0.01, n_paths=1000, seed=1)
        before = threading.active_count()
        outcomes = []
        for threads in (1, 3):
            monkeypatch.setattr(sc, "_tile_threads", lambda: threads)
            monkeypatch.setattr(sc, "_TILE_BYTES", 8 * 101 * 11)  # 11 rows a tile
            with pytest.raises(ConfigurationError) as err:
                sc.run_scenario(cfg)
            code = main(["--scenario", "bridge", "--dt", "0.01", "--n-paths", "1000"])
            outcomes.append((str(err.value), code, capsys.readouterr()))
            assert threading.active_count() == before
        assert outcomes[0] == outcomes[1]
        message, code, captured = outcomes[0]
        assert message == "functional 'late' exceeds the unit bound"
        assert code == 2 and captured.out == ""
        assert captured.err == f"filtralab: config error: {message}\n"


@pytest.mark.parametrize("name", list(sc._RECORDS))
def test_record_rules_are_validated(capsys, name):
    """The checkpoint, horizon, delta and window rules each record states
    are enforced at config time, for exactly the records that state them."""
    from filtralab.cli import main

    rec = sc._RECORDS[name](sc.ScenarioConfig(scenario=name))
    # dt = 0.25 divides the horizon but not the first checkpoint time
    assert main(["--scenario", name, "--dt", "0.25", "--delta", "0.25", "--n-paths", "100"]) == 2
    captured = capsys.readouterr()
    t = next(x for x in rec.times() if x % 0.25)
    assert captured.out == ""
    assert captured.err == (
        f"filtralab: {name} checkpoint t = {t:g} is not a multiple of dt = 0.25; "
        "dt must divide every checkpoint time of the scenario\n"
    )

    def refusal(**kw):
        try:
            sc.ScenarioConfig(scenario=name, **{"dt": 0.01, "n_paths": 100, **kw}).validated()
        except ConfigurationError as exc:
            return str(exc)
        return None

    assert refusal() is None
    unit = f"the {name} scenario is defined on horizon 1"
    assert refusal(horizon=2.0) == (unit if rec.unit_horizon else None)
    # delta < dt is refused only where a window or mask reads delta
    small = refusal(dt=0.1, delta=0.05)
    if name in ("bridge", "supremum", "emery-after", "honest"):
        assert small == "delta = 0.05 must be >= dt = 0.1 and < horizon = 1.0"
    else:
        assert small is None
    empty = refusal(delta=0.995)
    if rec.window_end is None:
        assert empty is None
    else:
        assert f"leaves the {name} correction window empty" in empty
        assert refusal(delta=rec.window_end - 0.01) is None


def test_pitman_checkpoints_at_a_small_horizon():
    # rounded to 12 decimals, the tenths of horizon 1e-12 merged into 8 entries
    cfg = sc.ScenarioConfig(scenario="pitman", horizon=1e-12, dt=1e-13, n_paths=200, seed=1)
    res = sc.run_scenario(cfg)
    assert len(res.report.entries) + len(res.extra_entries) == 29
    times = sorted({e.t for e in res.extra_entries} - {0.0})
    assert times == pytest.approx([k * 1e-13 for k in range(1, 11)], rel=1e-9)


@pytest.mark.parametrize("name, field, prefix, n_entries",
                         [("emery-before", "xi", "", 6), ("honest", "g", "pre|", 5)])
def test_stopped_candidate_is_the_level_from_tau_on(monkeypatch, name, field, prefix, n_entries):
    # a sampled touch puts the last passage on a grid time; the candidate is
    # the level from there on, so paths stopped by s add exact zeros
    cfg = sc.ScenarioConfig(scenario=name, dt=0.01, n_paths=3000, seed=3)
    ctx = sc._RECORDS[name](cfg).block(cfg, cfg.grid(), 0, 3000)
    tau = ctx.tau
    assert np.mean(np.isin(tau, ctx.times)) > 0.4
    for control in (False, True):
        for tile_rows in (100, 1297):  # 1 297: the default tile at dt 1e-2
            monkeypatch.setattr(sc, "_TILE_BYTES", 8 * 101 * tile_rows)
            run = sc.run_scenario(replace(cfg, no_correction=control))
            entries = [e for e in run.report.entries if e.functional == f"{prefix}1[{field}<=s]"]
            assert len(entries) == n_entries
            assert all(e.mean == 0.0 and e.stderr == 0.0 for e in entries)


@pytest.mark.parametrize("scenario", _STATISTICAL)
def test_reports_match_plain_oracles(tmp_path, monkeypatch, scenario):
    """Corrected and control reports are byte-identical with the per-path draw
    loop and the full-matrix last passage patched in (three tiles, so rows
    are re-keyed from lo = 0, 128 and 256)."""

    def reports(tag):
        out = []
        for control in (False, True):
            cfg = sc.ScenarioConfig(scenario=scenario, dt=0.01, n_paths=300, seed=5,
                                    no_correction=control)
            path = tmp_path / f"{tag}-{control}.csv"
            emit_report(sc.run_scenario(cfg), "csv", str(path))
            out.append(path.read_bytes())
        return out

    monkeypatch.setattr(sc, "_TILE_BYTES", 8 * 101 * 128)  # dt 1e-2: 101 points
    fast = reports("fast")
    monkeypatch.setattr(sc, "draw_rows", draw_rows_per_path)
    monkeypatch.setattr(P, "draw_rows", draw_rows_per_path)
    monkeypatch.setattr(sc, "_exact_last_passage", exact_last_passage_full)
    assert reports("oracle") == fast


class TestTraceHooks:
    """Every kernel the benchmark's per-layer trace wraps is still called
    through its module's globals, so a refactor that renames a kernel or
    takes it off its call path fails here rather than in a traced run."""

    def _kernel_name(self, module, attr):
        owner = importlib.import_module(module)
        if "[" in attr:
            table, key = attr[:-1].split("[")
            return getattr(owner, table)[key].__name__
        for part in attr.split("."):
            owner = getattr(owner, part)
        return owner.__name__

    def test_every_traced_kernel_records_a_span(self, tmp_path, monkeypatch):
        from filtralab.cli import main

        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
        layertrace = importlib.import_module("layertrace")
        names = [
            (self._kernel_name(module, attr), metric)
            for module, attr, metric in layertrace.KERNELS
        ]
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            assert main(["--scenario", "elemint-check", "--seed", "1",
                         "--out", str(tmp_path / "r.csv")]) == 0
            for name in sc.SCENARIOS:
                if name != "elemint-check":
                    sc.run_scenario(sc.ScenarioConfig(scenario=name, n_paths=100, dt=0.01))
        finally:
            tracer.uninstall()
        recorded = {(span[0], span[1]) for span in tracer.spans}
        missing = [k for k, name in zip(layertrace.KERNELS, names) if name not in recorded]
        assert missing == []

    def test_supremum_bridge_maxima_are_traced(self, monkeypatch):
        # _supremum_block calls paths._running_max, which looks _bridge_max up
        # in paths' globals, so the trace's wrapper on paths._bridge_max
        # records supremum's bridge maxima too
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
        tracer = importlib.import_module("layertrace").Tracer()
        tracer.install()
        try:
            sc.run_scenario(sc.ScenarioConfig(scenario="supremum", n_paths=100, dt=0.01))
        finally:
            tracer.uninstall()
        spans = tracer.spans
        parents = [spans[span[4]][0] for span in spans if span[0] == "_bridge_max"]
        assert parents and set(parents) == {"_supremum_block"}


def test_traced_runs_tile_on_one_thread(monkeypatch):
    """The benchmark's trace keeps one span stack per process, so a run whose
    block builder it wraps tiles on one thread whatever the CPU count: every
    span then lies within its parent's."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    monkeypatch.setattr(sc, "_tile_threads", lambda: 3)
    monkeypatch.setattr(sc, "_TILE_BYTES", 8 * 101 * 33)  # 33-row tiles
    tracer = importlib.import_module("layertrace").Tracer()
    tracer.install()
    try:
        sc.run_scenario(sc.ScenarioConfig(scenario="honest", n_paths=1000, dt=0.01))
    finally:
        tracer.uninstall()
    spans = tracer.spans
    assert sum(span[0] == "_honest_block" for span in spans) == 31
    for _, _, start, end, parent, *_ in spans:
        if parent >= 0:
            assert spans[parent][2] <= start and end <= spans[parent][3]
