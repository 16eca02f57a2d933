"""Scenario layer: config validation, block kernels, candidate consistency."""

import importlib
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from filtralab.drifts import emery_Z, honest_Z
from filtralab.errors import ConfigurationError
from filtralab.grids import GridPath, TimeGrid
from filtralab.cli import emit_report
from filtralab.rng import substream
from filtralab import paths as P
from filtralab import scenarios as sc
from oracles import (
    draw_rows_per_path,
    exact_last_passage_full,
    future_inf_piece_system,
    last_level_crossing,
)


def _dZ_dw(Z, w, t, eps=1e-6):
    """Central finite difference of an Azema supermartingale in w."""
    return (Z(w + eps, t) - Z(w - eps, t)) / (2.0 * eps)


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


class TestBlockKernels:
    def test_brownian_block_matches_simulate(self):
        # each row is its own path's substream, summed and scaled
        grid = TimeGrid(0.0, 0.01, 50)
        block = sc._brownian_block(grid, 13, 2, 5)
        for i in range(2, 5):
            z = substream(13, "brownian", i).standard_normal(grid.n)
            want = np.concatenate([[0.0], np.cumsum(z) * math.sqrt(grid.dt)])
            assert np.allclose(block[i - 2], want, atol=1e-15)

    def test_exact_last_passage_matches_scalar_op_without_touches(self):
        # every grid value at least 1 away from the level: a same-side step
        # touches with probability below exp(-40), so only flips count
        grid = TimeGrid(0.0, 0.05, 20)
        rng = np.random.default_rng(3)
        levels = rng.normal(0.0, 0.3, size=40)
        sides = rng.choice([-1.0, 1.0], size=(40, 21), p=[0.3, 0.7])
        vals = levels[:, None] + sides * (1.0 + rng.exponential(size=(40, 21)))
        out = sc._exact_last_passage(vals, levels, grid, seed=3, lo=0)
        for i in range(40):
            want = last_level_crossing(GridPath(grid, vals[i]), levels[i], 1.0)
            assert out[i] == pytest.approx(want, abs=1e-12)

    def test_exact_last_passage_never_earlier_than_flips(self):
        grid = TimeGrid(0.0, 0.05, 20)
        vals = _walks(4, 60, 20)
        exact = sc._exact_last_passage(vals, np.zeros(60), grid, seed=4, lo=0)
        for i in range(60):
            flip = last_level_crossing(GridPath(grid, vals[i]), 0.0, 1.0)
            assert exact[i] >= flip - 1e-12

    def test_exact_last_passage_matches_full_matrix_oracle(self, monkeypatch):
        # adversarial blocks, on half the steps with the smallest 1 - U there is
        # (2^-53, where a touch is likeliest): grid values exactly at the level,
        # and same-side steps whose a*b sits at, just below and just above 20*dt
        grid = TimeGrid(0.0, 0.01, 40)
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

    def test_exact_last_passage_deterministic(self):
        grid = TimeGrid(0.0, 0.05, 20)
        rng = np.random.default_rng(5)
        vals = np.cumsum(rng.normal(0.0, 0.2, size=(10, 21)), axis=1)
        a = sc._exact_last_passage(vals, np.zeros(10), grid, seed=9, lo=0)
        b = sc._exact_last_passage(vals, np.zeros(10), grid, seed=9, lo=0)
        assert np.array_equal(a, b)


class TestCandidateConsistency:
    """Block candidates and rate parts against independent per-path oracles:
    the closed-form Azema supermartingales, and finite differences in w for
    the rates (dNdW = dZ/dw for both random times)."""

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
        assert np.allclose(z, emery_Z(w, t_left), atol=1e-12)
        assert np.allclose(dndw, _dZ_dw(emery_Z, w, t_left), atol=1e-6)
        x = sc._emery_before_candidate(cfg, ctx)
        for i in range(8):
            z_i = emery_Z(ctx.W[i, :-1], t[:-1])
            rate = _dZ_dw(emery_Z, ctx.W[i, :-1], t[:-1]) / z_i
            dt_eff = np.clip(ctx.xi[i] - t[:-1], 0.0, cfg.dt)
            stopped = np.where(t < ctx.xi[i], ctx.W[i], ctx.W1[i] / 2.0)
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
        assert np.allclose(z, honest_Z(w, t_left), atol=1e-12)
        assert np.allclose(dndw, _dZ_dw(honest_Z, w, t_left), atol=1e-6)


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

    def test_block_size_does_not_change_counts(self):
        cfg1 = sc.ScenarioConfig(scenario="bridge", dt=0.01, n_paths=600, seed=13, block_size=100)
        cfg2 = sc.ScenarioConfig(scenario="bridge", dt=0.01, n_paths=600, seed=13, block_size=600)
        a, b = sc.run_scenario(cfg1), sc.run_scenario(cfg2)
        for ea, eb in zip(a.report.entries, b.report.entries):
            assert ea.n_paths == eb.n_paths
            assert ea.mean == pytest.approx(eb.mean, abs=1e-12)
            assert ea.z == pytest.approx(eb.z, abs=1e-9)


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
        funcs = sc._after_functionals("xi", cfg, s)
        w1_func = [f for f in funcs if f.id == "mask*sign(W1)"][0]
        vals = w1_func.values(ctx, si)
        hidden = ctx.xi > s - cfg.delta
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


@pytest.mark.parametrize("name", list(sc._RECORDS))
def test_record_rules_are_validated(capsys, name):
    """The checkpoint, horizon and window rules each record states are
    enforced at config time, for exactly the records that state them."""
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
            sc.ScenarioConfig(scenario=name, dt=0.01, n_paths=100, **kw).validated()
        except ConfigurationError as exc:
            return str(exc)
        return None

    assert refusal() is None
    unit = f"the {name} scenario is defined on horizon 1"
    assert refusal(horizon=2.0) == (unit if rec.unit_horizon else None)
    empty = refusal(delta=0.995)
    if rec.window_end is None:
        assert empty is None
    else:
        assert f"leaves the {name} correction window empty" in empty
        assert refusal(delta=rec.window_end - 0.01) is None


@pytest.mark.parametrize("name, field, prefix, n_entries",
                         [("emery-before", "xi", "", 6), ("honest", "g", "pre|", 5)])
def test_stopped_candidate_is_the_level_from_tau_on(name, field, prefix, n_entries):
    # a sampled touch puts the last passage on a grid time; the candidate is
    # the level from there on, so paths stopped by s add exact zeros
    cfg = sc.ScenarioConfig(scenario=name, dt=0.01, n_paths=3000, seed=3)
    ctx = sc._RECORDS[name](cfg).block(cfg, cfg.grid(), 0, 3000)
    tau = getattr(ctx, field)
    assert np.mean(np.isin(tau, ctx.times)) > 0.4
    for control in (False, True):
        for block_size in (100, 8192):
            run = sc.run_scenario(replace(cfg, no_correction=control, block_size=block_size))
            entries = [e for e in run.report.entries if e.functional == f"{prefix}1[{field}<=s]"]
            assert len(entries) == n_entries
            assert all(e.mean == 0.0 and e.stderr == 0.0 for e in entries)


@pytest.mark.parametrize(
    "scenario, method",
    [(name, "pitman-construction") for name in sc._RECORDS] + [("pitman", "euler-sde")],
)
def test_reports_match_plain_oracles(tmp_path, monkeypatch, scenario, method):
    """Corrected and control reports are byte-identical with the per-path draw
    loop and the full-matrix last passage patched in (three blocks, so rows
    are re-keyed from lo = 0, 128 and 256)."""

    def reports(tag):
        out = []
        for control in (False, True):
            cfg = sc.ScenarioConfig(scenario=scenario, dt=0.01, n_paths=300, seed=5,
                                    block_size=128, no_correction=control, bes_method=method)
            path = tmp_path / f"{tag}-{control}.csv"
            emit_report(sc.run_scenario(cfg), "csv", str(path))
            out.append(path.read_bytes())
        return out

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
        # _supremum_block imports _bridge_max per call, so the trace's wrapper
        # on paths._bridge_max records supremum's bridge maxima too
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
