"""Simulation, conditioning data, and the RNG determinism contract.

The Brownian, supremum, last-passage and Pitman block kernels live in
``filtralab.scenarios``; ``paths`` holds the draw helper ``draw_rows`` that
every block builder fills its per-path draws through, the whole-block Pitman
construction, the vectorised tail sample of the future infimum and bridge
extrema; the per-path level crossing and the
per-path draw loop are oracles in ``oracles``.  ``draw_rows`` re-keys one
generator per row and is checked against a new generator per row, on every
builder's own draws; every builder is checked against its own block sliced
out of a larger one, and the block Pitman construction against the 1-D call
on each path's own draws.
"""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from filtralab.errors import ConfigurationError, DomainError
from filtralab.grids import GridPath, TimeGrid
from filtralab import paths as P
from filtralab import scenarios as sc
from filtralab.rng import PURPOSE, substream
from oracles import (
    bridge_min_allocating,
    draw_rows_per_path,
    last_level_crossing,
    pitman_block_allocating,
    supremum_block_allocating,
)


GRID3 = TimeGrid(1.0 / 3.0, 3)

# every block builder, with a scenario that runs it
_BUILDERS = [
    ("bridge", "_bridge_block"),
    ("supremum", "_supremum_block"),
    ("emery-before", "_emery_block"),
    ("honest", "_honest_block"),
    ("pitman", "_pitman_block"),
]


class TestBrownianBlock:
    def test_starts_at_zero_and_variance(self):
        grid = TimeGrid(1e-3, 1000)
        block = sc._brownian_block(grid, 3, 0, 4)
        assert np.all(block[:, 0] == 0.0)
        # per-path increment variance over 10^6 steps within 1%
        big = TimeGrid(1e-3, 10**6)
        one = sc._brownian_block(big, 3, 0, 1)
        v = np.var(np.diff(one[0]), ddof=1)
        assert abs(v - big.dt) <= 0.01 * big.dt

    def test_determinism_bit_identical(self):
        grid = TimeGrid(0.01, 100)
        a = sc._brownian_block(grid, 7, 0, 8)
        b = sc._brownian_block(grid, 7, 0, 8)
        assert np.array_equal(a, b)

    def test_per_path_streams_ignore_ensemble_size(self):
        grid = TimeGrid(0.01, 50)
        small = sc._brownian_block(grid, 11, 0, 3)
        large = sc._brownian_block(grid, 11, 0, 10)
        assert np.array_equal(small, large[:3])
        assert np.array_equal(sc._brownian_block(grid, 11, 2, 5), large[2:5])

    def test_terminal_mean_symmetry(self):
        grid = TimeGrid(0.01, 100)
        block = sc._brownian_block(grid, 5, 0, 100_000)
        m = block[:, -1].mean()
        assert abs(m) <= 3.0 * math.sqrt(1.0 / 100_000)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            TimeGrid(-0.1, 10)
        with pytest.raises(ConfigurationError):
            sc.ScenarioConfig(scenario="bridge", dt=0.1, n_paths=0).validated()


class TestDrawRows:
    def test_row_k_is_path_lo_plus_k(self):
        out = np.empty((3, 4))
        assert P.draw_rows(out, 5, "brownian", 7, lambda g, row: g.standard_normal(out=row)) is out
        for k in range(3):
            assert np.array_equal(out[k], substream(5, "brownian", 7 + k).standard_normal(4))

    def test_one_scalar_per_row(self):
        # random(out=) on a length-1 view draws the bits of uniform()
        out = P.draw_rows(np.empty(4), 2, "inf_tail", 10, lambda g, row: g.random(out=row))
        assert list(out) == [substream(2, "inf_tail", 10 + k).uniform() for k in range(4)]

    @pytest.mark.parametrize("scenario, builder", _BUILDERS)
    def test_block_rows_do_not_depend_on_the_block(self, scenario, builder):
        # rows [2, 5) built alone equal rows 2-4 of the block [0, 10), field by field
        cfg = sc.ScenarioConfig(scenario=scenario, dt=0.05, seed=7)
        build = getattr(sc, builder)
        part, whole = build(cfg, cfg.grid(), 2, 5), build(cfg, cfg.grid(), 0, 10)
        fields = [k for k, v in vars(whole).items() if isinstance(v, np.ndarray) and k != "times"]
        assert len(fields) >= 2
        for k in fields:
            assert np.array_equal(getattr(part, k), getattr(whole, k)[2:5]), k
        assert np.array_equal(part.times, whole.times)

    @pytest.mark.parametrize("lo, rows", [(0, 6), (41, 1), (1000, 5)])
    def test_every_builder_draw_matches_new_generators(self, monkeypatch, lo, rows):
        # each draw_rows call the builders make, re-run against a new
        # substream per row, bit for bit; both start from NaN, so a draw
        # that leaves part of its row unwritten fails
        calls = []

        def spy(draw_rows):
            def wrapped(out, seed, purpose, lo_, draw):
                want = draw_rows_per_path(np.full_like(out, np.nan), seed, purpose, lo_, draw)
                out[...] = np.nan
                got = draw_rows(out, seed, purpose, lo_, draw)
                ok = np.array_equal(got, want) and not np.isnan(got).any()
                calls.append((purpose, out.shape, ok))
                return got
            return wrapped

        monkeypatch.setattr(sc, "draw_rows", spy(P.draw_rows))
        monkeypatch.setattr(P, "draw_rows", spy(P.draw_rows))
        for scenario, builder in _BUILDERS:
            cfg = sc.ScenarioConfig(scenario=scenario, dt=0.05, seed=7)
            getattr(sc, builder)(cfg, cfg.grid(), lo, lo + rows)
        assert {purpose for purpose, _, _ in calls} == set(PURPOSE)
        assert all(shape[0] == rows for _, shape, _ in calls)
        assert [c for c in calls if not c[2]] == []

    @pytest.mark.parametrize(
        "width, fill, draw",
        [
            # a lone uniform and five normals end a row with Philox's
            # four-word buffer half used
            (6, lambda g, row: (g.random(out=row[:1]), g.standard_normal(out=row[1:])),
             lambda g: np.concatenate(([g.uniform()], g.standard_normal(5)))),
            # an odd count of 32-bit integers ends it with half a word kept
            (3, lambda g, row: np.copyto(row, g.integers(0, 1000, size=3, dtype=np.uint32)),
             lambda g: g.integers(0, 1000, size=3, dtype=np.uint32)),
        ],
        ids=["uniform-then-normals", "uint32"],
    )
    def test_half_used_buffer_is_not_carried_over(self, width, fill, draw):
        out = P.draw_rows(np.empty((3, width)), 9, "bes3", 30, fill)
        for k in range(3):
            assert np.array_equal(out[k], draw(substream(9, "bes3", 30 + k)))


class TestPitmanBlock:
    def test_degenerate_draws_keep_r0(self):
        # zero Brownian increments and unit bridge uniforms: R stays at r0
        r = P.pitman_from_draws(1.3, np.r_[0.4, np.zeros(50)], np.ones(51), 0.01)
        assert np.allclose(r, 1.3)

    def test_block_matches_one_path_calls(self):
        # the block construction equals the 1-D call on each path's own bes3 draws
        cfg = sc.ScenarioConfig(scenario="pitman", dt=1e-2, seed=13)
        grid, n = cfg.grid(), cfg.grid().n
        # (path, sup): the j0 uniform and the normals, an unread NaN and the
        # bridge uniforms; the kernel writes over both, so each call gets copies
        rows = []
        for i in range(4, 24):
            gen = substream(13, "bes3", i)
            path = np.r_[1.0 - gen.uniform(), gen.standard_normal(n)]
            rows.append((path, np.r_[np.nan, 1.0 - gen.uniform(size=n)]))
        one = [P.pitman_from_draws(1.0, path.copy(), sup.copy(), grid.dt) for path, sup in rows]
        paths, sups = (np.array(col) for col in zip(*rows))
        assert np.array_equal(P.pitman_from_draws(1.0, paths, sups, grid.dt), one)
        assert np.array_equal(sc._pitman_block(cfg, grid, 4, 24).W, one)

    @pytest.mark.parametrize("dt", [1e-2, 1e-3])
    @pytest.mark.parametrize("lo, rows", [(0, 1), (41, 130), (1000, 7)])
    def test_in_place_blocks_match_allocating_oracles(self, lo, rows, dt):
        # the Pitman and supremum blocks, built in the buffers their draws
        # land in, equal the allocating constructions bit for bit
        cfg = sc.ScenarioConfig(scenario="pitman", dt=dt, seed=23)
        grid = cfg.grid()
        ctx = sc._pitman_block(cfg, grid, lo, lo + rows)
        r, inf = pitman_block_allocating(cfg, grid, lo, lo + rows)
        assert np.array_equal(ctx.W, r)
        assert np.array_equal(ctx.I, inf)
        ctx = sc._supremum_block(cfg, grid, lo, lo + rows)
        w, u, ttimes = supremum_block_allocating(cfg, grid, lo, lo + rows)
        assert np.array_equal(ctx.W, w)
        assert np.array_equal(ctx.U, u)
        assert np.array_equal(ctx.Ttimes, ttimes)

    def test_bridge_min_writes_over_its_uniforms(self):
        # the near cells' uniforms are lifted in place, then one pass writes
        # every minimum over u: the same bits as the two-pass oracle
        rng = np.random.default_rng(31)
        dt = 1e-2
        x, y = rng.uniform(0.01, 1.0, (2, 20, 50))
        near = x * y < 20.0 * dt
        assert near.any() and not near.all()
        u = 1.0 - rng.random((20, 50))
        want = bridge_min_allocating(x, y, dt, u)
        assert P._bridge_min(x, y, dt, u) is u
        assert np.array_equal(u, want)

    def test_pitman_strictly_positive(self):
        cfg = sc.ScenarioConfig(scenario="pitman", dt=1e-3, seed=9)
        r = sc._pitman_block(cfg, cfg.grid(), 0, 200).W
        assert np.min(r) > 0.0
        assert np.all(r[:, 0] == 1.0)


_SUP_CFG = sc.ScenarioConfig(scenario="supremum", dt=1e-2, seed=19)


def _supremum_ctx():
    return sc._supremum_block(_SUP_CFG, _SUP_CFG.grid(), 0, 5)


def _step_maxima(ctx):
    """Per-step bridge maxima drawn from the paths' own bridge_min streams."""
    grid = _SUP_CFG.grid()
    u = np.array(
        [1.0 - substream(_SUP_CFG.seed, "bridge_min", i).uniform(size=grid.n)
         for i in range(len(ctx.W))]
    )
    return P._bridge_max(ctx.W[:, :-1], ctx.W[:, 1:], grid.dt, u)


class TestRunningMax:
    """The supremum block samples the continuum running supremum exactly."""

    def test_direct_definition(self):
        ctx = _supremum_ctx()
        step_max = _step_maxima(ctx)
        for i in range(len(ctx.W)):
            for k in range(_SUP_CFG.grid().n + 1):
                want = max([ctx.W[i, 0]] + list(step_max[i, :k]))
                assert ctx.U[i, k] == want

    def test_idempotent_and_monotone(self):
        ctx = _supremum_ctx()
        assert np.array_equal(np.maximum.accumulate(ctx.U, axis=1), ctx.U)
        # the continuum supremum is never below the grid supremum
        assert np.all(ctx.U >= np.maximum.accumulate(ctx.W, axis=1))


def _pitman_ctx(n_paths, seed, dt, horizon=1.0):
    """The Pitman block of paths [0, n_paths) and its grid."""
    cfg = sc.ScenarioConfig(scenario="pitman", horizon=horizon, dt=dt, seed=seed)
    return sc._pitman_block(cfg, cfg.grid(), 0, n_paths), cfg.grid()


def _plain_future_inf(ctx):
    """Backward grid minimum of R completed by the block's exact tail."""
    back = np.minimum.accumulate(ctx.W[:, ::-1], axis=1)[:, ::-1]
    return np.minimum(back, ctx.I[:, -1:])


class TestFutureInfimum:
    """The Pitman block's future infimum: bridge minima of every step and
    one exact post-horizon tail, drawn from each path's own streams."""

    def test_backward_minimum_with_tail(self, monkeypatch):
        # path [3, 2, 5] with tail 4; unit bridge uniforms make every step
        # minimum the lower endpoint, so the hand values are the plain ones
        class FixedTail:
            def tail_sample(self, z, u):
                return 4.0

        class Zeros:
            def random(self, out=None):
                if out is None:  # a scalar call
                    return 0.0
                out[...] = 0.0

            standard_normal = random

        def zero_rows(out, seed, purpose, lo, draw):
            # the builder's own draw of every row, made on a generator of zeros
            for k in range(len(out)):
                draw(Zeros(), out[k:k + 1] if out.ndim == 1 else out[k])
            return out

        # a block of one path
        monkeypatch.setattr(sc, "pitman_from_draws", lambda *a: np.array([[3.0, 2.0, 5.0]]))
        monkeypatch.setattr(sc, "reciprocal_scale", FixedTail)
        monkeypatch.setattr(sc, "draw_rows", zero_rows)
        cfg = sc.ScenarioConfig(scenario="pitman", dt=0.5, seed=1)
        ctx = sc._pitman_block(cfg, TimeGrid(0.5, 2), 0, 1)
        assert np.array_equal(ctx.I[0], [2.0, 2.0, 4.0])

    def test_tail_law_uniform_ks(self):
        # for e(z) = -1/z the tail given terminal r is uniform on (0, r)
        scale = P.reciprocal_scale()
        r = 2.7
        rng = np.random.default_rng(10)
        samples = np.array(
            [scale.tail_sample(r, 1.0 - rng.random()) for _ in range(100_000)]
        )
        stat = kstest(samples / r, "uniform").statistic
        assert stat < 1.63 / math.sqrt(100_000)

    def test_invariants_against_plain_minimum(self):
        ctx, grid = _pitman_ctx(20, seed=4, dt=1e-2, horizon=2.0)
        scale = P.reciprocal_scale()
        n, dt = grid.n, grid.dt
        plain = _plain_future_inf(ctx)
        for i in range(20):
            r = ctx.W[i]
            # direct definition over the path's own tail and bridge draws
            u_tail = 1.0 - float(substream(4, "inf_tail", i).uniform())
            last = min(r[-1], scale.tail_sample(float(r[-1]), u_tail))
            u = 1.0 - substream(4, "bridge_min", i).uniform(size=n)
            step_min = P._bridge_min(r[:-1], r[1:], dt, u)
            for k in range(n + 1):
                assert ctx.I[i, k] == min([last] + list(step_min[k:]))
            out = plain[i]
            assert np.all(np.diff(out) >= 0.0)
            assert np.all(out <= r + 1e-15)
            back = np.minimum.accumulate(r[::-1])[::-1]
            # wherever the tail exceeds the path minimum, plain backward min rules
            if out[0] != back[0]:
                assert out[0] < back[0]  # tail was binding

    def test_positive_on_every_path(self):
        # every step minimum is a Bessel(3)-bridge minimum, which stays above 0
        ctx, _ = _pitman_ctx(2000, seed=1, dt=1e-2)
        assert np.all(ctx.I > 0.0)

    def test_positive_path_required(self):
        # the exact tail completing the future infimum needs a positive terminal value
        for z in (-0.1, 0.0):
            with pytest.raises(DomainError):
                P.reciprocal_scale().tail_sample(z, 0.5)

    def test_bridge_min_refinement_below_plain(self):
        ctx, _ = _pitman_ctx(10, seed=8, dt=1e-2)
        plain = _plain_future_inf(ctx)
        assert np.all(ctx.I <= plain + 1e-15)
        assert np.all(np.diff(ctx.I, axis=1) >= 0.0)


class TestScaleFunction:
    def test_inverse_roundtrip(self):
        scale = P.reciprocal_scale()
        for z in (0.1, 1.0, 7.3):
            assert abs(scale.e_inverse(scale.e(z)) - z) <= 1e-10

    def test_tail_sample_elementwise(self):
        scale = P.reciprocal_scale()
        z, u = np.array([0.3, 1.0, 2.7]), np.array([0.9, 0.5, 0.01])
        assert list(scale.tail_sample(z, u)) == [scale.tail_sample(a, b) for a, b in zip(z, u)]
        with pytest.raises(DomainError):
            scale.tail_sample(np.array([1.0, 0.0]), np.array([0.5, 0.5]))


class TestCrossings:
    def test_last_level_crossing_interpolated(self):
        p = GridPath(GRID3, np.array([0.0, 0.8, 0.2, 1.0]))
        t = last_level_crossing(p, 0.5, 1.0)
        assert t == pytest.approx(2.0 / 3.0 + (1.0 / 3.0) * (0.3 / 0.8), abs=1e-12)

    def test_no_crossing_sentinel(self):
        p = GridPath(GRID3, np.array([1.0, 2.0, 3.0, 4.0]))
        assert last_level_crossing(p, 0.5, 1.0) == 0.0

    def test_exact_grid_hit(self):
        p = GridPath(GRID3, np.array([1.0, 0.5, 2.0, 3.0]))
        assert last_level_crossing(p, 0.5, 1.0) == pytest.approx(1.0 / 3.0)

    def test_last_zero_takes_final_sign_change(self):
        # [0, 1, -1, 2]: the last straddle is (-1, 2), interpolated at 2/3 + 1/9
        p = GridPath(GRID3, np.array([0.0, 1.0, -1.0, 2.0]))
        assert last_level_crossing(p, 0.0, 1.0) == pytest.approx(7.0 / 9.0, abs=1e-12)

    def test_never_zero_after_origin(self):
        p = GridPath(GRID3, np.array([0.0, 1.0, 2.0, 3.0]))
        assert last_level_crossing(p, 0.0, 1.0) == 0.0


class TestSupremumRecordTimes:
    """Record times: the midpoint of the next step in which the supremum
    rises, completed past the horizon by one exact first-passage draw."""

    def test_first_later_record(self):
        ctx = _supremum_ctx()
        grid = _SUP_CFG.grid()
        rises = _step_maxima(ctx) > ctx.U[:, :-1]
        mid = ctx.times[:-1] + 0.5 * grid.dt
        for i in range(len(ctx.W)):
            for k in range(grid.n):
                later = np.nonzero(rises[i, k:])[0]
                if len(later):
                    assert ctx.Ttimes[i, k] == mid[k + later[0]]

    def test_global_argmax_sentinel(self):
        # every point after the last record shares the one post-horizon time
        ctx = _supremum_ctx()
        for i in range(len(ctx.W)):
            censored = ctx.Ttimes[i] >= 1.0
            assert np.all(ctx.Ttimes[i, censored] == ctx.Ttimes[i, -1])
            assert np.all(censored[np.argmax(censored):])

    def test_tail_completion(self):
        ctx = _supremum_ctx()
        assert np.all(ctx.Ttimes >= ctx.times)
        assert np.all(np.isfinite(ctx.Ttimes))
        gap = ctx.U[:, -1] - ctx.W[:, -1]
        # censored entries pushed past the horizon
        assert np.all(ctx.Ttimes[gap > 0.0, -1] > 1.0)
        # to the first passage above U_1 drawn from each path's own sup_tail stream;
        # the square of the gap may round differently from a scalar power by an ulp
        for i in range(len(ctx.W)):
            z = substream(19, "sup_tail", i).standard_normal()
            want = 1.0 + gap[i] ** 2 / (z * z)
            assert ctx.Ttimes[i, -1] == pytest.approx(want, rel=4 * np.finfo(float).eps, abs=0)


class TestBlockInvariants:
    def test_fields_and_invariants(self):
        cfg = sc.ScenarioConfig(scenario="pitman", dt=1e-2, seed=19)
        grid = cfg.grid()
        pit = sc._pitman_block(cfg, grid, 0, 5)
        assert np.all(np.diff(pit.I, axis=1) >= 0.0)
        assert np.all(pit.I <= pit.W + 1e-15)
        sup = sc._supremum_block(cfg, grid, 0, 5)
        assert np.all(np.diff(sup.U, axis=1) >= 0.0)
        assert np.all(sup.Ttimes >= grid.times())
        xi = sc._emery_block(cfg, grid, 0, 5).tau
        g = sc._honest_block(cfg, grid, 0, 5).tau
        for tau in (xi, g):
            assert np.all((0.0 <= tau) & (tau <= grid.horizon))


class TestBrownianBlockVariation:
    def test_brownian_quadratic_variation(self):
        grid = TimeGrid(1e-4, 10_000)
        path = sc._brownian_block(grid, 17, 0, 1)[0]
        qv = np.sum(np.diff(path) ** 2)
        assert abs(qv - 1.0) <= 0.05
