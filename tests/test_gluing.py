"""Gluing machinery: sets, ladders, merged drifts, compensators."""

import math

import numpy as np
import pytest

from filtralab.errors import DataError, InternalConsistencyError
from filtralab.grids import GridPath, TimeGrid
from filtralab.gluing import (
    Piece,
    PieceSystem,
    assemble_chi_union,
    boundary_half_local_time,
    _dR_times,
    _mask_runs,
    _uncovered_prefix_index,
    build_sets,
    glue,
    reconstruction_residual,
)
from filtralab.scenarios import random_piece_system


def make_system(dt, values_s, values_check, intervals, chi_inc=None):
    n = len(values_s) - 1
    grid = TimeGrid(dt, n)
    if chi_inc is None:
        chi_inc = np.zeros(n)
    return PieceSystem.from_common_drift(
        GridPath(grid, np.asarray(values_s, dtype=float)),
        GridPath(grid, np.asarray(values_check, dtype=float)),
        intervals,
        chi_inc,
    )


class TestBuildSets:
    def test_full_cover_single_rung(self):
        n = 10
        sys_ = make_system(0.1, np.zeros(n + 1), np.zeros(n + 1), [(0.0, 1.0)])
        a_mask, c_jumps, eps_masks, ladders = build_sets(sys_, [0.2])
        # grid A lags the covered run by one step and 0 is never covered
        assert not a_mask[0] and not a_mask[1]
        assert np.all(a_mask[2:])
        assert np.all(c_jumps == 0.0) or np.count_nonzero(c_jumps) <= 1
        assert len(ladders[0.2]) == 1
        r0, d0 = ladders[0.2][0]
        assert r0 == pytest.approx(0.2)
        assert d0 == math.inf

    def test_two_rungs_and_gap(self):
        # pieces {(0,1], (2,3]} on dt=0.25, eps=0.5
        n = 16
        sys_ = make_system(0.25, np.zeros(n + 1), np.zeros(n + 1), [(0.0, 1.0), (2.0, 3.0)])
        a_mask, _, eps_masks, ladders = build_sets(sys_, [0.5])
        rungs = ladders[0.5]
        assert len(rungs) == 2
        (r0, d0), (r1, d1) = rungs
        assert r0 == pytest.approx(0.5)
        assert d0 == pytest.approx(1.25)  # first uncovered grid point after the run
        assert r1 == pytest.approx(2.5)
        # boundary gap respected: d_{R_n} + eps <= R_{n+1}
        assert d0 + 0.5 <= r1 + 1e-12
        # mask rebuild from rungs is exact
        times = sys_.grid.times()
        rebuilt = np.zeros_like(a_mask)
        for r, d in rungs:
            rebuilt |= (times > r) & (times <= (d if math.isfinite(d) else np.inf))
        assert np.array_equal(rebuilt, eps_masks[0.5])

    def test_eps_larger_than_runs(self):
        n = 16
        sys_ = make_system(0.25, np.zeros(n + 1), np.zeros(n + 1), [(0.0, 1.0), (2.0, 3.0)])
        _, _, eps_masks, ladders = build_sets(sys_, [2.0])
        assert len(ladders[2.0]) == 0
        assert not eps_masks[2.0].any()

    def test_nesting_in_eps(self):
        rng = np.random.default_rng(3)
        sys_ = random_piece_system(rng)
        _, _, eps_masks, _ = build_sets(sys_, [sys_.grid.dt, 2 * sys_.grid.dt, 4 * sys_.grid.dt])
        small, mid, big = (eps_masks[k * sys_.grid.dt] for k in (1, 2, 4))
        assert np.all(mid <= small)
        assert np.all(big <= mid)

    def test_eps_must_divide(self):
        sys_ = make_system(0.25, np.zeros(5), np.zeros(5), [(0.0, 1.0)])
        with pytest.raises(DataError):
            build_sets(sys_, [0.3])


class TestIndexHelpers:
    """Index helpers against brute-force definitions on random coverings."""

    @staticmethod
    def systems(count=60):
        rng = np.random.default_rng(41)
        for _ in range(count):
            dt = float(rng.choice([0.05, 0.1]))
            n = int(rng.integers(1, 40))
            grid = TimeGrid(dt, n)
            covered = rng.random(n + 1) < rng.uniform(0.2, 0.9)
            times = grid.times()
            # one piece (t_k - dt/2, t_k] per covered grid point
            ivs = [(times[k] - 0.5 * dt, times[k]) for k in np.flatnonzero(covered)]
            s = rng.normal(size=n + 1)
            sys_ = PieceSystem.from_common_drift(
                GridPath(grid, s), GridPath(grid, s), ivs, np.zeros(n)
            )
            assert np.array_equal(sys_.covered_mask(), covered)
            yield sys_, covered

    @staticmethod
    def last_uncovered_before(covered, k):
        return max((j for j in range(k) if not covered[j]), default=0)

    @staticmethod
    def first_uncovered_time_from(grid, covered, k):
        times = grid.times()
        return min((float(times[j]) for j in range(k, grid.n + 1) if not covered[j]),
                   default=math.inf)

    def test_uncovered_prefix_index(self):
        for sys_, covered in self.systems():
            want = [self.last_uncovered_before(covered, k)
                    for k in range(sys_.grid.n + 1)]
            assert list(_uncovered_prefix_index(sys_.grid, covered)) == want

    def test_mask_runs(self):
        for _, covered in self.systems():
            n = len(covered)
            want = [
                (a, b) for a in range(n) for b in range(a, n)
                if covered[a:b + 1].all()
                and (a == 0 or not covered[a - 1])
                and (b == n - 1 or not covered[b + 1])
            ]
            got = _mask_runs(covered)
            assert got == want
            assert all(type(v) is int for run in got for v in run)

    def test_dR_times(self):
        for sys_, covered in self.systems():
            grid = sys_.grid
            want = [self.first_uncovered_time_from(grid, covered, k) for k in range(grid.n + 1)]
            assert list(_dR_times(grid.times(), covered)) == want

    def test_build_sets_ladders(self):
        for sys_, covered in self.systems():
            grid = sys_.grid
            times = grid.times()
            n = grid.n
            eps_list = [grid.dt, 2 * grid.dt, 3 * grid.dt]
            a_mask, _, eps_masks, ladders = build_sets(sys_, eps_list)
            assert list(a_mask) == [False] + list(covered[:-1])
            for m, eps in enumerate(eps_list, start=1):
                mask = [bool(a_mask[k]) and k - self.last_uncovered_before(covered, k) > m
                        for k in range(n + 1)]
                assert list(eps_masks[eps]) == mask
                starts = [k for k in range(n + 1) if mask[k] and (k == 0 or not mask[k - 1])]
                want = [(float(times[k - 1]) if k else float(times[0] - grid.dt),
                         self.first_uncovered_time_from(grid, covered, k)) for k in starts]
                assert ladders[eps] == want


class TestAssembleChiUnion:
    def test_idempotent_merge_of_identical_overlaps(self):
        n = 8
        inc = np.arange(1.0, n + 1.0)
        sys_ = make_system(0.5, np.zeros(n + 1), np.zeros(n + 1), [(0.0, 2.0), (1.0, 3.0)], inc)
        chi = assemble_chi_union(sys_)
        # covered steps: right endpoints in (0,3]; increments = common inc there
        times_r = sys_.grid.times()[1:]
        expect = np.where((times_r > 0.0) & (times_r <= 3.0), inc, 0.0)
        assert np.allclose(np.diff(chi.values), expect, atol=1e-15)

    def test_disjoint_pieces_sum(self):
        n = 8
        inc = np.ones(n)
        sys_ = make_system(0.5, np.zeros(n + 1), np.zeros(n + 1), [(0.0, 1.0), (2.0, 3.0)], inc)
        chi = assemble_chi_union(sys_)
        assert chi.values[-1] == pytest.approx(4.0)  # 2 covered steps per piece

    def test_conflicting_overlap_raises(self):
        rng = np.random.default_rng(5)
        sys_ = random_piece_system(rng)
        p0 = sys_.pieces[0]
        # overlap the first interval with itself but carry a different drift
        clash = PieceSystem.from_common_drift(
            sys_.S, sys_.S_check, [(p0.T, p0.U)], np.diff(p0.chi.values) + 1.0
        ).pieces[0]
        with pytest.raises(DataError):
            assemble_chi_union(PieceSystem(sys_.S, sys_.S_check, sys_.pieces + (clash,)))


class TestJumpCompensation:
    """The crossing-overshoot sum over A: half of l_union with no declared jumps."""

    @staticmethod
    def compensation(sys_, strict=True):
        no_jumps = np.zeros(sys_.grid.n, dtype=bool)
        return glue(sys_, [0.5], jump_mask=no_jumps, strict=strict).l_union.values / 2.0

    def test_no_sign_change_is_zero(self):
        sys_ = make_system(0.5, [0.0, 1.0, 2.0, 1.0, 3.0], np.zeros(5), [(0.0, 10.0)])
        assert np.all(self.compensation(sys_) == 0.0)

    def test_single_down_crossing(self):
        # S - S_check goes 0.3 -> -0.4 inside A: step of 0.4
        sys_ = make_system(
            0.5, [0.0, 0.3, 0.3, -0.4, -0.4], np.zeros(5), [(0.0, 10.0)]
        )
        assert self.compensation(sys_)[-1] == pytest.approx(0.4)

    def test_crossing_outside_A_ignored(self):
        # no piece covers the crossing, so A is empty and the support check must be off
        sys_ = make_system(0.5, [0.0, 0.3, -0.4, 0.0, 0.0], np.zeros(5), [])
        assert np.all(self.compensation(sys_, strict=False) == 0.0)


class TestGlue:
    def test_identity_case(self):
        vals = np.array([1.0, 2.0, 1.5, 3.0, 2.0])
        sys_ = make_system(0.5, vals, vals, [(0.0, 2.0)])
        dec = glue(sys_, [0.5])
        assert np.all(dec.V_plus.values == 0.0)
        assert np.all(dec.V_minus.values == 0.0)
        assert np.max(np.abs(reconstruction_residual(sys_, dec))) == 0.0

    def test_five_point_hand_case(self):
        # S = (0,1,2,0,0), S_check = 0, one piece (0, 2dt], chi = S-increments there.
        dt = 0.25
        s = np.array([0.0, 1.0, 2.0, 0.0, 0.0])
        inc = np.diff(s)
        sys_ = make_system(dt, s, np.zeros(5), [(0.0, 2 * dt)], inc)
        dec = glue(sys_, [dt])
        # brute force on the 5-point grid:
        # covered points {dt, 2dt}; A = {2dt, 3dt}; C = {3dt} with jump -2
        assert np.array_equal(dec.A_mask, [False, False, True, True, False])
        assert dec.C_jumps[3] == pytest.approx(-2.0)
        # V+ catches the entry jump at dt (outside A), V- stays zero
        assert np.array_equal(dec.V_plus.values, [0.0, 1.0, 1.0, 1.0, 1.0])
        assert np.all(dec.V_minus.values == 0.0)
        assert np.max(np.abs(reconstruction_residual(sys_, dec))) <= 1e-15
        # dV+- vanish on A
        assert np.all(np.diff(dec.V_plus.values)[dec.A_mask[1:]] == 0.0)

    def test_randomized_reconstruction_and_ladders(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            sys_ = random_piece_system(rng)
            dt = sys_.grid.dt
            dec = glue(sys_, [dt, 3 * dt])
            assert np.max(np.abs(reconstruction_residual(sys_, dec))) <= 1e-12
            assert np.all(np.diff(dec.V_plus.values) >= 0.0)
            assert np.all(np.diff(dec.V_minus.values) >= 0.0)
            off = ~dec.A_mask[1:]
            assert np.all(np.diff(dec.V_plus.values)[~off] == 0.0)
            # epsilon ladder rebuild, bit for bit
            times = sys_.grid.times()
            for eps, rungs in dec.Rn_dRn.items():
                rebuilt = np.zeros_like(dec.A_mask)
                for r, d in rungs:
                    hi = d if math.isfinite(d) else np.inf
                    rebuilt |= (times > r) & (times <= hi)
                assert np.array_equal(rebuilt, dec.A_eps_masks[eps])
            # at eps = dt the ladder union equals A itself
            assert np.array_equal(dec.A_eps_masks[dt], dec.A_mask)
            # l_union with everything declared as jumps vanishes (to fp roundoff)
            assert np.max(np.abs(dec.l_union.values)) <= 1e-12

    def test_support_violation_detected(self):
        s = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
        sys_ = make_system(0.25, s, np.zeros(5), [(0.5, 0.75)])
        with pytest.raises(DataError):
            glue(sys_, [0.25])
        with pytest.raises(InternalConsistencyError):
            glue(sys_, [0.25], support_tol=np.inf)

    def test_tanaka_residual_on_continuous_data(self):
        # continuous-ish S - S_check >= 0 touching 0: declare no genuine jumps;
        # the residual equals the crossing-overshoot local time from both routes.
        rng = np.random.default_rng(2)
        n = 2000
        dt = 1e-3
        w = np.concatenate([[0.0], np.cumsum(rng.normal(0.0, math.sqrt(dt), n))])
        d = np.abs(w) - 1e-9  # sits near 0, crosses at fp level
        s_check = np.concatenate([[0.0], np.cumsum(rng.normal(0.0, math.sqrt(dt), n))])
        s = s_check + d
        grid = TimeGrid(dt, n)
        sys_ = PieceSystem.from_common_drift(
            GridPath(grid, s), GridPath(grid, s_check), [(-dt, n * dt)], np.zeros(n)
        )
        dec = glue(sys_, [dt], jump_mask=np.zeros(n, dtype=bool), strict=False)
        # direct discrete Tanaka computation: twice the crossing overshoots in A
        left, right = d[:-1], d[1:]
        overshoot = np.where(left > 0, np.maximum(-right, 0.0), np.maximum(right, 0.0))
        expected = 2.0 * np.cumsum(overshoot * dec.A_mask[1:])
        assert np.allclose(dec.l_union.values[1:], expected, atol=1e-12)
        assert np.all(np.diff(dec.l_union.values) >= -1e-15)


class TestBoundaryHalfLocalTime:
    def test_reduces_to_zero_far_from_boundary(self):
        gap = np.full(101, 5.0)
        assert boundary_half_local_time(gap, np.ones(100), 1e-3) <= 1e-12

    def test_reflected_brownian_known_mean(self):
        # half local time at 0 of |B| over [0,1] has mean E[|B_1|] = sqrt(2/pi)
        rng = np.random.default_rng(6)
        n, dt, n_paths = 2000, 5e-4, 400
        vals = []
        for _ in range(n_paths):
            b = np.concatenate([[0.0], np.cumsum(rng.normal(0.0, math.sqrt(dt), n))])
            y = np.abs(b)
            vals.append(boundary_half_local_time(y, np.ones(n), dt))
        est = np.mean(vals)
        # l0(|B|) = 2 l0(B), E[l0(B)_1] = E|B_1| = sqrt(2/pi); half of 2x = sqrt(2/pi)
        want = math.sqrt(2.0 / math.pi)
        se = np.std(vals, ddof=1) / math.sqrt(n_paths)
        assert abs(est - want) <= 4.0 * se + 0.01
