"""Martingale test harness: accumulators, statistics, correction."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from filtralab.errors import ConfigurationError, InsufficientSampleError
from filtralab.verify import (
    MomentAccumulator,
    SuiteEntry,
    TestFunctional,
    bonferroni_threshold,
    martingale_suite,
)


class TestMomentAccumulator:
    def test_insufficient_sample(self):
        acc = MomentAccumulator()
        acc.add(np.ones(50))
        with pytest.raises(InsufficientSampleError):
            acc.stats()

    def test_degenerate_zero_statistic(self):
        acc = MomentAccumulator()
        acc.add(np.zeros(500))
        mean, stderr, z = acc.stats()
        assert (mean, stderr, z) == (0.0, 0.0, 0.0)

    def test_matches_numpy(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=1234)
        acc = MomentAccumulator()
        acc.add(x)
        mean, stderr, z = acc.stats()
        assert mean == pytest.approx(x.mean(), rel=1e-12)
        assert stderr == pytest.approx(x.std(ddof=1) / math.sqrt(len(x)), rel=1e-9)

    def test_shard_merge_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=10_000)
        whole = MomentAccumulator()
        whole.add(x)
        sharded = MomentAccumulator()
        for part in np.array_split(x, 7):
            sharded = sharded.merge(_acc(part))
        m1, s1, _ = whole.stats()
        m2, s2, _ = sharded.stats()
        assert m1 == pytest.approx(m2, abs=1e-12)
        assert s1 == pytest.approx(s2, abs=1e-12)

    def test_large_offset_keeps_the_variance(self):
        # 1e9 + N(0, 1): E[x^2] - mean^2 cancels every digit of the variance
        # (it read stderr 0.16 whole and 0, z inf, over the shards); the mean
        # and the squared deviations from it keep them
        rng = np.random.default_rng(6)
        x = 1e9 + rng.normal(size=10_000)
        want = x.std(ddof=1) / math.sqrt(len(x))
        sharded = MomentAccumulator()
        for part in np.array_split(x, 7):
            sharded = sharded.merge(_acc(part))
        for acc in (_acc(x), sharded):
            _, stderr, _ = acc.stats()
            assert stderr == pytest.approx(want, rel=1e-8)

    def test_reorder_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=5000)
        a, _, _ = _acc(x).stats()
        b, _, _ = _acc(x[::-1].copy()).stats()
        assert a == pytest.approx(b, abs=1e-12)


    def test_vector_stats_equal_the_per_row_stats(self):
        # one vector accumulator against a scalar one per row, bit for bit:
        # N(0, 1); zeros (stderr 0, z 0); nonzero constants (stderr 0, z +inf);
        # squares that overflow (m2 inf, stderr inf, z 0)
        rows = np.zeros((6, 300))
        rows[0] = np.random.default_rng(7).normal(size=300)
        rows[2], rows[3] = 0.25, -2.0
        rows[4, :2] = 1e200, -1e200
        rows[5, :3] = 1e160, -1e160, 3.0
        acc = _acc(rows)
        assert np.isinf(acc.m2[4:]).all()
        got = acc.stats()
        assert list(got[2][1:]) == [0.0, np.inf, np.inf, 0.0, 0.0]
        for i in range(len(rows)):
            want = MomentAccumulator(acc.n, acc.mean[i], acc.m2[i]).stats()
            assert [np.float64(v[i]).tobytes() for v in got] == [
                np.float64(w).tobytes() for w in want
            ], i


def _acc(values):
    acc = MomentAccumulator()
    acc.add(values)
    return acc


def _entry(key, acc):
    """The suite row of one accumulator at key (s, t, functional), not yet judged."""
    return SuiteEntry(*key, *acc.stats(), acc.n, False)


class TestMomentAccumulatorStats:
    """(mean, stderr, z) of (X_t - X_s) * H_s over paths, as the suite reduces it."""

    def test_constant_process(self):
        mean, stderr, z = _acc(np.zeros(500) * np.ones(500)).stats()
        assert mean == 0.0 and z == 0.0

    def test_brownian_null_calibration(self):
        # base-filtration martingale: |z| <= 3 with overwhelming probability
        rng = np.random.default_rng(4)
        inc = rng.normal(0.0, 1.0, size=50_000)
        h = np.sign(rng.normal(size=50_000))
        _, _, z = _acc(inc * h).stats()
        assert abs(z) <= 4.0

    def test_bridge_uncorrected_power(self):
        # W under the terminal-value enlargement without correction,
        # H = sign(W1 - W_s): strongly positive mean, |z| > 5 at n = 50000
        rng = np.random.default_rng(5)
        n, s, t = 50_000, 0.2, 0.6
        ws = rng.normal(0.0, math.sqrt(s), n)
        wt = ws + rng.normal(0.0, math.sqrt(t - s), n)
        w1 = wt + rng.normal(0.0, math.sqrt(1.0 - t), n)
        _, _, z = _acc((wt - ws) * np.sign(w1 - ws)).stats()
        assert z > 5.0


class TestBonferroni:
    def test_quantile_arithmetic(self):
        # 20 entries at nominal 3 sigma: per-entry threshold ~ 3.8176 (oracle: norm.isf)
        thr = bonferroni_threshold(3.0, 20)
        p_nom = 2 * norm.sf(3.0)
        assert thr == pytest.approx(float(norm.isf(p_nom / 40)), abs=1e-12)
        assert thr == pytest.approx(3.8176, abs=5e-4)
        assert 3.5 < thr  # the spec's example entry at z = 3.5 passes

    def test_single_entry_unchanged(self):
        assert bonferroni_threshold(3.0, 1) == 3.0


class TestBonferroniAgainstScipy:
    """The standard-library threshold against scipy's ndtr/ndtri form."""

    @staticmethod
    def _scipy(z, n):
        from scipy.special import ndtr, ndtri

        return float(-ndtri(ndtr(-z) / n))

    def test_within_8_ulp_over_a_grid(self):
        for z in np.linspace(0.05, 8.0, 160):
            for n in (2, 3, 7, 16, 38, 101, 256, 400):
                want = self._scipy(z, n)
                assert abs(bonferroni_threshold(z, n) - want) <= 8 * math.ulp(want), (z, n)

    def test_inf_where_scipy_underflows(self):
        # (z/sqrt 2)^2 passes log(DBL_MAX) = 709.78... at z = 37.677...:
        # below that both are finite and agree, past it both are inf
        edge = math.sqrt(2.0 * 709.782712893384)
        for z in (37.0, 37.6, edge - 1e-9, edge + 1e-9, 37.7, 38.0, 38.4, 38.6, 40.0):
            for n in (2, 38, 400):
                want = self._scipy(z, n)
                got = bonferroni_threshold(z, n)
                if math.isinf(want):
                    assert got == math.inf, (z, n)
                else:
                    assert abs(got - want) <= 8 * math.ulp(want), (z, n)
        assert math.isinf(self._scipy(edge + 1e-9, 2)) and not math.isinf(self._scipy(edge - 1e-9, 2))


class TestMartingaleSuite:
    def test_vacuous_pass_flagged(self):
        report = martingale_suite([])
        assert report.passed and report.vacuous

    def test_single_entry_rule(self):
        # with one entry the Bonferroni rule is the nominal threshold itself
        acc = _acc(np.concatenate([np.full(300, 0.1), np.full(300, -0.086)]))
        report = martingale_suite([_entry((0.1, 0.2, "f"), acc)], threshold=3.0)
        assert len(report.entries) == 1 and report.per_entry_threshold == 3.0
        assert report.passed == (abs(report.entries[0].z) <= 3.0)

    def test_bonferroni_rescues_mild_excursion(self):
        rng = np.random.default_rng(6)
        accs = {}
        for k in range(20):
            accs[(0.1, 0.2, f"f{k}")] = _acc(rng.normal(0.0, 1.0, 400))
        # inject one entry at z ~ 3.5: beyond the raw 3, inside the corrected threshold
        x = rng.normal(0.0, 1.0, 400)
        x = x - x.mean() + 3.5 * x.std(ddof=1) / math.sqrt(400)
        accs[(0.1, 0.2, "f3")] = _acc(x)
        corrected = martingale_suite([_entry(k, a) for k, a in accs.items()], threshold=3.0)
        assert abs(accs[(0.1, 0.2, "f3")].stats()[2]) > 3.0
        assert corrected.passed

    def test_rows_are_judged_and_sorted(self):
        # each row's verdict is set at the corrected threshold (about 3.32 for
        # three rows), whatever it came in with, and rows sort by (s, t, functional)
        rows = [SuiteEntry(0.4, 0.6, "b", 0.0, 1.0, 3.0, 200, False),
                SuiteEntry(0.2, 0.4, "z", 0.0, 1.0, -3.5, 200, True),
                SuiteEntry(0.2, 0.4, "a", 0.0, 1.0, 0.0, 200, False)]
        report = martingale_suite(rows, threshold=3.0)
        assert report.per_entry_threshold == bonferroni_threshold(3.0, 3)
        assert [(e.s, e.t, e.functional, e.passed) for e in report.entries] == [
            (0.2, 0.4, "a", True), (0.2, 0.4, "z", False), (0.4, 0.6, "b", True)]
        assert report.verdict == "fail" and not report.vacuous


class TestFunctionalBound:
    def test_bound_enforced(self):
        f = TestFunctional("bad", lambda ctx, si: np.full(4, 2.0))
        with pytest.raises(ConfigurationError):
            f.values(None, 0)

    def test_clipping_tolerance(self):
        f = TestFunctional("edge", lambda ctx, si: np.full(4, 1.0 + 1e-12))
        assert np.all(f.values(None, 0) <= 1.0)

    def test_empty_values_pass(self):
        f = TestFunctional("empty", lambda ctx, si: np.empty(0))
        out = f.values(None, 0)
        assert out.dtype == float and out.shape == (0,)

    def test_nan_passes_through_and_neighbours_are_clipped(self):
        f = TestFunctional("nan", lambda ctx, si: np.array([np.nan, 5.0, 1.0 + 1e-10, -0.5]))
        out = f.values(None, 0)
        assert np.isnan(out[0]) and out[2] == 1.0 and out[3] == -0.5
        # NaN hides the bound breach from the check, as np.max(np.abs(.)) did
        assert out[1] == 1.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_values_within_the_tolerance_become_exactly_one(self, sign):
        v = sign * np.array([0.25, 1.0 + 1e-10, 1.0 + 1e-9])
        out = TestFunctional("edge", lambda ctx, si: v).values(None, 0)
        assert list(out) == [sign * 0.25, sign * 1.0, sign * 1.0]
        with pytest.raises(ConfigurationError, match="'edge' exceeds the unit bound"):
            TestFunctional("edge", lambda ctx, si: sign * np.array([1.0 + 2e-9])).values(None, 0)
