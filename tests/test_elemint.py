"""Elementary-integral calculus: exactness of every algebraic identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from filtralab import elemint as ei
from filtralab.errors import CoverageError, DataError, DomainError
from oracles import elem_integral_per_piece


def quad_cadlag(a, b, coeffs=(0.0, 1.0, 0.0), jumps=()):
    """Quadratic base plus explicit jumps; the standard test integrator."""
    jumps = tuple(jumps)

    def fn(t):
        base = coeffs[0] + coeffs[1] * t + coeffs[2] * t * t
        return base + sum(s for loc, s in jumps if loc <= t)

    return ei.CadlagFunction(fn, a, b, jumps)


class TestLeftStepFunction:
    def test_evaluation_on_covering_interval(self):
        h = ei.LeftStepFunction((0.0, 1.0, 3.0), (2.0, 5.0))
        assert h(0.5) == 2.0
        assert h(1.0) == 2.0  # right endpoint belongs to the left interval
        assert h(1.0001) == 5.0
        assert h(3.0) == 5.0
        assert h(0.0) == 0.0  # outside (a, b]
        assert h(3.5) == 0.0

    def test_validation(self):
        with pytest.raises(DataError):
            ei.LeftStepFunction((0.0, 1.0), (1.0, 2.0))
        with pytest.raises(DataError):
            ei.LeftStepFunction((0.0, 1.0, 1.0), (1.0, 2.0))

    def test_infinite_right_end(self):
        h = ei.LeftStepFunction((0.0, math.inf), (3.0,))
        assert h(1e12) == 3.0


class TestStop:
    def test_identity_example(self):
        # f(t)=t on (0,2], c=1 -> f^1(1.5) = 1
        f = quad_cadlag(0.0, 2.0)
        assert ei.stop(f, 1.0)(1.5) == 1.0

    def test_c_beyond_domain_is_identity(self):
        f = quad_cadlag(0.0, 2.0, jumps=((1.0, 0.5),))
        g = ei.stop(f, 5.0)
        for t in (0.3, 1.0, 2.0):
            assert g(t) == f(t)

    def test_c_at_left_endpoint_documented_edge(self):
        f = quad_cadlag(0.0, 2.0)
        g = ei.stop(f, 0.0)
        assert g(1.7) == f.fn(0.0)

    def test_jumps_truncate(self):
        f = quad_cadlag(0.0, 2.0, jumps=((0.5, 1.0), (1.5, -2.0)))
        g = ei.stop(f, 1.0)
        assert g.jump_at(0.5) == 1.0
        assert g.jump_at(1.5) == 0.0


class TestElemIntegral:
    def test_hand_example(self):
        # h = 2*1_{(0,1]} + 5*1_{(1,3]}, f = t^2: (h.f)(2) = 2*1 + 5*(4-1) = 17
        h = ei.LeftStepFunction((0.0, 1.0, 3.0), (2.0, 5.0))
        f = ei.CadlagFunction(lambda t: t * t, 0.0, 3.0)
        assert ei.elem_integral(h, f)(2.0) == pytest.approx(17.0, abs=1e-14)

    def test_indicator_one_gives_increment(self):
        h = ei.LeftStepFunction((0.0, 2.0), (1.0,))
        f = quad_cadlag(0.0, 2.0, coeffs=(3.0, 2.0, 0.0), jumps=((1.0, 1.0),))
        out = ei.elem_integral(h, f)
        for t in (0.5, 1.0, 1.5, 2.0):
            assert out(t) == pytest.approx(f(t) - f.fn(0.0), abs=1e-14)

    def test_zero_integrand(self):
        h = ei.LeftStepFunction((0.0, 2.0), (0.0,))
        f = quad_cadlag(0.0, 2.0)
        assert ei.elem_integral(h, f)(1.7) == 0.0

    def test_domain_mismatch(self):
        h = ei.LeftStepFunction((0.0, 1.0), (1.0,))
        f = quad_cadlag(0.0, 2.0)
        with pytest.raises(DomainError):
            ei.elem_integral(h, f)

    def test_matches_per_piece_oracle(self):
        # f is evaluated at the breakpoints below t and once at t; the sum
        # equals the piece-by-piece form bit for bit, zero levels included
        rng = np.random.default_rng(17)
        for _ in range(300):
            h = _random_step(rng, 0.0, 2.0)
            levels = np.where(rng.random(len(h.levels)) < 0.3, 0.0, h.levels)
            h = ei.LeftStepFunction(h.breakpoints, tuple(levels))
            f = _random_cadlag(rng, 0.0, 2.0)
            out = ei.elem_integral(h, f)
            for t in rng.uniform(-0.5, 2.5, size=10):
                assert out(t) == elem_integral_per_piece(h, f, t)

    def test_f_called_at_breakpoints_below_t_and_once_at_t(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            h = _random_step(rng, 0.0, 2.0)
            base = _random_cadlag(rng, 0.0, 2.0)
            calls = []

            def fn(t, base=base, calls=calls):
                calls.append(t)
                return base.fn(t)

            out = ei.elem_integral(h, ei.CadlagFunction(fn, 0.0, 2.0, base.jumps))
            for t in (*rng.uniform(-0.5, 2.5, size=5), *h.breakpoints):
                calls.clear()
                out(t)
                assert len(calls) <= sum(x < t for x in h.breakpoints) + 1

    def test_jump_rule(self):
        # jump of the integral at t is h(t) * jump of f
        h = ei.LeftStepFunction((0.0, 2.0), (3.0,))
        f = quad_cadlag(0.0, 2.0, coeffs=(0.0, 0.0, 0.0), jumps=((1.0, 1.0),))
        assert ei.jump_of_integral(h, f, 1.0) == 3.0
        assert ei.jump_of_integral(h, f, 2.5) == 0.0
        smooth = quad_cadlag(0.0, 2.0)
        assert ei.jump_of_integral(h, smooth, 1.0) == 0.0


def assert_composition(g, h, f):
    """g.(h.f) = (gh).f at every probe point in (a, b], relative to max(1, |lhs|, |rhs|)."""
    lhs = ei.elem_integral(g, ei.elem_integral(h, f))
    rhs = ei.elem_integral(ei.mul_steps(g, h), f)
    for t in ei.probe_points(g, h, f):
        if f.a < t <= f.b:
            u, v = lhs(t), rhs(t)
            assert abs(u - v) <= 1e-12 * max(1.0, abs(u), abs(v)), t


class TestComposition:
    def test_hand_case(self):
        g = ei.LeftStepFunction((0.0, 0.2, 0.7, 1.0), (0.0, 1.0, 0.0))
        h = ei.LeftStepFunction((0.0, 0.5, 0.9, 1.0), (0.0, 1.0, 0.0))
        f = quad_cadlag(0.0, 1.0)
        assert_composition(g, h, f)

    def test_disjoint_supports(self):
        g = ei.LeftStepFunction((0.0, 0.1, 0.3, 1.0), (0.0, 1.0, 0.0))
        h = ei.LeftStepFunction((0.0, 0.5, 0.9, 1.0), (0.0, 1.0, 0.0))
        f = quad_cadlag(0.0, 1.0, jumps=((0.6, 2.0),))
        assert_composition(g, h, f)
        # both sides identically zero
        lhs = ei.elem_integral(g, ei.elem_integral(h, f))
        assert lhs(1.0) == 0.0

    def test_identity_factor(self):
        g = ei.LeftStepFunction((0.0, 1.0), (1.0,))
        h = ei.LeftStepFunction((0.0, 0.4, 1.0), (2.0, -1.0))
        f = quad_cadlag(0.0, 1.0, jumps=((0.4, 1.0),))
        assert_composition(g, h, f)


class TestUnionIntegral:
    def test_overlapping_cover(self):
        s = ei.LeftIntervalSet(((0.0, 1.0), (0.5, 2.0)))
        f = quad_cadlag(0.0, 2.0, coeffs=(1.0, 1.0, 0.5), jumps=((0.7, 2.0),))
        out = ei.union_integral(s, f, (0.0, 2.0))
        for t in ei.probe_points(s, f):
            if 0.0 < t <= 2.0:
                assert out(t) == pytest.approx(f(t) - f.fn(0.0), abs=1e-13)

    def test_second_type_junction_preserves_jump(self):
        s = ei.LeftIntervalSet(((0.0, 1.0), (1.0, 2.0)))
        f = quad_cadlag(0.0, 2.0, jumps=((1.0, 3.0),))
        out = ei.union_integral(s, f, (0.0, 2.0))
        assert out.jump_at(1.0) == 3.0
        for t in (0.5, 1.0, 1.5, 2.0):
            assert out(t) == pytest.approx(f(t) - f.fn(0.0), abs=1e-13)

    def test_coverage_failure(self):
        s = ei.LeftIntervalSet(((0.0, 0.8), (1.2, 2.0)))
        f = quad_cadlag(0.0, 2.0)
        with pytest.raises(CoverageError) as err:
            ei.union_integral(s, f, (0.0, 2.0))
        assert err.value.witness is not None
        assert 0.8 < err.value.witness <= 1.2


    def test_window_must_lie_in_the_domain_of_f(self):
        s = ei.LeftIntervalSet(((-1.0, 3.0),))
        f = quad_cadlag(0.0, 2.0)
        for window in ((-0.5, 1.0), (1.0, 2.5)):
            with pytest.raises(DomainError):
                ei.union_integral(s, f, window)
        assert ei.union_integral(s, f, (0.5, 1.5))(1.0) == f(1.0) - f(0.5)


# -- randomized property checks ---------------------------------------------

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def _random_step(rng, a, b):
    k = int(rng.integers(1, 5))
    pts = sorted({a, b, *np.round(rng.uniform(a, b, size=k), 6)})
    levels = tuple(rng.normal(0.0, 2.0, size=len(pts) - 1))
    return ei.LeftStepFunction(tuple(pts), levels)


def _random_cadlag(rng, a, b):
    coeffs = rng.normal(0.0, 1.0, size=3)
    n_j = int(rng.integers(0, 4))
    locs = np.round(rng.uniform(a, b, size=n_j), 6)
    sizes = rng.normal(0.0, 1.0, size=n_j)
    jumps = tuple((float(l), float(s)) for l, s in zip(locs, sizes) if a < l <= b and s != 0.0)
    return quad_cadlag(a, b, coeffs=tuple(coeffs), jumps=jumps)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_representation_independence(seed):
    """Refining the partition without changing values leaves the integral fixed."""
    rng = np.random.default_rng(seed)
    a, b = 0.0, 2.0
    h = _random_step(rng, a, b)
    f = _random_cadlag(rng, a, b)
    # refine: split each interval at its midpoint, duplicating the level
    pts, levels = [h.breakpoints[0]], []
    for i, d in enumerate(h.levels):
        mid = 0.5 * (h.breakpoints[i] + h.breakpoints[i + 1])
        pts.extend([mid, h.breakpoints[i + 1]])
        levels.extend([d, d])
    h2 = ei.LeftStepFunction(tuple(pts), tuple(levels))
    lhs, rhs = ei.elem_integral(h, f), ei.elem_integral(h2, f)
    for t in ei.probe_points(h, h2, f):
        if a < t <= b:
            assert abs(lhs(t) - rhs(t)) <= 1e-12 * max(1.0, abs(lhs(t)))


@given(st.integers(min_value=0, max_value=10_000), finite, finite)
@settings(max_examples=60, deadline=None)
def test_bilinearity_in_h(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    a, b = 0.0, 2.0
    h1, h2 = _random_step(rng, a, b), _random_step(rng, a, b)
    f = _random_cadlag(rng, a, b)
    combo = ei.add_steps(h1.scaled(alpha), h2.scaled(beta))
    lhs = ei.elem_integral(combo, f)
    i1, i2 = ei.elem_integral(h1, f), ei.elem_integral(h2, f)
    for t in ei.probe_points(h1, h2, f):
        if a < t <= b:
            want = alpha * i1(t) + beta * i2(t)
            assert abs(lhs(t) - want) <= 1e-11 * max(1.0, abs(want))


@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=-0.5, max_value=2.5))
@settings(max_examples=60, deadline=None)
def test_stopping_commutes(seed, c):
    rng = np.random.default_rng(seed)
    a, b = 0.0, 2.0
    h = _random_step(rng, a, b)
    f = _random_cadlag(rng, a, b)
    lhs = ei.stop(ei.elem_integral(h, f), c)
    rhs = ei.elem_integral(h, ei.stop(f, c))
    for t in ei.probe_points(h, f, extra=[c]):
        if a < t <= b:
            assert abs(lhs(t) - rhs(t)) <= 1e-12 * max(1.0, abs(lhs(t)))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_union_order_invariance(seed):
    """The union-integral limit cannot depend on enumeration order."""
    rng = np.random.default_rng(seed)
    a, b = 0.0, 1.0
    cuts = sorted(rng.uniform(a, b, size=3))
    ivs = [(a, cuts[1]), (cuts[0], cuts[2]), (cuts[1], b), (cuts[2], b + 0.1)]
    ivs = [(lo, hi) for lo, hi in ivs if lo < hi]
    f = _random_cadlag(rng, a, b + 0.1)
    perm = list(rng.permutation(len(ivs)))
    s1 = ei.LeftIntervalSet(tuple(ivs))
    s2 = ei.LeftIntervalSet(tuple(ivs[i] for i in perm))
    o1 = ei.union_integral(s1, f, (a, b))
    o2 = ei.union_integral(s2, f, (a, b))
    for t in ei.probe_points(s1, f):
        if a < t <= b:
            assert o1(t) == pytest.approx(o2(t), abs=1e-13)
