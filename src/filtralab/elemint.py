"""Deterministic elementary-integral calculus for cadlag functions.

The integrand type is a finite left step function sum(d_i * 1_{(x_i, x_{i+1}]})
and the integral against a cadlag f is the finite sum of stopped differences
sum(d_i * (f^{x_{i+1}} - f^{x_i})), where f^c(t) = f(t ^ c).  No measure
theory is involved: every identity here is exact finite arithmetic, and the
test oracle for function equality samples breakpoints, jump locations and
midpoints between adjacent distinguished points.

An unbounded right endpoint is represented by ``math.inf`` and the interval
(a, inf] is read as (a, inf).
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import CoverageError, DataError, DomainError

__all__ = [
    "LeftStepFunction",
    "CadlagFunction",
    "LeftIntervalSet",
    "stop",
    "elem_integral",
    "jump_of_integral",
    "union_integral",
    "probe_points",
]


@dataclass(frozen=True)
class LeftStepFunction:
    """h = sum(levels[i] * 1_{(breakpoints[i], breakpoints[i+1]]}).

    Breakpoints are strictly increasing with breakpoints[0] = a and
    breakpoints[-1] = b; there is exactly one more breakpoint than level.
    """

    breakpoints: tuple
    levels: tuple

    def __post_init__(self):
        x = tuple(float(v) for v in self.breakpoints)
        d = tuple(float(v) for v in self.levels)
        if len(x) != len(d) + 1:
            raise DataError("need exactly one more breakpoint than level")
        if any(not (x[i] < x[i + 1]) for i in range(len(x) - 1)):
            raise DataError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", x)
        object.__setattr__(self, "levels", d)

    @property
    def a(self) -> float:
        return self.breakpoints[0]

    @property
    def b(self) -> float:
        return self.breakpoints[-1]

    def __call__(self, t: float) -> float:
        """Value on the unique covering interval; 0 outside (a, b]."""
        if not (self.a < t <= self.b):
            return 0.0
        # first index with breakpoints[i] >= t; covering interval is i-1
        return self.levels[bisect.bisect_left(self.breakpoints, t) - 1]

    def scaled(self, alpha: float) -> "LeftStepFunction":
        return LeftStepFunction(self.breakpoints, tuple(alpha * d for d in self.levels))


def _combine_steps(g: LeftStepFunction, h: LeftStepFunction, op) -> LeftStepFunction:
    """Pointwise op(g, h) on a common refinement (domains must agree)."""
    if (g.a, g.b) != (h.a, h.b):
        raise DomainError("step functions must share a domain")
    pts = tuple(sorted(set(g.breakpoints) | set(h.breakpoints)))
    levels = tuple(op(g(pts[i + 1]), h(pts[i + 1])) for i in range(len(pts) - 1))
    return LeftStepFunction(pts, levels)


def add_steps(g: LeftStepFunction, h: LeftStepFunction) -> LeftStepFunction:
    """Pointwise sum on a common refinement (domains must agree)."""
    return _combine_steps(g, h, operator.add)


def mul_steps(g: LeftStepFunction, h: LeftStepFunction) -> LeftStepFunction:
    """Pointwise product on a common refinement (domains must agree)."""
    return _combine_steps(g, h, operator.mul)


@dataclass(frozen=True)
class CadlagFunction:
    """A right-continuous function with left limits on (a, b].

    ``fn`` evaluates the function itself (jumps included); ``jumps`` lists
    the locations and sizes of every discontinuity, which is what makes
    ``jump_at`` and the equality oracle computable.  Evaluation at t <= a
    is permitted and returns the left-endpoint convention value fn(t); the
    ``stop`` operation relies on this edge.
    """

    fn: Callable[[float], float] = field(repr=False)
    a: float
    b: float
    jumps: tuple = ()

    def __call__(self, t: float) -> float:
        return float(self.fn(t))

    def jump_at(self, t: float) -> float:
        for loc, size in self.jumps:
            if loc == t:
                return size
        return 0.0


def stop(f: CadlagFunction, c: float) -> CadlagFunction:
    """f^c : t -> f(t ^ c).  Jumps at t <= c survive, later ones vanish."""
    jumps = tuple((loc, size) for loc, size in f.jumps if loc <= c)
    return CadlagFunction(lambda t: f.fn(min(t, c)), f.a, f.b, jumps)


def elem_integral(h: LeftStepFunction, f: CadlagFunction) -> CadlagFunction:
    """sum(d_i * (f^{x_{i+1}} - f^{x_i})) as a cadlag function on (a, b]."""
    if (h.a, h.b) != (f.a, f.b):
        raise DomainError(
            f"integrand domain ({h.a}, {h.b}] does not match integrator ({f.a}, {f.b}]"
        )
    x, d = h.breakpoints, h.levels

    def fn(t: float) -> float:
        # f^t at the breakpoints below t and once at t: f^t is f(t) at every
        # later breakpoint, so the pieces past t add exact zeros and are skipped
        k = bisect.bisect_left(x, t)
        fx = [f.fn(xi) for xi in x[:k]] + [f.fn(t)]
        total = 0.0
        for i, di in enumerate(d[:k]):
            if di != 0.0:
                total += di * (fx[i + 1] - fx[i])
        return total

    jumps = tuple(
        (loc, h(loc) * size)
        for loc, size in f.jumps
        if h.a < loc <= h.b and h(loc) * size != 0.0
    )
    return CadlagFunction(fn, f.a, f.b, jumps)


def jump_of_integral(h: LeftStepFunction, f: CadlagFunction, t: float) -> float:
    """Jump of the elementary integral at t: h(t) * 1_{a < t <= b} * jump of f."""
    if not (h.a < t <= h.b):
        return 0.0
    return h(t) * f.jump_at(t)


def probe_points(*objects, extra: Sequence[float] = ()) -> list:
    """Equality-oracle sample: breakpoints, jump locations, and midpoints.

    Piecewise-defined functions that agree on this set agree everywhere on
    the common domain, which is what the exactness tests rely on.
    """
    pts = set(float(v) for v in extra)
    for obj in objects:
        if isinstance(obj, LeftStepFunction):
            pts.update(obj.breakpoints)
        elif isinstance(obj, CadlagFunction):
            pts.update((obj.a, obj.b))
            pts.update(loc for loc, _ in obj.jumps)
        elif isinstance(obj, LeftIntervalSet):
            for lo, hi in obj.intervals:
                pts.add(lo)
                if math.isfinite(hi):
                    pts.add(hi)
    finite = sorted(p for p in pts if math.isfinite(p))
    mids = [0.5 * (u + v) for u, v in zip(finite, finite[1:]) if v > u]
    return sorted(set(finite) | set(mids))


@dataclass(frozen=True)
class LeftIntervalSet:
    """A finite family of nonempty left intervals (a_i, b_i], overlaps allowed."""

    intervals: tuple

    def __post_init__(self):
        ivs = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        for lo, hi in ivs:
            if not (lo < hi):
                raise DataError(f"empty interval ({lo}, {hi}]")
        object.__setattr__(self, "intervals", ivs)

    def merged(self) -> list:
        """Maximal disjoint components of the union, as (lo, hi] pairs.

        Touching intervals merge: (0,1] u (1,2] = (0,2].
        """
        if not self.intervals:
            return []
        ivs = sorted(self.intervals)
        out = [list(ivs[0])]
        for lo, hi in ivs[1:]:
            if lo <= out[-1][1]:
                out[-1][1] = max(out[-1][1], hi)
            else:
                out.append([lo, hi])
        return [(lo, hi) for lo, hi in out]


def union_integral(
    intervals: LeftIntervalSet,
    f: CadlagFunction,
    window: tuple,
) -> CadlagFunction:
    """Limit of 1_{(a,b]} 1_{union of the first n intervals} . f over (a, b].

    For a finite family the limit is reached at n = len(intervals); when the
    window is covered it is the elementary integral 1_{(a,b]}.f = f^b - f^a.
    A coverage gap raises ``CoverageError`` carrying an uncovered witness
    point, and a window outside the domain of f raises ``DomainError``.
    """
    a, b = float(window[0]), float(window[1])
    if not (a < b):
        raise DomainError(f"empty window ({a}, {b}]")
    components = intervals.merged()
    covering = [c for c in components if c[0] <= a < c[1]]
    if not covering or covering[0][1] < b:
        # witness: first probe point in (a, b] outside the union
        for t in probe_points(intervals, extra=[a, b]):
            if a < t <= b and not any(lo < t <= hi for lo, hi in components):
                raise CoverageError(f"window point {t} is not covered", witness=t)
        witness = covering[0][1] if covering else a + min(1.0, (b - a)) * 0.5
        raise CoverageError(f"window point {witness} is not covered", witness=witness)

    # One component covers (a, b], so every partial union from there on
    # restricts to the window itself.
    x = sorted({f.a, a, b, f.b})
    window_indicator = LeftStepFunction(
        tuple(x), tuple(float(a <= lo and hi <= b) for lo, hi in zip(x, x[1:]))
    )
    return elem_integral(window_indicator, f)
