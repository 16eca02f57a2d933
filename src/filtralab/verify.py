"""Monte Carlo martingale-hypothesis testing.

The testable content of "X is a martingale in the enlarged filtration" is
E[(X_t - X_s) * H_s] = 0 for bounded functionals H_s of the enlarged
time-s information.  The suite evaluates this across a checkpoint grid and
a functional family, with Bonferroni control across entries.

Aggregation is associative over path shards: every statistic reduces to
(count, mean, sum of squared deviations), merged by the Chan-Golub-LeVeque
update, so sharded and whole-ensemble runs agree up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from statistics import NormalDist
from typing import Callable

import numpy as np

from .errors import ConfigurationError, InsufficientSampleError

__all__ = [
    "TestFunctional",
    "SuiteEntry",
    "MartingaleTestReport",
    "MomentAccumulator",
    "bonferroni_threshold",
    "martingale_suite",
]

_BOUND_TOL = 1e-9
_STD_NORMAL = NormalDist()
# log(DBL_MAX): past x*x of this, scipy's erfc(x) (and with it ndtr) returns 0
_ERFC_UNDERFLOW = 709.782712893384


@dataclass(frozen=True)
class TestFunctional:
    """A bounded functional of the information available at the test time s.

    ``evaluate(ctx, s_index)`` returns one value in [-1, 1] per path;
    ``ctx`` carries whatever per-path arrays the scenario exposes (paths,
    supremum, infimum, random times).
    """

    __test__ = False  # not a pytest class despite the name

    id: str
    evaluate: Callable = field(repr=False)

    def values(self, ctx, s_index: int) -> np.ndarray:
        """The evaluated values, refused past the unit bound by more than
        ``_BOUND_TOL`` and clipped to it within that; values inside it come
        back as evaluated (possibly an array ``ctx`` holds), so callers only
        read them."""
        v = np.asarray(self.evaluate(ctx, s_index), dtype=float)
        if not v.size:
            return v
        lo, hi = v.min(), v.max()
        if -1.0 <= lo and hi <= 1.0:
            return v
        if lo < -1.0 - _BOUND_TOL or hi > 1.0 + _BOUND_TOL:
            raise ConfigurationError(f"functional {self.id!r} exceeds the unit bound")
        return np.clip(v, -1.0, 1.0)  # NaN, or values within the tolerance


@dataclass
class MomentAccumulator:
    """(n, mean, sum of squared deviations) of one statistic, or of one per row."""

    n: int = 0
    mean: float | np.ndarray = 0.0
    m2: float | np.ndarray = 0.0

    @np.errstate(over="ignore", invalid="ignore")  # a run refuses what overflows
    def add(self, values: np.ndarray) -> None:
        """Fold in values along their last axis: the mean, then squared deviations."""
        v = np.asarray(values, dtype=float)
        mean = v.mean(axis=-1, keepdims=True)
        shard = MomentAccumulator(v.shape[-1], mean[..., 0], np.square(v - mean).sum(axis=-1))
        vars(self).update(vars(self.merge(shard)))

    @np.errstate(over="ignore", invalid="ignore")
    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        """Chan, Golub and LeVeque's update (Am. Statistician 37(3), 1983).  Into an
        empty accumulator a shard merges as itself: there delta * delta * 0 can be inf * 0."""
        if not self.n:  # 0.0 + reads a -0.0 as 0.0, as the update does
            return MomentAccumulator(other.n, 0.0 + other.mean, 0.0 + other.m2)
        n, delta = self.n + other.n, other.mean - self.mean
        m2 = self.m2 + other.m2 + delta * delta * (self.n * other.n / n)
        return MomentAccumulator(n, self.mean + delta * (other.n / n), m2)

    def stats(self) -> tuple:
        """(mean, stderr, z), elementwise on a vector accumulator; z = 0 where a
        statistic is degenerate at 0, and +inf where it is degenerate elsewhere."""
        if self.n < 100:
            raise InsufficientSampleError(f"need at least 100 samples, got {self.n}")
        stderr = np.sqrt(self.m2 / (self.n - 1) / self.n)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(stderr > 0.0, self.mean / stderr, np.where(self.mean == 0.0, 0.0, np.inf))
        return self.mean, stderr, z[()]  # a 0-d z comes back as a scalar


@dataclass(frozen=True)
class SuiteEntry:
    s: float
    t: float
    functional: str
    mean: float
    stderr: float
    z: float
    n_paths: int
    passed: bool


@dataclass(frozen=True)
class MartingaleTestReport:
    """All per-(s, t, functional) statistics plus the corrected verdict."""

    entries: tuple
    per_entry_threshold: float
    verdict: str  # "pass" or "fail"
    vacuous: bool = False

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def max_abs_z(self) -> float:
        return max((abs(e.z) for e in self.entries), default=0.0)


def bonferroni_threshold(nominal_z: float, n_entries: int) -> float:
    """Per-entry |z| threshold holding the familywise level of nominal_z.

    The nominal two-sided tail mass 2*(1-Phi(nominal_z)) is split evenly
    across entries and mapped back through the Gaussian quantile.  The
    upper tail of each entry, erfc(nominal_z/sqrt 2)/(2 n_entries), is taken
    as 0 where scipy's ``ndtr`` underflows, so the threshold is inf there
    as before; elsewhere this agrees with ``-ndtri(ndtr(-z)/n)`` within a
    few ulp.
    """
    if n_entries <= 1:
        return nominal_z
    x = nominal_z * math.sqrt(0.5)
    tail = 0.0 if x > 0.0 and x * x > _ERFC_UNDERFLOW else math.erfc(x) / (2.0 * n_entries)
    return math.inf if tail == 0.0 else -_STD_NORMAL.inv_cdf(tail)


def martingale_suite(entries: list, threshold: float = 3.0) -> MartingaleTestReport:
    """Judge suite rows at the Bonferroni threshold of ``threshold`` and sort them
    by (s, t, functional); no rows give a vacuous pass, flagged as such."""
    per_entry = bonferroni_threshold(threshold, len(entries))
    judged = sorted((replace(e, passed=abs(e.z) <= per_entry) for e in entries),
                    key=lambda e: (e.s, e.t, e.functional))
    return MartingaleTestReport(
        entries=tuple(judged),
        per_entry_threshold=per_entry,
        verdict="pass" if all(e.passed for e in judged) else "fail",
        vacuous=not judged,
    )
