"""Gluing local semimartingale pieces into a global decomposition.

A ``PieceSystem`` carries a target path S, a reference path S_check that S
agrees with outside the pieces, and a family of random left intervals
(T_i, U_i] with per-piece drifts.  ``glue`` constructs, on the grid: the
predictable set A and its thin complement C, the epsilon ladders
(R_n, d_{R_n}] that exhaust A, the merged drift, the boundary compensators
V+ and V-, and the zero-level residual.

Grid conventions (all exact, no limits are approximated):

* rational time points are realized as grid points;
* a grid point s is covered when T_i < s <= U_i for some piece;
* integrals of interval indicators are sums of stopped differences, the
  elementary-integral semantics of the calculus module;
* the epsilon -> 0 limit is attained at epsilon = dt, where the ladder
  union already equals A bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, InternalConsistencyError
from .grids import GridPath, TimeGrid, cumulative

__all__ = [
    "Piece",
    "PieceSystem",
    "GluedDecomposition",
    "build_sets",
    "assemble_chi_union",
    "glue",
    "boundary_half_local_time",
    "reconstruction_residual",
]

_CHI_UNION_TOL = 1e-12  # relative; overlapping pieces agree on each drift step within it


@dataclass(frozen=True)
class Piece:
    """One random left interval (T, U] with the drift of 1_{(T,U]} . S on it.

    ``chi`` is cumulative and constant outside (T, U].
    """

    T: float
    U: float
    chi: GridPath

    def __post_init__(self):
        if self.T > self.U:
            raise DataError(f"need T <= U, got ({self.T}, {self.U}]")


@dataclass(frozen=True)
class PieceSystem:
    """Target S, reference S_check, and the covering family of pieces.

    The grid points where S and S_check differ must be covered by the
    pieces, and overlapping pieces must carry identical drift increments;
    both are validated by the operations that rely on them.
    """

    S: GridPath
    S_check: GridPath
    pieces: tuple

    def __post_init__(self):
        if self.S.grid != self.S_check.grid:
            raise DataError("S and S_check must share one grid")
        for p in self.pieces:
            if p.chi.grid != self.S.grid:
                raise DataError("piece drift grids must match the system grid")
        object.__setattr__(self, "pieces", tuple(self.pieces))

    @property
    def grid(self) -> TimeGrid:
        return self.S.grid

    @classmethod
    def from_common_drift(
        cls,
        S: GridPath,
        S_check: GridPath,
        intervals,
        drift_increments: np.ndarray,
    ) -> "PieceSystem":
        """Pieces sharing one sigma-finite drift-increment stream.

        Each piece's chi is the cumulative restriction of the common
        per-step increments to its interval, so overlap consistency holds
        by construction.  This is the compact form used when the family is
        large (one piece per grid point in the future-infimum runs).
        """
        inc = np.asarray(drift_increments, dtype=float)
        if len(inc) != S.grid.n:
            raise DataError("need one drift increment per grid step")
        times = S.grid.times()
        pieces = []
        for lo, hi in intervals:
            mask = (times[1:] > lo) & (times[1:] <= hi)
            chi = cumulative(np.where(mask, inc, 0.0))
            pieces.append(Piece(float(lo), float(hi), GridPath(S.grid, chi)))
        return cls(S, S_check, tuple(pieces))

    def covered_mask(self) -> np.ndarray:
        """Boolean mask over grid points: covered by at least one piece."""
        times = self.grid.times()
        mask = np.zeros(self.grid.n + 1, dtype=bool)
        for p in self.pieces:
            mask |= (times > p.T) & (times <= p.U)
        return mask

    def validate_support(self, tol: float = 0.0) -> None:
        """Assumption check: {S != S_check} is contained in the union."""
        diff = np.abs(self.S.values - self.S_check.values)
        bad = np.nonzero((diff > tol) & ~self.covered_mask())[0]
        if len(bad):
            k = int(bad[0])
            raise DataError(
                f"S differs from S_check at uncovered grid index {k} "
                f"(t = {self.grid.times()[k]})"
            )


@dataclass(frozen=True)
class GluedDecomposition:
    """Everything the gluing algorithm produces, on one grid."""

    A_mask: np.ndarray = field(repr=False)
    C_jumps: np.ndarray = field(repr=False)
    chi_union: GridPath
    A_eps_masks: dict = field(repr=False)
    Rn_dRn: dict = field(repr=False)
    V_plus: GridPath
    V_minus: GridPath
    l_union: GridPath


# ---------------------------------------------------------------------------
# set machinery
# ---------------------------------------------------------------------------


def _dR_times(times: np.ndarray, covered: np.ndarray) -> np.ndarray:
    """d_{t_k} per grid point: the first uncovered grid time >= t_k, inf if none."""
    n1 = len(covered)
    first = np.minimum.accumulate(np.where(covered, n1, np.arange(n1))[::-1])[::-1]
    return np.append(times, math.inf)[first]


def _uncovered_prefix_index(grid: TimeGrid, covered: np.ndarray) -> np.ndarray:
    """Index of the largest uncovered grid point < t_k, per k; 0 (g = 0) if none."""
    last = np.maximum.accumulate(np.where(covered, -1, np.arange(grid.n + 1)))
    g = np.concatenate(([-1], last[:-1]))
    return np.maximum(g, 0)


def _mask_runs(mask: np.ndarray):
    """Maximal index runs [a, b] (inclusive) of True entries."""
    padded = np.concatenate(([False], np.asarray(mask, dtype=bool), [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return [(int(a), int(b) - 1) for a, b in zip(edges[::2], edges[1::2])]


def build_sets(system: PieceSystem, eps_list) -> tuple:
    """Grid realization of A, the thin process C, and the epsilon ladders.

    A is the union over grid points s of (s, d_s]; on the grid this is
    exactly the set of points whose predecessor is covered.  For each
    epsilon (a positive multiple of dt) the ladder (R_n, d_{R_n}] is the
    run decomposition of the mask {s : s - g_s > eps}, with R_n one grid
    step before the first masked point of its run, which is where the
    continuum infimum sits.
    """
    grid = system.grid
    times = grid.times()
    covered = system.covered_mask()

    a_mask = np.zeros(grid.n + 1, dtype=bool)
    a_mask[1:] = covered[:-1]

    d = system.S.values - system.S_check.values
    c_jumps = np.zeros(grid.n + 1)
    thin = a_mask & ~covered
    idx = np.nonzero(thin)[0]
    c_jumps[idx] = d[idx] - d[idx - 1]

    g_idx = _uncovered_prefix_index(grid, covered)
    d_times = _dR_times(times, covered)
    eps_masks: dict = {}
    ladders: dict = {}
    for eps in eps_list:
        if eps <= 0.0:
            raise DataError(f"epsilon must be positive, got {eps}")
        m = round(eps / grid.dt)
        if abs(m * grid.dt - eps) > 1e-9 * grid.dt or m < 1:
            raise DataError(f"epsilon {eps} is not a positive multiple of dt")
        # strict inequality t_k - g_k > eps, in exact index arithmetic
        mask = (np.arange(grid.n + 1) - g_idx) > m
        mask &= a_mask
        rungs = []
        for a, _b in _mask_runs(mask):
            # the continuum infimum of the rung sits one grid step before the
            # first masked point; use the stored grid time so rebuilds are exact
            r_n = times[a - 1] if a >= 1 else times[a] - grid.dt
            rungs.append((float(r_n), float(d_times[a])))
        eps_masks[eps] = mask
        ladders[eps] = rungs
    return a_mask, c_jumps, eps_masks, ladders


# ---------------------------------------------------------------------------
# measures and integrals
# ---------------------------------------------------------------------------


def assemble_chi_union(system: PieceSystem) -> GridPath:
    """Merge the per-piece drifts into the union drift.

    On every grid step the covering pieces must agree on the drift
    increment to within ``_CHI_UNION_TOL``; the merged increment is their
    common value and 0 off the union.  The cumulative sum is the
    distribution function whose existence is the gluing condition.
    """
    grid = system.grid
    times_r = grid.times()[1:]
    merged = np.zeros(grid.n)
    have = np.zeros(grid.n, dtype=bool)
    for pi, p in enumerate(system.pieces):
        inc = np.diff(p.chi.values)
        mask = (times_r > p.T) & (times_r <= p.U)
        clash = have & mask
        if np.any(clash):
            bad = np.abs(merged[clash] - inc[clash]) > _CHI_UNION_TOL * np.maximum(
                1.0, np.maximum(np.abs(merged[clash]), np.abs(inc[clash]))
            )
            if np.any(bad):
                k = int(np.nonzero(clash)[0][np.nonzero(bad)[0][0]])
                raise DataError(
                    f"piece {pi} disagrees with an earlier piece on the drift "
                    f"increment at grid step {k + 1} (t = {times_r[k]})"
                )
        merged[mask & ~have] = inc[mask & ~have]
        have |= mask
    return GridPath(grid, cumulative(merged))


def _crossing_overshoot(d: np.ndarray) -> np.ndarray:
    """Per step of d: d^- after a start above 0, d^+ after one at or below 0."""
    left, right = d[:-1], d[1:]
    return np.where(left > 0.0, np.maximum(-right, 0.0), np.maximum(right, 0.0))


def glue(
    system: PieceSystem,
    eps_list,
    jump_mask: np.ndarray | None = None,
    support_tol: float = 0.0,
    strict: bool = True,
) -> GluedDecomposition:
    """Run the whole gluing algorithm and return the decomposition.

    V+ collects the increments of (S - S_check)^+ outside A (the stabilized
    value of the epsilon ladder sums, exact on a finite grid), V- does the
    same for the negative part, and the reconstruction

        S = S_0 + 1_A . (S - S_check) + V+ - V- + (S_check - S_check_0)

    holds exactly.  ``jump_mask`` declares which grid steps carry genuine
    jumps of S - S_check (default: all of them, the honest reading of grid
    data as a cadlag step function).  The zero-level residual l_union is
    the part of the crossing overshoots not explained by declared jumps;
    with everything declared it vanishes identically, and for
    sampled-continuous inputs (no declared jumps) it is the discrete
    local-time residual at 0.

    ``strict=False`` skips the support check and tolerates slightly
    non-monotone compensators; sampled-continuous systems satisfy the
    support assumption only to grid resolution (the target equals the
    reference exactly at piece boundaries in the continuum, approximately
    on a grid), and their V+ is then an estimator rather than an identity.
    """
    if strict:
        system.validate_support(tol=support_tol)
    grid = system.grid
    n = grid.n

    a_mask, c_jumps, eps_masks, ladders = build_sets(system, eps_list)

    chi_union = assemble_chi_union(system)

    d = system.S.values - system.S_check.values
    x_plus = np.maximum(d, 0.0)
    x_minus = np.maximum(-d, 0.0)
    inc_p, inc_m, inc_d = np.diff(x_plus), np.diff(x_minus), np.diff(d)

    off = ~a_mask[1:]
    v_plus_inc = inc_p * off
    v_minus_inc = inc_m * off
    if strict and (np.any(v_plus_inc < 0.0) or np.any(v_minus_inc < 0.0)):
        k = int(np.nonzero((v_plus_inc < 0.0) | (v_minus_inc < 0.0))[0][0])
        raise InternalConsistencyError(
            f"compensator decreases at grid step {k + 1}; "
            "S - S_check is nonzero outside the pieces (Assumption violated)"
        )
    v_plus = cumulative(v_plus_inc)
    v_minus = cumulative(v_minus_inc)

    # Zero-level residual of the Tanaka split of 1_A . (S - S_check)^+.
    if jump_mask is None:
        jump_mask = np.ones(n, dtype=bool)
    else:
        jump_mask = np.asarray(jump_mask, dtype=bool)
        if len(jump_mask) != n:
            raise DataError("jump_mask needs one entry per grid step")
    pos = d[:-1] > 0.0
    declared_overshoot = _crossing_overshoot(d) * jump_mask
    res_plus = (inc_p - np.where(pos, inc_d, 0.0) - declared_overshoot) * a_mask[1:]
    res_minus = (inc_m + np.where(~pos, inc_d, 0.0) - declared_overshoot) * a_mask[1:]
    if np.max(np.abs(res_plus - res_minus), initial=0.0) > 1e-12 * max(
        1.0, float(np.max(np.abs(d)))
    ):
        raise InternalConsistencyError(
            "positive- and negative-part residuals disagree"
        )
    l_union = 2.0 * cumulative(res_plus)

    return GluedDecomposition(
        A_mask=a_mask,
        C_jumps=c_jumps,
        chi_union=chi_union,
        A_eps_masks=eps_masks,
        Rn_dRn=ladders,
        V_plus=GridPath(grid, v_plus),
        V_minus=GridPath(grid, v_minus),
        l_union=GridPath(grid, l_union),
    )


def boundary_half_local_time(
    gap: np.ndarray, weight: np.ndarray, dt: float
) -> float:
    """Half the boundary local time of a reflected-type sampled path.

    ``gap`` holds the distances to the (possibly moving) boundary at the
    grid points of a process that behaves like a reflected Brownian motion
    near that boundary; ``weight`` is the per-step slope of the transform
    whose local time is wanted.  Each step contributes its exact expected
    reflected-bridge local time given the endpoint gaps,

        E[dL | u, v] = 2 sqrt(2 pi dt) erfcx((u+v)/sqrt(2)) r/(1+r),

    with u, v the gaps in sqrt(dt) units and r = exp(-2uv); the kernel
    integral behind it is int_0^h phi_s(u) phi_{h-s}(v) ds =
    (1/2) erfc((u+v)/sqrt(2h)).  This Rao-Blackwellized form is what makes
    pathwise local-time checks feasible: raw ladder sums on a grid miss a
    dt-independent fraction of the boundary mass.
    """
    from scipy.special import erfcx  # imported here: no other gluing code needs it

    gap = np.asarray(gap, dtype=float)
    weight = np.asarray(weight, dtype=float)
    if len(weight) != len(gap) - 1:
        raise DataError("need one weight per grid step")
    if np.any(gap < 0.0):
        raise DataError("gaps must be nonnegative")
    sq = math.sqrt(dt)
    u = gap[:-1] / sq
    v = gap[1:] / sq
    with np.errstate(under="ignore"):
        r = np.exp(-2.0 * u * v)
    kernel = erfcx((u + v) / math.sqrt(2.0)) * r / (1.0 + r)
    return float(0.5 * np.sum(weight * 2.0 * math.sqrt(2.0 * math.pi) * sq * kernel))


def reconstruction_residual(system: PieceSystem, dec: GluedDecomposition) -> np.ndarray:
    """Pointwise error of the reconstruction identity (0 when the glue is exact)."""
    d = system.S.values - system.S_check.values
    one_a_d = cumulative(np.diff(d) * dec.A_mask[1:])
    recon = (
        system.S.values[0]
        + one_a_d
        + dec.V_plus.values
        - dec.V_minus.values
        + (system.S_check.values - system.S_check.values[0])
    )
    return recon - system.S.values
