"""Independent reference computations for tests and reproducibility.

These deliberately avoid the main implementation paths: the sample-median
density is an order-statistics formula evaluated in log space, the drift
oracle is plain Monte Carlo over the engines' update rule, the brute-force
threshold search is an exhaustive grid, and the high-precision normal/beta
helpers go through mpmath rather than scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import mpmath as mp
import numpy as np
from scipy.special import gammaln

from .dist import ParametricEstimate, TruncationWindow
from .engines import BatchBuffer, UpdateMode, update_reference
from .errors import DomainError
from .policy import FairnessConstraint, ConstraintKind, GroupId, PairKey, expected_loss

mp.mp.dps = 50


@dataclass(frozen=True)
class MedianDensityQuery:
    """Density of the sample median of 2m+1 draws truncated to a window."""

    dist: ParametricEstimate
    window: TruncationWindow
    m: int

    def __post_init__(self) -> None:
        if self.m < 0 or self.m != int(self.m):
            raise DomainError(f"m must be a nonnegative integer, got {self.m}")


def median_density(query: MedianDensityQuery, nu) -> np.ndarray:
    """Evaluate the sample-median density at nu (scalar or array).

    For H the truncated cdf on [lo, hi] and h its density, the median of
    2m+1 draws has density C(m) * H(nu)^m * (1-H(nu))^m * h(nu) with
    C(m) = (2m+1)! / (m! m!), computed via log-gamma for stability. This is
    a Beta(m+1, m+1) density pushed forward by H.
    """
    lo, hi = query.window.lo, query.window.hi
    nu_arr = np.asarray(nu, dtype=float)
    if np.any(nu_arr < lo) or np.any(nu_arr > hi):
        raise DomainError(f"evaluation point outside window [{lo}, {hi}]")
    dist = query.dist
    mass_lo = float(dist.cdf(lo)) if math.isfinite(lo) else 0.0
    mass_hi = float(dist.cdf(hi)) if math.isfinite(hi) else 1.0
    mass = mass_hi - mass_lo
    if mass <= 0.0:
        raise DomainError("window carries no probability mass")
    h = np.asarray(dist.pdf(nu_arr)) / mass
    H = np.clip((np.asarray(dist.cdf(nu_arr)) - mass_lo) / mass, 0.0, 1.0)
    m = query.m
    if m == 0:
        core = np.ones_like(H)
    else:
        log_c = gammaln(2 * m + 2) - 2 * gammaln(m + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            core = np.exp(log_c + m * np.log(H) + m * np.log1p(-H))
        core = np.where(np.isfinite(core), core, 0.0)
    dens = core * h
    return float(dens) if np.ndim(nu) == 0 else dens


def simulate_medians(query: MedianDensityQuery, draws: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Monte-Carlo sample medians of 2m+1 truncated draws (for TV checks)."""
    n = 2 * query.m + 1
    samples = query.dist.sample(query.window, rng, size=(draws, n))
    return np.median(samples, axis=1)


def drift_oracle(
    true_dist: ParametricEstimate,
    est: ParametricEstimate,
    lb: float,
    theta: float,
    batch_size: int,
    replications: int,
    rng: np.random.Generator,
    mode: UpdateMode = UpdateMode.PORTION,
) -> Tuple[float, float]:
    """Mean and stderr of the one-step reference-point drift.

    Each replication draws a batch from the true distribution truncated to
    the engine's collection range ([lb, inf) for the portion rule, [lb,
    theta) for the window-median rule) and applies the engine's own update.
    The exploration rate thins arrivals uniformly over that range, so it does
    not change the batch's distribution and takes no part here.
    """
    if replications < 2:
        raise DomainError(f"need at least 2 replications, got {replications}")
    if batch_size < 1:
        raise DomainError(f"batch size must be >= 1, got {batch_size}")
    hi = theta if mode is UpdateMode.WINDOW_MEDIAN else math.inf
    window = TruncationWindow(lb, hi)
    old_ref = est.ref_value
    drifts = np.empty(replications)
    for i in range(replications):
        batch = true_dist.sample(window, rng, size=batch_size)
        buffer = BatchBuffer(size_gate=batch_size, update_lb=lb,
                             samples=list(batch), new_count=batch_size)
        drifts[i] = update_reference(buffer, est, mode) - old_ref
    return float(drifts.mean()), float(drifts.std(ddof=1) / math.sqrt(replications))


def brute_force_threshold(
    estimates: Mapping[PairKey, ParametricEstimate],
    fractions: Mapping[PairKey, float],
    constraint: FairnessConstraint = FairnessConstraint(),
    grid_resolution: int = 4096,
) -> Tuple[Dict[GroupId, float], float]:
    """Exhaustive grid minimization of the misclassification objective.

    Test oracle for the production solver: same 1-D parametrizations, no
    refinement beyond the grid.
    """
    if grid_resolution < 1000:
        raise DomainError(f"grid resolution must be >= 1000, got {grid_resolution}")
    groups = tuple(sorted({g for g, _ in estimates}))
    lo = min(est.quantile(0.001) for est in estimates.values())
    hi = max(est.quantile(0.999) for est in estimates.values())
    grid = np.linspace(lo, hi, grid_resolution)

    kind = constraint.kind
    if kind is ConstraintKind.UNCONSTRAINED:
        out: Dict[GroupId, float] = {}
        for g in groups:
            losses = [expected_loss(estimates, fractions, {g: t}) for t in grid]
            out[g] = float(grid[int(np.argmin(losses))])
        return out, expected_loss(estimates, fractions, out)

    if kind is ConstraintKind.SAME_DECISION_RULE:
        losses = [expected_loss(estimates, fractions, {g: t for g in groups}) for t in grid]
        theta = float(grid[int(np.argmin(losses))])
        out = {g: theta for g in groups}
        return out, expected_loss(estimates, fractions, out)

    taus = np.linspace(1e-4, 1.0 - 1e-4, grid_resolution)
    best_tau, best_loss = taus[0], math.inf
    for tau in taus:
        thetas = {g: estimates[(g, 1)].quantile(1.0 - tau) for g in groups}
        loss = expected_loss(estimates, fractions, thetas)
        if loss < best_loss:
            best_tau, best_loss = tau, loss
    out = {g: float(estimates[(g, 1)].quantile(1.0 - best_tau)) for g in groups}
    return out, best_loss


# -- high-precision references (mpmath route, independent of scipy) ---------

def normal_cdf_ref(z: float) -> float:
    """Standard normal cdf via mpmath erf at 50 digits."""
    return float(mp.mpf(1) / 2 * (1 + mp.erf(mp.mpf(z) / mp.sqrt(2))))


def normal_pdf_ref(z: float) -> float:
    return float(mp.exp(-mp.mpf(z) ** 2 / 2) / mp.sqrt(2 * mp.pi))


def normal_quantile_ref(p: float, tol: float = 1e-12) -> float:
    """Invert the mpmath normal cdf by bisection."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile level must be in (0, 1), got {p}")
    lo, hi = -40.0, 40.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if normal_cdf_ref(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def beta_cdf_ref(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta via mpmath."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    return float(mp.betainc(a, b, 0, x, regularized=True))


def beta_quantile_ref(p: float, a: float, b: float, tol: float = 1e-12) -> float:
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile level must be in (0, 1), got {p}")
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if beta_cdf_ref(mid, a, b) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
