"""Test-only numerics and trace lookups; nothing in ``src/`` needs them.

* 50-digit mpmath normal and beta references, a route independent of the
  scipy.special implementation the package uses;
* Monte-Carlo sample medians, checked against ``oracle.median_density``;
* the truncated cdf that the sampling tests check draws against;
* the logistic loss that the scorer tests evaluate a fit with;
* the trace row in force at a given arrival count.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from debiasim.dist import ParametricEstimate, TruncationWindow
from debiasim.errors import DegenerateWindowError, DomainError
from debiasim.metrics import RunTrace, TraceRow
from debiasim.oracle import MedianDensityQuery

mp.mp.dps = 50


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


# -- distributions and traces -------------------------------------------------

def simulate_medians(query: MedianDensityQuery, draws: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Monte-Carlo sample medians of 2m+1 truncated draws (for TV checks)."""
    n = 2 * query.m + 1
    samples = query.dist.sample(query.window, rng, size=(draws, n))
    return np.median(samples, axis=1)


def truncated_cdf(est: ParametricEstimate, window: TruncationWindow, x):
    """cdf of ``est`` restricted to ``window``."""
    mass_lo, mass_hi = est.cdf(window.lo), est.cdf(window.hi)
    mass = mass_hi - mass_lo
    if mass < 1e-12:
        raise DegenerateWindowError(
            f"window [{window.lo}, {window.hi}] carries mass {mass:.3e}"
        )
    return np.clip((est.cdf(x) - mass_lo) / mass, 0.0, 1.0)


def logistic_loss(X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float) -> float:
    z = X @ w + b
    # log(1 + exp(-z*y')) with y' in {-1, +1}, stable form
    margin = np.where(y == 1, z, -z)
    return float(np.mean(np.logaddexp(0.0, -margin)))


def row_at_samples(trace: RunTrace, samples: int) -> TraceRow:
    """Last row of ``trace`` emitted at or before the given arrival count."""
    chosen = trace.rows[0]
    for row in trace.rows:
        if row.samples_seen <= samples:
            chosen = row
        else:
            break
    return chosen
