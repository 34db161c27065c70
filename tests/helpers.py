"""Test-only numerics and trace lookups; nothing in ``src/`` needs them.

* 50-digit mpmath normal and beta references, a route independent of the
  scipy.special implementation the package uses;
* Monte-Carlo sample medians, checked against ``oracle.median_density``;
* the truncated cdf that the sampling tests check draws against;
* the logistic loss that the scorer tests evaluate a fit with;
* the trace row in force at a given arrival count;
* an Adult-style scored CSV and the equal-opportunity replay config built on
  it, with initial fits through ``fit_initial_estimate``.
"""

from __future__ import annotations

import csv

import mpmath as mp
import numpy as np

from debiasim.config import RunConfig, config_from_dict
from debiasim.dist import Family, ParametricEstimate, TruncationWindow
from debiasim.errors import DegenerateWindowError, DomainError
from debiasim.metrics import RunTrace, TraceRow
from debiasim.oracle import MedianDensityQuery
from debiasim.stream import fit_initial_estimate, read_scored_csv

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


# -- Adult-style scored replay --------------------------------------------------

# (group, label) -> the generating Beta (a, b); b is the known shape.
ADULT_STYLE = {
    ("a", 1): (1.94, 3.32), ("a", 0): (1.13, 4.99),
    ("b", 1): (1.97, 3.53), ("b", 0): (1.19, 6.10),
}
REPLAY_FRACS = {("a", 0): 0.35, ("a", 1): 0.35, ("b", 0): 0.15, ("b", 1): 0.15}


def write_adult_style_csv(path, n: int, seed: int) -> None:
    """``n`` scored rows (x, y, g): pairs drawn by ``REPLAY_FRACS``, scores
    from that pair's ``ADULT_STYLE`` Beta."""
    rng = np.random.default_rng(seed)
    pairs = sorted(REPLAY_FRACS)
    probs = np.array([REPLAY_FRACS[k] for k in pairs])
    idx = rng.choice(len(pairs), size=n, p=probs)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "g"])
        for i in idx:
            g, y = pairs[i]
            a_true, b_known = ADULT_STYLE[(g, y)]
            writer.writerow([repr(float(rng.beta(a_true, b_known))), y, g])


def adult_style_replay_config(path: str, n: int, epsilon: dict, shuffle: bool,
                              seeds) -> RunConfig:
    """Active debiasing under equal opportunity over the ``n``-row CSV at
    ``path``. The initial fits come from its leading 2.5% through
    ``fit_initial_estimate``, then are skewed to emulate a biased historical
    training set (the situation the engine is there to correct)."""
    head = read_scored_csv(path)[: int(0.025 * n)]
    initial = {}
    for (g, y), (_, b_known) in ADULT_STYLE.items():
        ref = 50.0 if y == 1 else 60.0
        scores = [r.x for r in head if r.g == g and r.y == y]
        initial[g] = initial.get(g, {})
        est = fit_initial_estimate(scores, Family.BETA, (1.0, b_known), ref_level=ref)
        skew = 0.75 if y == 1 else 1.3
        initial[g][str(y)] = {"family": "beta",
                              "params": [skew * est.params[0], est.params[1]],
                              "ref_level": ref, "support": [0.0, 1.0]}

    population = {
        g: {str(y): {"family": "beta", "params": list(ADULT_STYLE[(g, y)]),
                     "ref_level": 50.0 if y == 1 else 60.0, "support": [0.0, 1.0]}
            for y in (0, 1)}
        for g in ("a", "b")
    }
    return config_from_dict({
        "engine": "active_debiasing",
        "source": {"kind": "csv_replay", "path": path, "shuffle": shuffle},
        "fractions": {"a": {"0": 0.35, "1": 0.35}, "b": {"0": 0.15, "1": 0.15}},
        "population": population,
        "initial_estimates": initial,
        "fairness": {"kind": "equal_opportunity", "tolerance": 1e-6},
        "epsilon": epsilon,
        "batch_gate": 50,
        "horizon": n,
        "seeds": list(seeds),
    })
