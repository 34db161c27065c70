"""Parametric distribution families (Gaussian, Beta) used by the simulator.

Each estimate designates one parameter as unknown and tracks it through a
reference point: the ``ref_level``-th percentile of the current fit. The
probability calculus goes through scipy.special primitives (erf-based
normal cdf, regularized incomplete beta and their inverses), which are
accurate to near machine precision and cheap enough for per-round solver
loops. Truncated-window statistics and truncated sampling are built on top
of the plain cdf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Tuple

import numpy as np
from scipy import special
from scipy.optimize import brentq

from .errors import DegenerateWindowError, DomainError, NoSolutionError

_INF = float("inf")
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Parameter bracket for root finds on Beta shapes.
_SHAPE_LO, _SHAPE_HI = 1e-4, 1e4


class Family(str, Enum):
    GAUSSIAN = "gaussian"
    BETA = "beta"


@dataclass(frozen=True)
class TruncationWindow:
    """Interval [lo, hi] restricting a distribution; edges may be infinite."""

    lo: float = -_INF
    hi: float = _INF

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise DomainError(f"truncation window requires lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class ParametricEstimate:
    """A distribution fit with one designated unknown parameter.

    params are (mu, sigma) for Gaussian and (a, b) for Beta. Beta lives on
    ``support`` (default [0, 1]); the affine rescale maps score-like data
    onto the unit interval. ``ref_value`` (the ref_level-th percentile) is
    derived, which keeps the percentile/parameter correspondence exact by
    construction.
    """

    family: Family
    params: Tuple[float, float]
    ref_level: float = 50.0
    support: Tuple[float, float] = (0.0, 1.0)
    unknown_index: int = 0

    def __post_init__(self) -> None:
        if self.family is Family.GAUSSIAN:
            if not self.params[1] > 0:
                raise DomainError(f"gaussian sigma must be positive, got {self.params[1]}")
            object.__setattr__(self, "support", (-_INF, _INF))
        else:
            a, b = self.params
            if not (a > 0 and b > 0):
                raise DomainError(f"beta shapes must be positive, got {self.params}")
            if not self.support[0] < self.support[1]:
                raise DomainError(f"beta support requires lo < hi, got {self.support}")
        if not 0.0 < self.ref_level < 100.0:
            raise DomainError(f"ref_level must be in (0, 100), got {self.ref_level}")
        if self.unknown_index not in (0, 1):
            raise DomainError(f"unknown_index must be 0 or 1, got {self.unknown_index}")

    @cached_property
    def ref_value(self) -> float:
        """The ref_level-th percentile of the current fit."""
        return self.quantile(self.ref_level / 100.0)

    def pdf(self, x):
        if self.family is Family.GAUSSIAN:
            mu, sigma = self.params
            z = (np.asarray(x, dtype=float) - mu) / sigma
            out = np.exp(-0.5 * z * z - _LOG_SQRT_2PI) / sigma
            return float(out) if out.ndim == 0 else out
        a, b = self.params
        lo, hi = self.support
        u = (np.asarray(x, dtype=float) - lo) / (hi - lo)
        inside = (u >= 0.0) & (u <= 1.0)
        u_safe = np.where(inside, u, 0.5)
        log_pdf = (special.xlogy(a - 1.0, u_safe) + special.xlog1py(b - 1.0, -u_safe)
                   - special.betaln(a, b))
        out = np.where(inside, np.exp(log_pdf) / (hi - lo), 0.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        if self.family is Family.GAUSSIAN:
            mu, sigma = self.params
            if isinstance(x, float) or isinstance(x, int):
                return float(special.ndtr((x - mu) / sigma)) if math.isfinite(x) else (
                    0.0 if x < 0 else 1.0)
            z = (np.asarray(x, dtype=float) - mu) / sigma
            out = special.ndtr(z)
            return float(out) if out.ndim == 0 else out
        a, b = self.params
        lo, hi = self.support
        u = np.clip((np.asarray(x, dtype=float) - lo) / (hi - lo), 0.0, 1.0)
        out = special.betainc(a, b, u)
        return float(out) if out.ndim == 0 else out

    def quantile(self, p):
        parr = np.asarray(p, dtype=float)
        if np.any(parr <= 0.0) or np.any(parr >= 1.0):
            raise DomainError(f"quantile level must lie in (0, 1), got {p}")
        if self.family is Family.GAUSSIAN:
            mu, sigma = self.params
            out = mu + sigma * special.ndtri(parr)
        else:
            a, b = self.params
            lo, hi = self.support
            out = lo + (hi - lo) * special.betaincinv(a, b, parr)
        return float(out) if np.ndim(out) == 0 else out

    def sample(self, window: TruncationWindow, rng: np.random.Generator, size=None):
        """Draw from this distribution truncated to ``window``.

        Inverse-cdf transform of a uniform draw mapped into [F(lo), F(hi)].
        """
        mass_lo, mass_hi = self.cdf(window.lo), self.cdf(window.hi)
        if mass_hi - mass_lo < 1e-12:
            raise DegenerateWindowError(
                f"window [{window.lo}, {window.hi}] carries mass {mass_hi - mass_lo:.3e}"
            )
        u = rng.uniform(mass_lo, mass_hi, size=size)
        x = self.quantile(u) if size is not None else self.quantile(float(u))
        return x

    def with_ref_value(self, ref_value: float) -> "ParametricEstimate":
        """Re-solve the unknown parameter so the reference point equals ``ref_value``."""
        params = param_from_reference(
            self.family,
            self.params,
            self.unknown_index,
            self.ref_level,
            ref_value,
            support=self.support,
        )
        return replace(self, params=params)


def param_from_reference(
    family: Family,
    known_params: Tuple[float, float],
    unknown_index: int,
    ref_level: float,
    ref_value: float,
    support: Tuple[float, float] = (0.0, 1.0),
) -> Tuple[float, float]:
    """Map a reference-point percentile back to the single unknown parameter.

    Gaussian with unknown mean has the closed form mu = ref_value - sigma*z(p).
    The remaining cases are monotone in the unknown parameter and solved by a
    bracketed root find; failure to bracket inside [1e-4, 1e4] (Beta shapes)
    raises NoSolutionError.
    """
    p = ref_level / 100.0
    if not 0.0 < p < 1.0:
        raise DomainError(f"ref_level must be in (0, 100), got {ref_level}")

    if family is Family.GAUSSIAN:
        z = float(special.ndtri(p))
        if unknown_index == 0:
            mu = ref_value - known_params[1] * z
            return (mu, known_params[1])
        mu = known_params[0]
        if abs(z) < 1e-12:
            raise NoSolutionError("sigma is unidentifiable from the median reference point")
        sigma = (ref_value - mu) / z
        if not sigma > 0:
            raise NoSolutionError(
                f"ref_value {ref_value} is on the wrong side of mu={mu} for level {ref_level}"
            )
        return (mu, sigma)

    lo, hi = support
    if not lo < ref_value < hi:
        raise DomainError(f"ref_value {ref_value} outside beta support [{lo}, {hi}]")
    u = (ref_value - lo) / (hi - lo)

    def residual(shape: float) -> float:
        a, b = (shape, known_params[1]) if unknown_index == 0 else (known_params[0], shape)
        return float(special.betaincinv(a, b, p)) - u

    r_lo, r_hi = residual(_SHAPE_LO), residual(_SHAPE_HI)
    if r_lo == 0.0:
        root = _SHAPE_LO
    elif r_hi == 0.0:
        root = _SHAPE_HI
    elif r_lo * r_hi > 0:
        raise NoSolutionError(
            f"cannot bracket beta shape in [{_SHAPE_LO}, {_SHAPE_HI}] "
            f"for ref ({ref_level}%, {ref_value})"
        )
    else:
        root = brentq(residual, _SHAPE_LO, _SHAPE_HI, xtol=1e-10, rtol=1e-12)
    if unknown_index == 0:
        return (float(root), known_params[1])
    return (known_params[0], float(root))


def gaussian(mu: float, sigma: float, ref_level: float = 50.0,
             unknown_index: int = 0) -> ParametricEstimate:
    return ParametricEstimate(Family.GAUSSIAN, (mu, sigma), ref_level=ref_level,
                              unknown_index=unknown_index)


def beta(a: float, b: float, ref_level: float = 50.0,
         support: Tuple[float, float] = (0.0, 1.0),
         unknown_index: int = 0) -> ParametricEstimate:
    return ParametricEstimate(Family.BETA, (a, b), ref_level=ref_level,
                              support=support, unknown_index=unknown_index)
