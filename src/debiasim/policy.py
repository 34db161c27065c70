"""Threshold selection and exploration bounds.

Thresholds minimize the population misclassification error

    sum_g  alpha1_g * F1_g(theta_g) + alpha0_g * (1 - F0_g(theta_g))

subject to an optional fairness constraint. The constraint is enforced by
parametrization rather than penalties: same-decision-rule shares one theta,
equality of opportunity searches over the common true-positive rate. The
exploration lower bound reflects the threshold about the label-0 reference
point in probability: F0(ref) - F0(LB) = F0(theta) - F0(ref).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Dict, Iterable, Mapping, Tuple

import numpy as np

from .dist import ParametricEstimate
from .errors import DomainError, OptimizationError

log = logging.getLogger(__name__)

GroupId = str
Label = int
PairKey = Tuple[GroupId, Label]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class ConstraintKind(str, Enum):
    UNCONSTRAINED = "unconstrained"
    SAME_DECISION_RULE = "same_decision_rule"
    EQUAL_OPPORTUNITY = "equal_opportunity"


@dataclass(frozen=True)
class FairnessConstraint:
    kind: ConstraintKind = ConstraintKind.UNCONSTRAINED
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if self.tolerance < 0:
            raise DomainError(f"constraint tolerance must be >= 0, got {self.tolerance}")


@dataclass(frozen=True)
class PopulationSpec:
    """True (group, label) mixture: mass fractions plus feature distributions."""

    fractions: Mapping[PairKey, float]
    dists: Mapping[PairKey, ParametricEstimate]

    def __post_init__(self) -> None:
        total = sum(self.fractions.values())
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"population fractions must sum to 1, got {total}")
        if any(f < 0 for f in self.fractions.values()):
            raise DomainError("population fractions must be nonnegative")
        missing = set(self.fractions) - set(self.dists)
        if missing:
            raise DomainError(f"missing distributions for pairs {sorted(missing)}")


def require_both_labels(name: str, pairs: Collection[PairKey],
                        groups: Iterable[GroupId]) -> None:
    """Raise ``DomainError`` naming each pair of ``groups`` missing from ``pairs``.

    A round closes only when every (group, label) pair has filled its
    batch, and a group's loss weighs both of its labels, so every group
    needs both.
    """
    missing = [(g, y) for g in sorted(groups) for y in (0, 1) if (g, y) not in pairs]
    if missing:
        raise DomainError(f"{name}: every group needs both labels; missing pairs {missing}")


def expected_loss(
    estimates: Mapping[PairKey, ParametricEstimate],
    fractions: Mapping[PairKey, float],
    thresholds: Mapping[GroupId, float],
) -> float:
    """Misclassification error of group thresholds under the given estimates."""
    loss = 0.0
    for g, theta in thresholds.items():
        loss += fractions.get((g, 1), 0.0) * float(estimates[(g, 1)].cdf(theta))
        loss += fractions.get((g, 0), 0.0) * (1.0 - float(estimates[(g, 0)].cdf(theta)))
    return loss


def _golden_min(f, lo: float, hi: float, tol: float = 1e-6) -> float:
    """Golden-section minimum of a unimodal scalar function on [lo, hi]."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def _search_range(estimates: Mapping[PairKey, ParametricEstimate]) -> Tuple[float, float]:
    los = [est.quantile(0.001) for est in estimates.values()]
    his = [est.quantile(0.999) for est in estimates.values()]
    return min(los), max(his)


def _grid_then_golden(f, lo: float, hi: float, grid: int, tol: float) -> float:
    xs = np.linspace(lo, hi, grid)
    vals = np.array([f(x) for x in xs])
    if not np.any(np.isfinite(vals)):
        raise OptimizationError("objective is non-finite on the entire search grid")
    i = int(np.nanargmin(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, grid - 1)]
    return _golden_min(f, a, b, tol)


def solve_thresholds(
    estimates: Mapping[PairKey, ParametricEstimate],
    fractions: Mapping[PairKey, float],
    constraint: FairnessConstraint = FairnessConstraint(),
    grid: int = 512,
    tol: float = 1e-6,
) -> Dict[GroupId, float]:
    """Loss-minimizing per-group thresholds under the fairness constraint.

    Each case reduces to a 1-D search (coarse grid, then golden-section
    refinement): theta per group when unconstrained, one shared theta for the
    same decision rule, and the common true-positive rate tau for equality of
    opportunity, where theta_g(tau) = Q1_g(1 - tau) holds the constraint
    exactly by construction.
    """
    groups = tuple(sorted({g for g, _ in estimates}))
    kind = constraint.kind
    if kind is not ConstraintKind.EQUAL_OPPORTUNITY:
        # The groups that share one theta: each group alone, or all together.
        shared = [groups] if kind is ConstraintKind.SAME_DECISION_RULE else [(g,) for g in groups]
        lo, hi = _search_range(estimates)
        out: Dict[GroupId, float] = {}
        for members in shared:
            # Refilled in place: a new dict per evaluation costs up to 5% of a solve.
            thresholds = dict.fromkeys(members, 0.0)

            def f(theta: float, thresholds=thresholds) -> float:
                for g in thresholds:
                    thresholds[g] = theta
                return expected_loss(estimates, fractions, thresholds)

            out.update(dict.fromkeys(members, _grid_then_golden(f, lo, hi, grid, tol)))
        return out

    # Equality of opportunity: search over the shared true-positive rate.
    def thetas_at(tau: float) -> Dict[GroupId, float]:
        return {g: estimates[(g, 1)].quantile(1.0 - tau) for g in groups}

    def f_tau(tau: float) -> float:
        return expected_loss(estimates, fractions, thetas_at(tau))

    tau = _grid_then_golden(f_tau, 1e-4, 1.0 - 1e-4, grid, tol=1e-9)
    thetas = thetas_at(tau)
    gaps = [
        abs((1.0 - float(estimates[(g, 1)].cdf(thetas[g]))) - tau) for g in groups
    ]
    if max(gaps) > max(constraint.tolerance, 1e-6):
        log.warning("equal-opportunity TPR residual %.3g exceeds tolerance", max(gaps))
    return thetas


def lower_bound(est0: ParametricEstimate, theta: float) -> float:
    """Exploration depth bound below the threshold.

    Solves F0(LB) = 2*F0(ref) - F0(theta), making the label-0 reference point
    the window median of [LB, theta] under the current estimate. When the
    target probability is <= 0 the window extends to the support edge; when
    theta sits below the reference point the bound clamps to theta (empty
    window) since the reflection is meaningless there.
    """
    ref = est0.ref_value
    if theta < ref:
        log.warning("threshold %.6g below label-0 reference %.6g; clamping LB to theta", theta, ref)
        return theta
    p = 2.0 * (est0.ref_level / 100.0) - float(est0.cdf(theta))
    if p <= 0.0:
        return est0.support[0]
    return est0.quantile(p)


def upper_bound(est1: ParametricEstimate, lb: float) -> float:
    """Mirror of the lower bound on the label-1 estimate.

    Solves F1(UB) = 2*F1(ref1) - F1(LB), making the label-1 reference point
    the window median of [LB, UB]. Clamped to the support supremum when the
    target probability reaches 1.
    """
    p = 2.0 * (est1.ref_level / 100.0) - float(est1.cdf(lb))
    if p >= 1.0:
        return est1.support[1]
    if p <= 0.0:
        # lb already swallows the whole estimate's mass; empty window
        return lb
    ub = est1.quantile(p)
    return max(ub, lb)
