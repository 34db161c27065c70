"""Run bookkeeping: bias, regret, weighted regret, exploration error, traces.

Regret is the running sum of 0-1 loss differences against an oracle that
thresholds on the true distributions with no exploration. The weighted
variant scales each differing decision by exp(|x - r|) where r is the
four-sigma reference point of the relevant true Gaussian: mu0 + 4*sigma0 for
errors on unqualified agents, mu1 - 4*sigma1 for errors on qualified ones,
so mistakes deeper into the risky region cost exponentially more.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .dist import Family, ParametricEstimate
from .errors import UnsupportedFamilyError
from .policy import FairnessConstraint, GroupId, PairKey, PopulationSpec, solve_thresholds

log = logging.getLogger(__name__)


def bias(omega_hat: float, omega: float) -> float:
    """Absolute error of a reference-point estimate."""
    return abs(omega_hat - omega)


def regret_increment(engine_accept, oracle_accept, y):
    """0-1 loss of the engine's decision minus the oracle's, in {-1, 0, 1}.

    Elementwise on arrays of decisions and labels; int8.
    """
    label1 = np.equal(y, 1)
    loss_e = np.not_equal(engine_accept, label1).astype(np.int8)
    return loss_e - np.not_equal(oracle_accept, label1)


def error_weight(x: float, y: int, true0: ParametricEstimate, true1: ParametricEstimate) -> float:
    """Risk weight for a wrong decision on an agent at feature x.

    Exponential in the distance from the four-standard-deviation reference
    point of the relevant true distribution (above the mean for label 0,
    below it for label 1). Defined for Gaussian truths only.
    """
    if true0.family is not Family.GAUSSIAN or true1.family is not Family.GAUSSIAN:
        raise UnsupportedFamilyError("weighted regret is defined for Gaussian truths only")
    if y == 0:
        ref = true0.params[0] + 4.0 * true0.params[1]
    else:
        ref = true1.params[0] - 4.0 * true1.params[1]
    return math.exp(abs(x - ref))


def exploration_error(
    est0: ParametricEstimate,
    est1: ParametricEstimate,
    theta: float,
    lb: float,
    eps: float,
    n_below_0: int,
    n_below_1: int,
) -> float:
    """Net exploration error for one group over one round.

    [ (F0(theta)-F0(lb))/F0(theta) ] * eps * n'_0
      - [ (F1(theta)-F1(lb))/F1(theta) ] * eps * n'_1
    where n'_y counts the round's below-threshold arrivals with label y.
    A vanishing denominator contributes zero (with a warning).
    """
    total = 0.0
    for est, n, sign in ((est0, n_below_0, 1.0), (est1, n_below_1, -1.0)):
        f_theta = float(est.cdf(theta))
        f_lb = float(est.cdf(lb))
        if f_theta <= 0.0:
            log.warning("exploration error: F(theta) = 0; dropping one term")
            continue
        total += sign * ((f_theta - f_lb) / f_theta) * eps * n
    return total


@dataclass(frozen=True)
class OracleBaseline:
    """Loss-minimizing thresholds on the true distributions (no exploration)."""

    thresholds: Dict[GroupId, float]

    @classmethod
    def solve(cls, population: PopulationSpec, constraint: FairnessConstraint) -> "OracleBaseline":
        return cls(solve_thresholds(population.dists, population.fractions, constraint))


@dataclass
class TraceRow:
    """One row per estimate update (plus the initial state at t = 0)."""

    t: int
    samples_seen: int
    theta: Dict[GroupId, float]
    lb: Dict[GroupId, float]
    eps: Dict[GroupId, float]
    omega_hat: Dict[PairKey, float]
    omega_true: Dict[PairKey, Optional[float]]
    cum_fp: int
    cum_fn: int
    cum_regret: float
    cum_weighted_regret: float
    cum_exploration_error: Dict[GroupId, float]
    ub: Optional[Dict[GroupId, float]] = None
    sigma_hat: Optional[Dict[PairKey, float]] = None

    def bias_of(self, key: PairKey) -> Optional[float]:
        true = self.omega_true.get(key)
        if true is None:
            return None
        return bias(self.omega_hat[key], true)


class RunTrace:
    """Per-update time series for one seeded run, serializable to CSV/JSON."""

    def __init__(self, groups: Sequence[GroupId], pairs: Sequence[PairKey],
                 seed: int, config_hash: str, two_param: bool = False):
        self.groups = list(groups)
        self.pairs = list(pairs)
        self.seed = seed
        self.config_hash = config_hash
        self.two_param = two_param
        self.rows: List[TraceRow] = []

    def append(self, row: TraceRow) -> None:
        if self.rows:
            prev = self.rows[-1]
            if row.samples_seen <= prev.samples_seen:
                raise ValueError("samples_seen must be strictly increasing across rows")
        self.rows.append(row)

    @property
    def final(self) -> TraceRow:
        return self.rows[-1]

    def columns(self) -> List[str]:
        cols = ["t", "samples_seen"]
        for g in self.groups:
            cols += [f"theta_{g}", f"lb_{g}"]
            if self.two_param:
                cols.append(f"ub_{g}")
            cols.append(f"eps_{g}")
        for g, y in self.pairs:
            cols += [f"omega_hat_{g}{y}", f"omega_true_{g}{y}", f"bias_{g}{y}"]
            if self.two_param:
                cols.append(f"sigma_hat_{g}{y}")
        cols += ["cum_fp", "cum_fn", "cum_regret", "cum_weighted_regret"]
        cols += [f"cum_exploration_error_{g}" for g in self.groups]
        return cols

    def _row_values(self, row: TraceRow) -> List:
        def fmt(v) -> str:
            if v is None:
                return "nan"
            return repr(float(v))

        vals: List = [row.t, row.samples_seen]
        for g in self.groups:
            vals += [fmt(row.theta[g]), fmt(row.lb[g])]
            if self.two_param:
                vals.append(fmt((row.ub or {}).get(g)))
            vals.append(fmt(row.eps[g]))
        for key in self.pairs:
            vals += [fmt(row.omega_hat[key]), fmt(row.omega_true.get(key)), fmt(row.bias_of(key))]
            if self.two_param:
                vals.append(fmt((row.sigma_hat or {}).get(key)))
        vals += [row.cum_fp, row.cum_fn, fmt(row.cum_regret), fmt(row.cum_weighted_regret)]
        vals += [fmt(row.cum_exploration_error[g]) for g in self.groups]
        return vals

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(f"# config_hash={self.config_hash} seed={self.seed}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.columns())
            for row in self.rows:
                writer.writerow(self._row_values(row))

    def summary(self) -> Dict:
        last = self.final
        return {
            "seed": self.seed,
            "config_hash": self.config_hash,
            "updates": last.t,
            "samples_seen": last.samples_seen,
            "final_bias": {f"{g}{y}": last.bias_of((g, y)) for g, y in self.pairs},
            "final_omega_hat": {f"{g}{y}": last.omega_hat[(g, y)] for g, y in self.pairs},
            "cum_fp": last.cum_fp,
            "cum_fn": last.cum_fn,
            "cum_regret": last.cum_regret,
            "cum_weighted_regret": last.cum_weighted_regret,
        }


def write_summary(path, traces: Sequence[RunTrace]) -> None:
    """Aggregate per-seed summaries (mean/median of biases and regrets)."""

    def agg(values: List[Optional[float]]) -> Dict[str, Optional[float]]:
        vals = [v for v in values if v is not None]
        if not vals:
            return {"mean": None, "median": None}
        vals = sorted(vals)
        n = len(vals)
        med = vals[n // 2] if n % 2 else 0.5 * (vals[n // 2 - 1] + vals[n // 2])
        return {"mean": sum(vals) / n, "median": med}

    per_seed = [t.summary() for t in traces]
    pair_names = [f"{g}{y}" for g, y in traces[0].pairs] if traces else []
    payload = {
        "config_hash": traces[0].config_hash if traces else None,
        "seeds": [t.seed for t in traces],
        "per_seed": per_seed,
        "aggregate": {
            "final_bias": {
                name: agg([s["final_bias"][name] for s in per_seed]) for name in pair_names
            },
            "cum_regret": agg([s["cum_regret"] for s in per_seed]),
            "cum_weighted_regret": agg([s["cum_weighted_regret"] for s in per_seed]),
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
