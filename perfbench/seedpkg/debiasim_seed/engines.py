"""Online estimation engines under censored feedback.

Four engines share one admission/update skeleton:

* ``ACTIVE_DEBIASING`` admits everyone at or above the threshold and, with
  probability eps, agents inside the bounded exploration window [LB, theta).
  Retained data covers [LB, inf) at a uniform eps rate (above-threshold
  admits are eps-downsampled to match the exploration rate), so each batch is
  an unbiased draw from the truth truncated to [LB, inf); the reference point
  moves to the batch quantile at the estimate's own left-portion.
* ``EXPLOITATION_ONLY`` admits x >= theta only and re-fits the reference
  point as the plain empirical percentile of everything it has admitted,
  with no truncation correction (that blindness is the point of the
  baseline: it drifts upward and stays there).
* ``PURE_EXPLORATION`` admits any below-threshold agent with probability eps
  and eps-downsamples above-threshold admits, so its pool is an unbiased
  i.i.d. sample of the whole population and the empirical percentile is
  consistent.
* ``ACTIVE_TWO_PARAM`` is the Gaussian mean+variance variant: retention
  windows are [LB, theta) for label 0 and [LB, UB] for label 1, both
  symmetric in probability about their reference medians, so the truncated
  sample mean tracks the distribution mean and the truncated sample variance
  inverts to sigma through the truncated-normal variance relation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np
from scipy.optimize import brentq
from scipy.stats import norm

from .dist import Family, ParametricEstimate, gaussian
from .errors import DomainError, InsufficientBatchError, NoSolutionError
from .metrics import (
    OracleBaseline,
    RunTrace,
    TraceRow,
    error_weight,
    exploration_error,
)
from .policy import (
    FairnessConstraint,
    GroupId,
    GroupPolicy,
    PairKey,
    PolicyState,
    PopulationSpec,
    lower_bound,
    solve_thresholds,
    upper_bound,
)

log = logging.getLogger(__name__)

_NEG_INF = float("-inf")


class EngineKind(str, Enum):
    ACTIVE_DEBIASING = "active_debiasing"
    EXPLOITATION_ONLY = "exploitation_only"
    PURE_EXPLORATION = "pure_exploration"
    ACTIVE_TWO_PARAM = "active_two_param"


class UpdateMode(str, Enum):
    """How the label-0 reference point is re-fit from a batch.

    PORTION is the canonical rule: the batch quantile at the estimate's
    left-portion of [LB, inf). WINDOW_MEDIAN re-fits label 0 from the
    realized median of the bounded window [LB, theta) only; label 1 always
    uses the portion rule (its reference sits above the threshold, outside
    any bounded window).
    """

    PORTION = "portion"
    WINDOW_MEDIAN = "window_median"


@dataclass(slots=True)
class AgentRecord:
    x: float
    y: int
    g: GroupId

    def __post_init__(self) -> None:
        if self.y not in (0, 1):
            raise DomainError(f"label must be 0 or 1, got {self.y}")


@dataclass(frozen=True)
class Decision:
    accepted: bool
    retained: bool


class ScheduleMode(str, Enum):
    FIXED_STEP = "fixed_step"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class ExplorationSchedule:
    """Exploration-probability schedule: fixed decrements or error-adaptive."""

    mode: ScheduleMode = ScheduleMode.FIXED_STEP
    step: float = 0.1
    gain: float = 1.0
    window: int = 3000
    eps_min: float = 0.05
    eps0: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.eps_min <= self.eps0 <= 1.0):
            raise DomainError(f"need 0 <= eps_min <= eps0 <= 1, got {self.eps_min}, {self.eps0}")
        if self.step <= 0:
            raise DomainError(f"step must be positive, got {self.step}")
        if self.window < 1:
            raise DomainError(f"window must be >= 1, got {self.window}")


def advance_epsilon(
    schedule: ExplorationSchedule,
    eps: float,
    samples_seen: int,
    observed_err: int = 0,
    expected_err: float = 0.0,
) -> float:
    """Next exploration probability.

    Fixed mode drops eps by ``step`` at every multiple of ``window`` samples
    (floored at eps_min); adaptive mode sets it proportional to the
    discrepancy between observed and expected classification errors among
    above-threshold admits in the last monitor window.
    """
    if schedule.mode is ScheduleMode.FIXED_STEP:
        crossings = samples_seen // schedule.window
        return max(schedule.eps0 - schedule.step * crossings, schedule.eps_min)
    discrepancy = abs(observed_err - expected_err) / max(expected_err, 1.0)
    return min(max(schedule.gain * discrepancy, schedule.eps_min), 1.0)


def decide(
    kind: EngineKind,
    policy: GroupPolicy,
    x: float,
    rng: Optional[np.random.Generator] = None,
    u_explore: Optional[float] = None,
    u_retain: Optional[float] = None,
) -> Decision:
    """Admission and retain-for-update decision for one arriving agent.

    One uniform draw per branch: ``u_explore`` decides below-threshold
    admission (and with it retention); ``u_retain`` independently
    downsamples above-threshold admits. Ties are closed below: x == theta
    admits, x == LB counts as inside the exploration window.
    """
    theta, lb, eps = policy.theta, policy.lb, policy.eps

    if kind is EngineKind.EXPLOITATION_ONLY:
        accepted = x >= theta
        return Decision(accepted, accepted)

    if x >= theta:
        if u_retain is None:
            u_retain = rng.random()
        return Decision(True, u_retain < eps)

    if kind is EngineKind.PURE_EXPLORATION or x >= lb:
        if u_explore is None:
            u_explore = rng.random()
        accepted = u_explore < eps
        return Decision(accepted, accepted)

    return Decision(False, False)


def portion_left(est: ParametricEstimate, lb: float) -> float:
    """Fraction of the estimate's mass on [lb, inf) lying below its reference point.

    With lb = -inf this degenerates to ref_level/100, i.e. the naive
    percentile used by the baselines.
    """
    f_lb = float(est.cdf(lb)) if math.isfinite(lb) else 0.0
    ref = min(est.ref_value, est.support[1])
    f_ref = float(est.cdf(ref))
    denom = 1.0 - f_lb
    if denom <= 0.0:
        return 1.0
    return min(max((f_ref - f_lb) / denom, 0.0), 1.0)


@dataclass
class BatchBuffer:
    """Retained samples for one (group, label) pair plus their collection window."""

    lb: float
    theta: float
    eps: float
    size_gate: int
    update_lb: float = _NEG_INF
    samples: List[float] = field(default_factory=list)
    new_count: int = 0

    def add(self, x: float) -> None:
        self.samples.append(x)
        self.new_count += 1

    def start_round(self, lb: float, theta: float, eps: float, keep_samples: bool) -> None:
        self.lb, self.theta, self.eps = lb, theta, eps
        self.new_count = 0
        if not keep_samples:
            self.samples.clear()


def update_reference(
    buffer: BatchBuffer,
    est: ParametricEstimate,
    mode: UpdateMode = UpdateMode.PORTION,
) -> float:
    """New reference value from a filled batch.

    PORTION: linear-interpolation quantile of the batch at the estimate's
    left-portion of [update_lb, inf). WINDOW_MEDIAN: realized median of the
    batch (the buffer is expected to hold [LB, theta) samples only).
    """
    if buffer.new_count < buffer.size_gate:
        raise InsufficientBatchError(
            f"batch holds {buffer.new_count} new samples, gate is {buffer.size_gate}"
        )
    if mode is UpdateMode.WINDOW_MEDIAN:
        portion = 0.5
    else:
        portion = portion_left(est, buffer.update_lb)
    return float(np.quantile(np.asarray(buffer.samples), portion))


@dataclass
class TwoParamState:
    """Running truncated-sample mean/variance (exact pooled recursion)."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    sigma_hat: float = 1.0

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)


def twoparam_update(state: TwoParamState, x: float) -> TwoParamState:
    """Fold one retained sample into the running mean/variance."""
    state.count += 1
    delta = x - state.mean
    state.mean += delta / state.count
    state.m2 += delta * (x - state.mean)
    return state


def _truncated_variance_factor(mu: float, sigma: float, a: float, b: float) -> float:
    """Var(X | a <= X <= b) / sigma^2 for X ~ N(mu, sigma^2)."""
    alpha = (a - mu) / sigma if math.isfinite(a) else _NEG_INF
    beta = (b - mu) / sigma if math.isfinite(b) else math.inf
    phi_a = float(norm.pdf(alpha)) if math.isfinite(alpha) else 0.0
    phi_b = float(norm.pdf(beta)) if math.isfinite(beta) else 0.0
    cdf_a = float(norm.cdf(alpha)) if math.isfinite(alpha) else 0.0
    cdf_b = float(norm.cdf(beta)) if math.isfinite(beta) else 1.0
    mass = cdf_b - cdf_a
    if mass <= 0.0:
        raise DomainError("truncation window carries no mass")
    ap = alpha * phi_a if math.isfinite(alpha) else 0.0
    bp = beta * phi_b if math.isfinite(beta) else 0.0
    # Third term vanishes for windows symmetric about mu (phi(alpha) == phi(beta)).
    return 1.0 + (ap - bp) / mass - ((phi_a - phi_b) / mass) ** 2


def recover_sigma(s_trunc2: float, mu: float, a: float, b: float) -> float:
    """Invert the truncated-normal variance relation for the full sigma.

    Solves s_trunc2 = sigma^2 * V((a-mu)/sigma, (b-mu)/sigma) by a bracketed
    root find on sigma in [1e-4, 1e4] * sqrt(s_trunc2).
    """
    if not s_trunc2 > 0.0:
        raise DomainError(f"truncated variance must be positive, got {s_trunc2}")
    if not a < b:
        raise DomainError(f"window requires a < b, got [{a}, {b}]")
    if not math.isfinite(a) and not math.isfinite(b):
        return math.sqrt(s_trunc2)

    root_scale = math.sqrt(s_trunc2)

    def residual(sigma: float) -> float:
        return sigma * sigma * _truncated_variance_factor(mu, sigma, a, b) - s_trunc2

    lo, hi = 1e-4 * root_scale, 1e4 * root_scale
    r_lo, r_hi = residual(lo), residual(hi)
    if r_lo == 0.0:
        return lo
    if r_hi == 0.0:
        return hi
    if r_lo * r_hi > 0:
        raise NoSolutionError(
            f"cannot bracket sigma for s^2={s_trunc2:.6g} on window [{a:.6g}, {b:.6g}]"
        )
    return float(brentq(residual, lo, hi, rtol=1e-9, xtol=1e-12))


def _solve_policy(
    kind: EngineKind,
    estimates: Mapping[PairKey, ParametricEstimate],
    fractions: Mapping[PairKey, float],
    constraint: FairnessConstraint,
    groups: Tuple[GroupId, ...],
    eps: Mapping[GroupId, float],
) -> PolicyState:
    thetas = solve_thresholds(estimates, fractions, constraint)
    state = PolicyState()
    for g in groups:
        theta = thetas[g]
        if kind is EngineKind.EXPLOITATION_ONLY:
            lb = theta
        elif kind is EngineKind.PURE_EXPLORATION:
            lb = _NEG_INF
        else:
            lb = lower_bound(estimates[(g, 0)], theta)
        ub = None
        if kind is EngineKind.ACTIVE_TWO_PARAM:
            ub = upper_bound(estimates[(g, 1)], lb)
        state.groups[g] = GroupPolicy(theta=theta, lb=lb, eps=eps[g], ub=ub)
    return state


class Engine:
    """One seeded online run: admission, batch collection, estimate updates.

    The engine consumes an arrival stream round by round. A round ends when
    every in-scope (group, label) buffer has collected ``batch_gate`` new
    samples; the estimates, thresholds and exploration bounds are then
    re-solved and one trace row is emitted. Stream exhaustion before the
    gate closes terminates the run cleanly, discarding the partial batch.
    """

    def __init__(
        self,
        kind: EngineKind,
        estimates: Mapping[PairKey, ParametricEstimate],
        fractions: Mapping[PairKey, float],
        constraint: FairnessConstraint,
        schedule: ExplorationSchedule,
        batch_gate: int,
        rng: np.random.Generator,
        truth: Optional[PopulationSpec] = None,
        update_mode: UpdateMode = UpdateMode.PORTION,
        config_hash: str = "",
        seed: int = 0,
    ):
        if kind is EngineKind.ACTIVE_TWO_PARAM:
            bad = [k for k, e in estimates.items()
                   if e.family is not Family.GAUSSIAN or e.ref_level != 50.0]
            if bad:
                raise DomainError(
                    f"two-parameter mode needs Gaussian estimates with median reference, got {bad}"
                )
        self.kind = kind
        self.estimates: Dict[PairKey, ParametricEstimate] = dict(estimates)
        self.fractions = dict(fractions)
        self.constraint = constraint
        self.schedule = schedule
        self.batch_gate = int(batch_gate)
        self.rng = rng
        self.truth = truth
        self.update_mode = update_mode
        self.pairs: List[PairKey] = sorted(self.estimates)
        self.groups: Tuple[GroupId, ...] = tuple(sorted({g for g, _ in self.pairs}))

        self.eps: Dict[GroupId, float] = {g: schedule.eps0 for g in self.groups}
        self.policy = _solve_policy(kind, self.estimates, self.fractions,
                                    constraint, self.groups, self.eps)

        self.oracle: Optional[OracleBaseline] = None
        self._weighted_ok = False
        if truth is not None:
            self.oracle = OracleBaseline.solve(truth, constraint)
            self._weighted_ok = all(
                d.family is Family.GAUSSIAN for d in truth.dists.values()
            )

        self.two_param: Dict[PairKey, TwoParamState] = {}
        if kind is EngineKind.ACTIVE_TWO_PARAM:
            self.two_param = {
                key: TwoParamState(sigma_hat=self.estimates[key].params[1])
                for key in self.pairs
            }

        self.samples_seen = 0
        self.group_samples: Dict[GroupId, int] = {g: 0 for g in self.groups}
        self.updates = 0
        self.cum_fp = 0
        self.cum_fn = 0
        self.cum_regret = 0.0
        self.cum_weighted_regret = 0.0 if self._weighted_ok else float("nan")
        self.cum_explore_err: Dict[GroupId, float] = {g: 0.0 for g in self.groups}
        self._monitor = {g: {"start": 0, "obs": 0, "exp": 0.0} for g in self.groups}

        keep = kind in (EngineKind.EXPLOITATION_ONLY, EngineKind.PURE_EXPLORATION)
        self._cumulative_pools = keep
        self.buffers: Dict[PairKey, BatchBuffer] = {
            key: BatchBuffer(lb=self.policy[key[0]].lb, theta=self.policy[key[0]].theta,
                             eps=self.eps[key[0]], size_gate=self.batch_gate)
            for key in self.pairs
        }

        self.trace = RunTrace(self.groups, self.pairs, seed=seed, config_hash=config_hash,
                              two_param=bool(self.two_param))
        self._true_refs: Dict[PairKey, Optional[float]] = {}
        for key in self.pairs:
            if truth is not None and key in truth.dists:
                level = self.estimates[key].ref_level / 100.0
                self._true_refs[key] = float(truth.dists[key].quantile(level))
            else:
                self._true_refs[key] = None

    # -- bookkeeping -----------------------------------------------------

    def _emit_row(self) -> None:
        row = TraceRow(
            t=self.updates,
            samples_seen=self.samples_seen,
            theta={g: self.policy[g].theta for g in self.groups},
            lb={g: self.policy[g].lb for g in self.groups},
            eps=dict(self.eps),
            omega_hat={k: self.estimates[k].ref_value for k in self.pairs},
            omega_true=dict(self._true_refs),
            cum_fp=self.cum_fp,
            cum_fn=self.cum_fn,
            cum_regret=self.cum_regret,
            cum_weighted_regret=self.cum_weighted_regret,
            cum_exploration_error=dict(self.cum_explore_err),
            ub={g: self.policy[g].ub for g in self.groups} if self.two_param else None,
            sigma_hat={k: self.two_param[k].sigma_hat for k in self.pairs}
            if self.two_param else None,
        )
        self.trace.append(row)

    def _expected_error_prob(self, g: GroupId) -> float:
        theta = self.policy[g].theta
        p0 = self.fractions.get((g, 0), 0.0) * (1.0 - float(self.estimates[(g, 0)].cdf(theta)))
        p1 = self.fractions.get((g, 1), 0.0) * (1.0 - float(self.estimates[(g, 1)].cdf(theta)))
        if p0 + p1 <= 0.0:
            return 0.0
        return p0 / (p0 + p1)

    def _advance_eps(self, g: GroupId) -> None:
        seen = self.group_samples[g]
        if self.schedule.mode is ScheduleMode.FIXED_STEP:
            self.eps[g] = advance_epsilon(self.schedule, self.eps[g], seen)
            self.policy[g].eps = self.eps[g]
            return
        mon = self._monitor[g]
        if seen - mon["start"] >= self.schedule.window:
            self.eps[g] = advance_epsilon(self.schedule, self.eps[g], seen,
                                          observed_err=mon["obs"], expected_err=mon["exp"])
            self.policy[g].eps = self.eps[g]
            mon["start"], mon["obs"], mon["exp"] = seen, 0, 0.0

    def _retain_in_buffer(self, key: PairKey, x: float, decision: Decision,
                          gp: GroupPolicy) -> None:
        if not decision.retained:
            return
        g, y = key
        if self.kind is EngineKind.ACTIVE_TWO_PARAM:
            if y == 0 and x >= gp.theta:
                return
            if y == 1 and gp.ub is not None and x > gp.ub:
                return
            twoparam_update(self.two_param[key], x)
        elif (self.kind is EngineKind.ACTIVE_DEBIASING
              and self.update_mode is UpdateMode.WINDOW_MEDIAN
              and y == 0 and x >= gp.theta):
            return
        self.buffers[key].add(x)

    # -- round machinery ---------------------------------------------------

    def _start_round(self) -> Dict[GroupId, Dict[str, int]]:
        for key in self.pairs:
            g = key[0]
            gp = self.policy[g]
            buf = self.buffers[key]
            buf.start_round(gp.lb, gp.theta, self.eps[g], keep_samples=self._cumulative_pools)
            buf.update_lb = gp.lb if self.kind in (
                EngineKind.ACTIVE_DEBIASING, EngineKind.ACTIVE_TWO_PARAM
            ) else _NEG_INF
        return {g: {"n0": 0, "n1": 0, "eps": self.eps[g]} for g in self.groups}

    def _gate_met(self) -> bool:
        return all(self.buffers[key].new_count >= self.batch_gate for key in self.pairs)

    def _apply_updates(self, round_counts: Dict[GroupId, Dict[str, int]]) -> None:
        # Exploration-error term uses the round's estimates/policy, pre-update.
        for g in self.groups:
            gp = self.policy[g]
            counts = round_counts[g]
            self.cum_explore_err[g] += exploration_error(
                self.estimates[(g, 0)], self.estimates[(g, 1)],
                gp.theta, gp.lb, counts["eps"], counts["n0"], counts["n1"],
            )

        if self.kind is EngineKind.ACTIVE_TWO_PARAM:
            for key in self.pairs:
                g, y = key
                gp = self.policy[g]
                state = self.two_param[key]
                window = (gp.lb, gp.theta) if y == 0 else (gp.lb, gp.ub)
                try:
                    state.sigma_hat = recover_sigma(
                        state.variance, state.mean, window[0], window[1]
                    )
                except (NoSolutionError, DomainError):
                    log.warning("sigma recovery failed for %s; keeping previous value", key)
                self.estimates[key] = gaussian(state.mean, state.sigma_hat)
        else:
            for key in self.pairs:
                mode = self.update_mode if key[1] == 0 else UpdateMode.PORTION
                new_ref = update_reference(self.buffers[key], self.estimates[key], mode)
                self.estimates[key] = self.estimates[key].with_ref_value(new_ref)

        self.updates += 1
        self.policy = _solve_policy(self.kind, self.estimates, self.fractions,
                                    self.constraint, self.groups, self.eps)

    def run(self, arrivals: Iterable[AgentRecord], horizon: int) -> RunTrace:
        """Consume up to ``horizon`` arrivals, updating whenever the gate closes."""
        if horizon < 4 * self.batch_gate:
            raise DomainError(f"horizon {horizon} < 4 * batch gate {self.batch_gate}")
        it = iter(arrivals)
        self._emit_row()
        exhausted = False
        while self.samples_seen < horizon and not exhausted:
            round_counts = self._start_round()
            while self.samples_seen < horizon:
                try:
                    agent = next(it)
                except StopIteration:
                    exhausted = True
                    break
                self._step_agent(agent, round_counts)
                if self._gate_met():
                    break
            if self._gate_met():
                self._apply_updates(round_counts)
                self._emit_row()
            else:
                # Partial batch at horizon or stream end: metrics counted,
                # estimates untouched.
                if self.samples_seen > self.trace.final.samples_seen:
                    self._emit_row()
                break
        return self.trace

    def _step_agent(self, agent: AgentRecord, round_counts) -> None:
        g, y, x = agent.g, agent.y, agent.x
        gp = self.policy[g]
        self.samples_seen += 1
        self.group_samples[g] += 1
        self._advance_eps(g)

        decision = decide(self.kind, gp, x, self.rng)

        if decision.accepted:
            if y == 0:
                self.cum_fp += 1
        elif y == 1:
            self.cum_fn += 1

        if x < gp.theta:
            counts = round_counts[g]
            if y == 0:
                counts["n0"] += 1
            else:
                counts["n1"] += 1

        if decision.accepted and x >= gp.theta and self.schedule.mode is ScheduleMode.ADAPTIVE:
            mon = self._monitor[g]
            mon["obs"] += int(y == 0)
            mon["exp"] += self._expected_error_prob(g)

        if self.oracle is not None:
            oracle_accept = self.oracle.accept(x, g)
            loss_e = int(decision.accepted != (y == 1))
            loss_o = int(oracle_accept != (y == 1))
            if loss_e != loss_o:
                diff = loss_e - loss_o
                self.cum_regret += diff
                if self._weighted_ok:
                    w = error_weight(x, y, self.truth.dists[(g, 0)], self.truth.dists[(g, 1)])
                    self.cum_weighted_regret += w * diff

        self._retain_in_buffer((g, y), x, decision, gp)
