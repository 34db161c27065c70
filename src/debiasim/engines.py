"""Online estimation engines under censored feedback.

Four engines share one admission/update loop and differ only in the three
fields of their ``EngineSpec`` (see ``ENGINE_SPECS``):

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
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

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
    regret_increment,
)
from .policy import (
    FairnessConstraint,
    GroupId,
    GroupPolicy,
    PairKey,
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


@dataclass(frozen=True)
class EngineSpec:
    """What sets one engine apart from the others.

    ``bounded``: LB reflects theta about the label-0 reference point, each
    round's batch starts empty and the fit is truncation-corrected for
    [LB, inf). Otherwise the pool accumulates over rounds, the fit is the
    plain percentile, and LB is -inf when exploring and theta when not.
    ``explore``: admit inside [LB, theta) with probability eps and
    eps-downsample the retention of admits above theta. Otherwise retain
    every admit and draw no uniform. ``two_param``: bound the label-1
    window above as well (UB) and re-fit mean and sigma from running
    truncated moments.
    """

    bounded: bool
    explore: bool
    two_param: bool


ENGINE_SPECS: Dict[EngineKind, EngineSpec] = {
    EngineKind.ACTIVE_DEBIASING: EngineSpec(bounded=True, explore=True, two_param=False),
    EngineKind.ACTIVE_TWO_PARAM: EngineSpec(bounded=True, explore=True, two_param=True),
    EngineKind.PURE_EXPLORATION: EngineSpec(bounded=False, explore=True, two_param=False),
    EngineKind.EXPLOITATION_ONLY: EngineSpec(bounded=False, explore=False, two_param=False),
}


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


class AgentRecord(NamedTuple):
    x: float
    y: int
    g: GroupId


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
    spec: EngineSpec,
    policy: GroupPolicy,
    x: float,
    rng: Optional[np.random.Generator] = None,
    u_explore: Optional[float] = None,
    u_retain: Optional[float] = None,
) -> Tuple[bool, bool]:
    """(accepted, retained) for one arriving agent.

    The exploration window is [policy.lb, theta): LB = -inf explores
    everywhere below theta, LB = theta nowhere. One uniform draw per branch,
    and none without ``spec.explore``: ``u_explore`` decides window
    admission (and with it retention); ``u_retain`` independently
    downsamples above-threshold admits. Ties are closed below: x == theta
    admits, x == LB counts as inside the exploration window.
    """
    if x >= policy.theta:
        if not spec.explore:
            return True, True
        if u_retain is None:
            u_retain = rng.random()
        return True, u_retain < policy.eps

    if x >= policy.lb:
        if u_explore is None:
            u_explore = rng.random()
        accepted = u_explore < policy.eps
        return accepted, accepted

    return False, False


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
    """Retained samples for one (group, label) pair and the LB their fit corrects for."""

    size_gate: int
    update_lb: float = _NEG_INF
    samples: List[float] = field(default_factory=list)
    new_count: int = 0

    def add(self, x: float) -> None:
        self.samples.append(x)
        self.new_count += 1

    def start_round(self, update_lb: float, keep_samples: bool) -> None:
        self.update_lb = update_lb
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
        self.spec = spec = ENGINE_SPECS[kind]
        if spec.two_param:
            bad = [k for k, e in estimates.items()
                   if e.family is not Family.GAUSSIAN or e.ref_level != 50.0]
            if bad:
                raise DomainError(
                    f"two-parameter mode needs Gaussian estimates with median reference, got {bad}"
                )
        self.estimates: Dict[PairKey, ParametricEstimate] = dict(estimates)
        self.fractions = dict(fractions)
        self.constraint = constraint
        self.schedule = schedule
        self.batch_gate = int(batch_gate)
        self.rng = rng
        self.truth = truth
        self.update_mode = update_mode
        # Label-0 admits at or above theta are kept out of the fit when it
        # only looks below theta: the two-parameter window [LB, theta), or a
        # bounded engine's window median.
        self._drop_label0_above = spec.two_param or (
            spec.bounded and update_mode is UpdateMode.WINDOW_MEDIAN
        )
        self.pairs: List[PairKey] = sorted(self.estimates)
        self.groups: Tuple[GroupId, ...] = tuple(sorted({g for g, _ in self.pairs}))

        self.policy = self._solve_policy({g: schedule.eps0 for g in self.groups})

        self.oracle: Optional[OracleBaseline] = None
        self._weighted_ok = False
        if truth is not None:
            self.oracle = OracleBaseline.solve(truth, constraint)
            self._weighted_ok = all(
                d.family is Family.GAUSSIAN for d in truth.dists.values()
            )

        self.two_param: Dict[PairKey, TwoParamState] = {}
        if spec.two_param:
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

        self.buffers: Dict[PairKey, BatchBuffer] = {
            key: BatchBuffer(size_gate=self.batch_gate) for key in self.pairs
        }

        self.trace = RunTrace(self.groups, self.pairs, seed=seed, config_hash=config_hash,
                              two_param=spec.two_param)
        self._true_refs: Dict[PairKey, Optional[float]] = {}
        for key in self.pairs:
            if truth is not None and key in truth.dists:
                level = self.estimates[key].ref_level / 100.0
                self._true_refs[key] = float(truth.dists[key].quantile(level))
            else:
                self._true_refs[key] = None

    def _solve_policy(self, eps: Mapping[GroupId, float]) -> Dict[GroupId, GroupPolicy]:
        thetas = solve_thresholds(self.estimates, self.fractions, self.constraint)
        policy: Dict[GroupId, GroupPolicy] = {}
        for g in self.groups:
            theta = thetas[g]
            if self.spec.bounded:
                lb = lower_bound(self.estimates[(g, 0)], theta)
            else:
                lb = _NEG_INF if self.spec.explore else theta
            ub = upper_bound(self.estimates[(g, 1)], lb) if self.spec.two_param else None
            policy[g] = GroupPolicy(theta=theta, lb=lb, eps=eps[g], ub=ub)
        return policy

    # -- bookkeeping -----------------------------------------------------

    def _emit_row(self) -> None:
        two_param = self.spec.two_param
        row = TraceRow(
            t=self.updates,
            samples_seen=self.samples_seen,
            theta={g: self.policy[g].theta for g in self.groups},
            lb={g: self.policy[g].lb for g in self.groups},
            eps={g: self.policy[g].eps for g in self.groups},
            omega_hat={k: self.estimates[k].ref_value for k in self.pairs},
            omega_true=dict(self._true_refs),
            cum_fp=self.cum_fp,
            cum_fn=self.cum_fn,
            cum_regret=self.cum_regret,
            cum_weighted_regret=self.cum_weighted_regret,
            cum_exploration_error=dict(self.cum_explore_err),
            ub={g: self.policy[g].ub for g in self.groups} if two_param else None,
            sigma_hat={k: self.two_param[k].sigma_hat for k in self.pairs}
            if two_param else None,
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
            self.policy[g].eps = advance_epsilon(self.schedule, seen)
            return
        mon = self._monitor[g]
        if seen - mon["start"] >= self.schedule.window:
            self.policy[g].eps = advance_epsilon(self.schedule, seen, observed_err=mon["obs"],
                                                 expected_err=mon["exp"])
            mon["start"], mon["obs"], mon["exp"] = seen, 0, 0.0

    def _retain_in_buffer(self, key: PairKey, x: float, gp: GroupPolicy) -> None:
        if key[1] == 0:
            if x >= gp.theta and self._drop_label0_above:
                return
        elif gp.ub is not None and x > gp.ub:
            return
        if self.spec.two_param:
            twoparam_update(self.two_param[key], x)
        self.buffers[key].add(x)

    # -- round machinery ---------------------------------------------------

    def _start_round(self) -> Dict[GroupId, Dict[str, int]]:
        bounded = self.spec.bounded
        for key in self.pairs:
            update_lb = self.policy[key[0]].lb if bounded else _NEG_INF
            self.buffers[key].start_round(update_lb, keep_samples=not bounded)
        return {g: {"n0": 0, "n1": 0, "eps": self.policy[g].eps} for g in self.groups}

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

        for key in self.pairs:
            if self.spec.two_param:
                g, y = key
                gp = self.policy[g]
                state = self.two_param[key]
                hi = gp.theta if y == 0 else gp.ub
                try:
                    state.sigma_hat = recover_sigma(state.variance, state.mean, gp.lb, hi)
                except (NoSolutionError, DomainError):
                    log.warning("sigma recovery failed for %s; keeping previous value", key)
                self.estimates[key] = gaussian(state.mean, state.sigma_hat)
            else:
                mode = self.update_mode if key[1] == 0 else UpdateMode.PORTION
                new_ref = update_reference(self.buffers[key], self.estimates[key], mode)
                self.estimates[key] = self.estimates[key].with_ref_value(new_ref)

        self.updates += 1
        self.policy = self._solve_policy({g: gp.eps for g, gp in self.policy.items()})

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
        x, y, g = agent
        gp = self.policy[g]
        self.samples_seen += 1
        self.group_samples[g] += 1
        self._advance_eps(g)

        accepted, retained = decide(self.spec, gp, x, self.rng)

        if accepted:
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

        if accepted and x >= gp.theta and self.schedule.mode is ScheduleMode.ADAPTIVE:
            mon = self._monitor[g]
            mon["obs"] += int(y == 0)
            mon["exp"] += self._expected_error_prob(g)

        if self.oracle is not None:
            diff = regret_increment(accepted, self.oracle.accept(x, g), y)
            if diff:
                self.cum_regret += diff
                if self._weighted_ok:
                    self.cum_weighted_regret += diff * error_weight(
                        x, y, self.truth.dists[(g, 0)], self.truth.dists[(g, 1)])

        if retained:
            self._retain_in_buffer((g, y), x, gp)
