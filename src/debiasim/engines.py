"""Online estimation engines under censored feedback.

Four engines share one admission/update loop and differ only in the three
fields of their ``EngineSpec`` (see ``ENGINE_SPECS``). The loop works on
blocks of arrivals: within a round every group's policy is fixed, so a
window of arrivals is decided with array masks, and the round closes at the
arrival that fills the last batch.

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
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np
from scipy import special
from scipy.optimize import brentq

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
from .stream import ArrivalBlock

log = logging.getLogger(__name__)

_NEG_INF = float("-inf")
# Admission uniforms drawn per refill of an engine's pool.
_UNIFORM_BLOCK = 8192
_SQRT_2PI = np.sqrt(2 * np.pi)


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


def admission_masks(
    spec: EngineSpec,
    xs: np.ndarray,
    theta,
    lb,
    eps,
    uniforms: Optional[Callable[[int], np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(draws, accepted, retained) masks for a block of arrivals.

    ``theta``, ``lb`` and ``eps`` give each arrival's group policy (arrays
    or scalars). The exploration window is [lb, theta): LB = -inf explores
    everywhere below theta, LB = theta nowhere. An arrival in the window
    draws one uniform and is admitted, and retained, if it falls below eps.
    With ``spec.explore`` an arrival at or above theta also draws one, which
    eps-downsamples its retention; without it every admit is retained.
    ``uniforms(k)`` returns the k uniforms of the drawing arrivals in
    arrival order; it is not called when none draws. Ties are closed below:
    x == theta admits, x == LB counts as inside the exploration window.
    """
    above = xs >= theta
    inwin = ~above & (xs >= lb)
    draws = above | inwin if spec.explore else inwin
    hit = np.zeros(len(xs), dtype=bool)
    k = int(np.count_nonzero(draws))
    if k:
        hit[draws] = uniforms(k) < np.broadcast_to(eps, xs.shape)[draws]
    accepted = above | (inwin & hit)
    retained = hit if spec.explore else above | hit
    return draws, accepted, retained


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

    def extend(self, xs: List[float]) -> None:
        self.samples.extend(xs)
        self.new_count += len(xs)

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


def _norm_pdf(z: float) -> float:
    # scipy.stats.norm.pdf's expression, on an array as scipy evaluates it:
    # numpy's scalar exp differs from its array exp in the last bit.
    return float(np.exp(-np.array([z]) ** 2 / 2.0)[0] / _SQRT_2PI)


def _truncated_variance_factor(mu: float, sigma: float, a: float, b: float) -> float:
    """Var(X | a <= X <= b) / sigma^2 for X ~ N(mu, sigma^2)."""
    alpha = (a - mu) / sigma if math.isfinite(a) else _NEG_INF
    beta = (b - mu) / sigma if math.isfinite(b) else math.inf
    phi_a = _norm_pdf(alpha) if math.isfinite(alpha) else 0.0
    phi_b = _norm_pdf(beta) if math.isfinite(beta) else 0.0
    cdf_a = float(special.ndtr(alpha)) if math.isfinite(alpha) else 0.0
    cdf_b = float(special.ndtr(beta)) if math.isfinite(beta) else 1.0
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

    Arrivals are decided in windows. A window never spans a change of a
    group's eps, so each group's policy is one (theta, LB, eps) throughout.
    Uniforms come from a pool drawn ahead in blocks: ``rng.random(k)`` gives
    the same numbers as k single draws, and an arrival draws only when the
    scalar rule would, so every trace matches one arrival at a time.
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
            missing = [g for g in self.groups if g not in self.oracle.thresholds]
            if missing:
                raise DomainError(f"the true population has no groups {missing}")
            self._oracle_g = np.array([self.oracle.thresholds[g] for g in self.groups])
            self._weighted_ok = all(
                d.family is Family.GAUSSIAN for d in truth.dists.values()
            )
            if self._weighted_ok:
                self._truth_pair = [(truth.dists[(g, 0)], truth.dists[(g, 1)])
                                    for g in self.groups]

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
        # Pair code 2 * group index + label -> index into self.pairs.
        self._slot = np.full(2 * len(self.groups), -1, dtype=np.intp)
        for slot, (g, y) in enumerate(self.pairs):
            self._slot[2 * self.groups.index(g) + y] = slot
        # Admission uniforms drawn ahead; the engine's rng feeds nothing else.
        self._pool = np.empty(0)
        self._upos = 0

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
        # Constant within a round: theta and the estimates change only at its
        # end, when _start_round clears the cache.
        if g not in self._error_prob:
            theta = self.policy[g].theta
            p0 = self.fractions.get((g, 0), 0.0) * (1.0 - float(self.estimates[(g, 0)].cdf(theta)))
            p1 = self.fractions.get((g, 1), 0.0) * (1.0 - float(self.estimates[(g, 1)].cdf(theta)))
            self._error_prob[g] = 0.0 if p0 + p1 <= 0.0 else p0 / (p0 + p1)
        return self._error_prob[g]

    # -- round machinery ---------------------------------------------------

    def _start_round(self) -> Dict[GroupId, Dict[str, int]]:
        bounded = self.spec.bounded
        for key in self.pairs:
            update_lb = self.policy[key[0]].lb if bounded else _NEG_INF
            self.buffers[key].start_round(update_lb, keep_samples=not bounded)
        policy = [self.policy[g] for g in self.groups]
        self._theta_g = np.array([gp.theta for gp in policy])
        self._lb_g = np.array([gp.lb for gp in policy])
        if self.spec.two_param:
            self._ub_g = np.array([gp.ub for gp in policy])
        self._error_prob: Dict[GroupId, float] = {}
        return {g: {"n0": 0, "n1": 0, "eps": self.policy[g].eps} for g in self.groups}

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

    def run(self, arrivals: Iterable[ArrivalBlock], horizon: int) -> RunTrace:
        """Consume up to ``horizon`` arrivals, updating whenever the gate closes.

        ``arrivals`` yields blocks of arrivals. A round reads windows of the
        arrivals not yet committed: the first about twice as long as the
        previous round, each next one twice as long while the gate stays
        open. The arrivals after the one that closes the gate carry over to
        the next round.
        """
        if horizon < 4 * self.batch_gate:
            raise DomainError(f"horizon {horizon} < 4 * batch gate {self.batch_gate}")
        pending = _Pending(arrivals, self.groups)
        self._emit_row()
        size = 2 * len(self.pairs) * self.batch_gate
        while self.samples_seen < horizon:
            start = self.samples_seen
            round_counts = self._start_round()
            if self._collect_round(pending, horizon, size, round_counts):
                self._apply_updates(round_counts)
                self._emit_row()
                size = 2 * (self.samples_seen - start)
            else:
                # Partial batch at horizon or stream end: metrics counted,
                # estimates untouched.
                if self.samples_seen > self.trace.final.samples_seen:
                    self._emit_row()
                break
        return self.trace

    def _collect_round(self, pending: "_Pending", horizon: int, size: int,
                       round_counts: Dict[GroupId, Dict[str, int]]) -> bool:
        """Commit windows of arrivals until the gate closes (True), or until
        the horizon or the stream ends first (False)."""
        while self.samples_seen < horizon:
            xs, ys, gi = pending.peek(min(size, horizon - self.samples_seen))
            if not len(xs):
                return False
            used, closed = self._window(xs, ys, gi, round_counts)
            pending.advance(used)
            if closed:
                return True
            if used == len(xs):
                size *= 2
        return False

    def _eps_plan(self) -> Tuple[List[float], List[Tuple[int, int]], List[bool]]:
        """Each group's eps for the next window; for the groups whose eps can
        change, (group index, arrivals of the group before the change); and
        whether each group's next arrival ends an adaptive monitor window,
        which sets its eps for the window."""
        sched = self.schedule
        width = sched.window
        eps: List[float] = []
        limits: List[Tuple[int, int]] = []
        triggers: List[bool] = []
        for gi, g in enumerate(self.groups):
            nxt = self.group_samples[g] + 1  # the group's count at its next arrival
            trigger = False
            if sched.mode is ScheduleMode.FIXED_STEP:
                eps.append(advance_epsilon(sched, nxt))
                # Once floored, eps never changes again.
                if sched.eps0 - sched.step * (nxt // width) > sched.eps_min:
                    limits.append((gi, (nxt // width + 1) * width - nxt))
            else:
                mon = self._monitor[g]
                trigger = nxt - mon["start"] >= width
                if trigger:
                    eps.append(advance_epsilon(sched, nxt, observed_err=mon["obs"],
                                               expected_err=mon["exp"]))
                    limits.append((gi, width))
                else:
                    eps.append(self.policy[g].eps)
                    limits.append((gi, mon["start"] + width - nxt))
            triggers.append(trigger)
        return eps, limits, triggers

    def _peek_uniforms(self, k: int) -> np.ndarray:
        """The next k admission uniforms, left in the pool until committed."""
        if len(self._pool) - self._upos < k:
            fresh = self.rng.random(max(_UNIFORM_BLOCK, k))
            self._pool = np.concatenate((self._pool[self._upos:], fresh))
            self._upos = 0
        return self._pool[self._upos:self._upos + k]

    def _window(self, xs: np.ndarray, ys: np.ndarray, gi: np.ndarray,
                round_counts: Dict[GroupId, Dict[str, int]]) -> Tuple[int, bool]:
        """Decide a window of arrivals and commit it up to the arrival that
        closes the gate, or whole. The window is first cut before the first
        arrival at which a group's eps can change. Returns (arrivals
        committed, gate closed)."""
        eps, limits, triggers = self._eps_plan()
        n = len(xs)
        for g, limit in limits:
            if limit < n:
                pos = np.flatnonzero(gi[:n] == g)
                if len(pos) > limit:
                    n = int(pos[limit])
        xs, ys, gi = xs[:n], ys[:n], gi[:n]

        theta = self._theta_g[gi]
        draws, accepted, retained = admission_masks(
            self.spec, xs, theta, self._lb_g[gi], np.array(eps)[gi], self._peek_uniforms)
        above = xs >= theta
        kept = retained
        if self._drop_label0_above:
            kept = kept & ~(above & (ys == 0))
        if self.spec.two_param:
            kept = kept & ~((ys == 1) & (xs > self._ub_g[gi]))
        kpos = np.flatnonzero(kept)
        kslot = self._slot[2 * gi[kpos] + ys[kpos]]

        close = self._gate_close(kpos, kslot)
        m = n if close is None else close
        if m < n:
            xs, ys, gi, theta, draws, accepted, above = (
                a[:m] for a in (xs, ys, gi, theta, draws, accepted, above))
            cut = int(np.searchsorted(kpos, m))
            kpos, kslot = kpos[:cut], kslot[:cut]
        self._upos += int(np.count_nonzero(draws))
        self._commit(xs, ys, gi, theta, accepted, above, kpos, kslot,
                     eps, triggers, round_counts)
        return m, close is not None

    def _gate_close(self, kpos: np.ndarray, kslot: np.ndarray) -> Optional[int]:
        """How many arrivals of the window close the gate: up to the one that
        fills the last pair's batch. None if a batch stays short."""
        close = 0
        for slot, key in enumerate(self.pairs):
            need = self.batch_gate - self.buffers[key].new_count
            if need > 0:
                hits = kpos[kslot == slot]
                if len(hits) < need:
                    return None
                close = max(close, int(hits[need - 1]) + 1)
        return close

    def _commit(self, xs, ys, gi, theta, accepted, above, kpos, kslot,
                eps, triggers, round_counts) -> None:
        """Book the decided arrivals: counts, eps state, regret and batches.

        Every float that is not integer-valued is summed in arrival order."""
        n_groups = len(self.groups)
        self.samples_seen += len(xs)
        arrived = np.bincount(gi, minlength=n_groups).tolist()
        for i, g in enumerate(self.groups):
            if arrived[i]:
                if triggers[i]:
                    self._monitor[g] = {"start": self.group_samples[g] + 1, "obs": 0, "exp": 0.0}
                self.group_samples[g] += arrived[i]
                self.policy[g].eps = eps[i]

        label0, label1 = ys == 0, ys == 1
        self.cum_fp += int(np.count_nonzero(accepted & label0))
        self.cum_fn += int(np.count_nonzero(~accepted & label1))
        pair = 2 * gi + ys
        below = np.bincount(pair[xs < theta], minlength=2 * n_groups).tolist()
        for i, g in enumerate(self.groups):
            round_counts[g]["n0"] += below[2 * i]
            round_counts[g]["n1"] += below[2 * i + 1]

        if self.schedule.mode is ScheduleMode.ADAPTIVE:
            # Every arrival at or above theta is admitted and counted.
            admits = np.bincount(pair[above], minlength=2 * n_groups).tolist()
            for i, g in enumerate(self.groups):
                count = admits[2 * i] + admits[2 * i + 1]
                if count:
                    mon = self._monitor[g]
                    mon["obs"] += admits[2 * i]
                    terms = np.full(count + 1, self._expected_error_prob(g))
                    terms[0] = mon["exp"]
                    mon["exp"] = float(np.cumsum(terms)[-1])

        if self.oracle is not None:
            diff = (accepted != label1).astype(np.int8) - ((xs >= self._oracle_g[gi]) != label1)
            nz = np.flatnonzero(diff)
            if len(nz):
                steps = diff[nz]
                self.cum_regret += int(steps.sum())
                if self._weighted_ok:
                    total = self.cum_weighted_regret
                    for d, x, y, g in zip(steps.tolist(), xs[nz].tolist(), ys[nz].tolist(),
                                          gi[nz].tolist()):
                        total += d * error_weight(x, y, *self._truth_pair[g])
                    self.cum_weighted_regret = total

        for slot, key in enumerate(self.pairs):
            batch = xs[kpos[kslot == slot]].tolist()
            if batch:
                self.buffers[key].extend(batch)
                if self.spec.two_param:
                    state = self.two_param[key]
                    for x in batch:
                        twoparam_update(state, x)


class _Pending:
    """Arrivals read from a block stream and not yet committed, with each
    block's group codes mapped to the engine's group indices."""

    def __init__(self, blocks: Iterable[ArrivalBlock], groups: Tuple[GroupId, ...]):
        self._blocks: Iterator[ArrivalBlock] = iter(blocks)
        self._index = {g: i for i, g in enumerate(groups)}
        self.xs = np.empty(0)
        self.ys = np.empty(0, dtype=np.intp)
        self.gi = np.empty(0, dtype=np.intp)
        self.pos = 0

    def peek(self, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next n arrivals, fewer only when the stream runs out."""
        while len(self.xs) - self.pos < n:
            block = next(self._blocks, None)
            if block is None:
                break
            unknown = [g for g in block.groups if g not in self._index]
            if unknown:
                raise DomainError(f"stream groups {unknown} are not among the engine's groups")
            remap = np.array([self._index[g] for g in block.groups], dtype=np.intp)
            rest = slice(self.pos, None)
            self.xs = np.concatenate((self.xs[rest], block.xs))
            self.ys = np.concatenate((self.ys[rest], block.ys))
            self.gi = np.concatenate((self.gi[rest], remap[block.gcodes]))
            self.pos = 0
        end = self.pos + n
        return self.xs[self.pos:end], self.ys[self.pos:end], self.gi[self.pos:end]

    def advance(self, m: int) -> None:
        self.pos += m
