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

import bisect
import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np
from scipy import special

from .dist import Family, ParametricEstimate, bracketed_root, gaussian
from .errors import DomainError, NoSolutionError
from .metrics import (
    OracleBaseline,
    RunTrace,
    TraceRow,
    error_weight,
    exploration_error,
    regret_increment,
    weight_ref,
)
from .policy import (
    FairnessConstraint,
    GroupId,
    PairKey,
    PopulationSpec,
    lower_bound,
    require_both_labels,
    solve_thresholds,
    upper_bound,
)
from .stream import ArrivalBlock

log = logging.getLogger(__name__)

_NEG_INF = float("-inf")
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
    pair's batch is its kept arrivals of the round and the fit is
    truncation-corrected for [LB, inf). Otherwise the pool is every kept
    arrival of the run so far, the fit is the plain percentile, and LB is
    -inf when exploring and theta when not.
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
        if not self.step > 0:
            raise DomainError(f"step must be positive, got {self.step}")
        if not math.isfinite(self.gain):
            raise DomainError(f"gain must be finite, got {self.gain}")
        if not self.window >= 1:
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
    f_lb = float(est.cdf(lb))
    ref = min(est.ref_value, est.support[1])
    f_ref = float(est.cdf(ref))
    denom = 1.0 - f_lb
    if denom <= 0.0:
        return 1.0
    return min(max((f_ref - f_lb) / denom, 0.0), 1.0)


class BatchBuffer:
    """The run's retention record: each arrival's value, its pair code
    (2 * group index + label) and whether it was kept for a fit.

    Pair k's batch over arrivals [start, end) is its kept arrivals there,
    in arrival order.
    """

    def __init__(self, xs: np.ndarray, pair: np.ndarray):
        self.xs, self.pair = xs, pair
        self.kept = np.zeros(len(xs), dtype=bool)

    def pool(self, k: int, start: int, end: int) -> np.ndarray:
        return self.xs[start:end][self.kept[start:end] & (self.pair[start:end] == k)]


def update_reference(
    samples: np.ndarray,
    est: ParametricEstimate,
    lb: float = _NEG_INF,
    mode: UpdateMode = UpdateMode.PORTION,
) -> float:
    """New reference value from a batch whose fit corrects for [lb, inf).

    PORTION: linear-interpolation quantile of the batch at the estimate's
    left-portion of [lb, inf). WINDOW_MEDIAN: realized median of the batch
    (expected to hold [LB, theta) samples only).
    """
    portion = 0.5 if mode is UpdateMode.WINDOW_MEDIAN else portion_left(est, lb)
    return float(np.quantile(samples, portion))


@dataclass
class TwoParamState:
    """Running truncated-sample mean/variance (exact pooled recursion)."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

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
    alpha, beta = (a - mu) / sigma, (b - mu) / sigma  # an infinite edge: pdf 0, ndtr 0 or 1
    phi_a, phi_b = _norm_pdf(alpha), _norm_pdf(beta)
    mass = float(special.ndtr(beta)) - float(special.ndtr(alpha))
    if mass <= 0.0:
        raise DomainError("truncation window carries no mass")
    # inf * phi(inf) is NaN, not the limit 0.
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

    return bracketed_root(residual, 1e-4 * root_scale, 1e4 * root_scale, 1e-12, 1e-9,
                          f"sigma for s^2={s_trunc2:.6g} on window [{a:.6g}, {b:.6g}]")


class Engine:
    """One seeded online run: admission, batch collection, estimate updates.

    The engine consumes one block of arrivals round by round. A round ends
    when every (group, label) pair has kept ``batch_gate`` arrivals since
    the round started; the estimates, thresholds and exploration bounds are
    then re-solved and one trace row is emitted. ``record`` marks each
    arrival the fits keep: a bounded engine fits each pair on the round's
    kept arrivals, the others on every kept arrival of the run so far.
    Running out of arrivals before the gate closes terminates the run
    cleanly, discarding the partial batch.

    Each group's state is one element of a per-field array (``theta``,
    ``lb``, ``ub``, ``eps``, ``cum_explore_err``, the adaptive monitor) at
    the group's index in ``groups``; pair (g, y) is ``pairs[2 * index + y]``.
    Arrivals are decided in windows. A group's eps can change only at those
    of its arrivals whose count within the group is a multiple of the
    schedule's window; a window steps eps if it starts at one and ends
    before the next, so each group's policy is one (theta, LB, eps)
    throughout. The run's uniforms are drawn at once: ``rng.random(n)``
    gives the same numbers as n single draws, and an arrival takes the next
    one only when the scalar rule would draw, so every trace matches one
    arrival at a time.
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
        self.groups: Tuple[GroupId, ...] = tuple(sorted({g for g, _ in estimates}))
        self.pairs: List[PairKey] = [(g, y) for g in self.groups for y in (0, 1)]
        require_both_labels("estimates", estimates, self.groups)
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

        n_groups = len(self.groups)
        self.theta = np.empty(n_groups)
        self.lb = np.empty(n_groups)
        self.ub = np.full(n_groups, np.nan)
        self._err_prob = np.zeros(n_groups)
        self._solve_policy()
        self.eps = np.full(n_groups, schedule.eps0)

        self.oracle: Optional[OracleBaseline] = None
        self._weighted_ok = False
        if truth is not None:
            self.oracle = OracleBaseline.solve(truth, constraint)
            missing = [g for g in self.groups if g not in self.oracle.thresholds]
            if missing:
                raise DomainError(f"the true population has no groups {missing}")
            self._oracle_g = np.array([self.oracle.thresholds[g] for g in self.groups])
            self._weighted_ok = all(d.family is Family.GAUSSIAN for d in truth.dists.values())
            if self._weighted_ok:  # indexed by pair code
                self._weight_ref = np.array([weight_ref(truth.dists[k], k[1]) for k in self.pairs])

        self.two_param: Dict[PairKey, TwoParamState] = (
            {key: TwoParamState() for key in self.pairs} if spec.two_param else {})

        self.samples_seen = 0
        self.updates = 0
        self.cum_fp = 0
        self.cum_fn = 0
        self.cum_regret = 0.0
        self.cum_weighted_regret = 0.0 if self._weighted_ok else float("nan")
        self.cum_explore_err = np.zeros(n_groups)
        # The adaptive monitor: label-0 admits at or above theta, and their
        # expected number, since the group's eps last stepped.
        self._mon_obs = np.zeros(n_groups, dtype=np.int64)
        self._mon_exp = np.zeros(n_groups)

        self.trace = RunTrace(self.groups, self.pairs, seed=seed, config_hash=config_hash,
                              two_param=spec.two_param)
        self._true_refs: Dict[PairKey, Optional[float]] = {}
        for key in self.pairs:
            if truth is not None and key in truth.dists:
                level = self.estimates[key].ref_level / 100.0
                self._true_refs[key] = float(truth.dists[key].quantile(level))
            else:
                self._true_refs[key] = None

    def _solve_policy(self) -> None:
        """Solve the thresholds jointly, then each group's LB, UB and, under
        the adaptive schedule, the chance that an admit at or above theta
        has label 0."""
        thetas = solve_thresholds(self.estimates, self.fractions, self.constraint)
        adaptive = self.schedule.mode is ScheduleMode.ADAPTIVE
        for i, g in enumerate(self.groups):
            theta = thetas[g]
            if self.spec.bounded:
                lb = lower_bound(self.estimates[(g, 0)], theta)
            else:
                lb = _NEG_INF if self.spec.explore else theta
            self.theta[i], self.lb[i] = theta, lb
            if self.spec.two_param:
                self.ub[i] = upper_bound(self.estimates[(g, 1)], lb)
            if adaptive:
                p0, p1 = (self.fractions.get((g, y), 0.0)
                          * (1.0 - float(self.estimates[(g, y)].cdf(theta))) for y in (0, 1))
                self._err_prob[i] = 0.0 if p0 + p1 <= 0.0 else p0 / (p0 + p1)

    # -- bookkeeping -----------------------------------------------------

    def _emit_row(self) -> None:
        def by_group(values: np.ndarray) -> Dict[GroupId, float]:
            return dict(zip(self.groups, values.tolist()))

        two_param = self.spec.two_param
        row = TraceRow(
            t=self.updates,
            samples_seen=self.samples_seen,
            theta=by_group(self.theta),
            lb=by_group(self.lb),
            eps=by_group(self.eps),
            omega_hat={k: self.estimates[k].ref_value for k in self.pairs},
            omega_true=dict(self._true_refs),
            cum_fp=self.cum_fp,
            cum_fn=self.cum_fn,
            cum_regret=self.cum_regret,
            cum_weighted_regret=self.cum_weighted_regret,
            cum_exploration_error=by_group(self.cum_explore_err),
            ub=by_group(self.ub) if two_param else None,
            sigma_hat={k: self.estimates[k].params[1] for k in self.pairs}
            if two_param else None,
        )
        self.trace.append(row)

    # -- round machinery ---------------------------------------------------

    def _start_round(self) -> None:
        self._round_start = self.samples_seen
        self._below = np.zeros(len(self.pairs), dtype=np.int64)
        self._round_eps = self.eps.copy()

    def _apply_updates(self) -> None:
        theta, lb, ub = self.theta.tolist(), self.lb.tolist(), self.ub.tolist()
        eps, below = self._round_eps.tolist(), self._below.tolist()
        # Exploration-error term uses the round's estimates/policy, pre-update.
        for i, g in enumerate(self.groups):
            self.cum_explore_err[i] += exploration_error(
                self.estimates[(g, 0)], self.estimates[(g, 1)],
                theta[i], lb[i], eps[i], below[2 * i], below[2 * i + 1],
            )

        bounded = self.spec.bounded
        start = self._round_start if bounded else 0
        for k, key in enumerate(self.pairs):
            i, y = divmod(k, 2)
            batch = self.record.pool(k, start, self.samples_seen)
            if self.spec.two_param:
                state = self.two_param[key]
                for x in batch.tolist():
                    twoparam_update(state, x)
                hi = theta[i] if y == 0 else ub[i]
                sigma = self.estimates[key].params[1]
                try:
                    sigma = recover_sigma(state.variance, state.mean, lb[i], hi)
                except (NoSolutionError, DomainError):
                    log.warning("sigma recovery failed for %s; keeping previous value", key)
                self.estimates[key] = gaussian(state.mean, sigma)
            else:
                mode = self.update_mode if y == 0 else UpdateMode.PORTION
                new_ref = update_reference(batch, self.estimates[key],
                                           lb[i] if bounded else _NEG_INF, mode)
                self.estimates[key] = self.estimates[key].with_ref_value(new_ref)

        self.updates += 1
        self._solve_policy()

    def run(self, arrivals: ArrivalBlock, horizon: int) -> RunTrace:
        """Decide the block's first ``horizon`` arrivals, updating whenever the gate closes.

        The loop reads windows of the arrivals not yet committed: a round's
        first window is twice as long as the previous round, each next one
        twice as long while the gate stays open, so the run decides about
        two arrivals for each one it commits. The arrivals after the one
        that closes the gate carry over to the next round. The run's
        uniforms are drawn here, one per arrival: an arrival draws at most
        one.
        """
        if horizon < 4 * self.batch_gate:
            raise DomainError(f"horizon {horizon} < 4 * batch gate {self.batch_gate}")
        index = {g: i for i, g in enumerate(self.groups)}
        unknown = [g for g in arrivals.groups if g not in index]
        if unknown:
            raise DomainError(f"stream groups {unknown} are not among the engine's groups")
        n = min(horizon, len(arrivals.xs))
        remap = np.array([index[g] for g in arrivals.groups], dtype=np.intp)
        xs, ys, gi = arrivals.xs[:n], arrivals.ys[:n], remap[arrivals.gcodes[:n]]
        self.record = BatchBuffer(xs, 2 * gi + ys)
        # The eps steps, sorted: (arrival index, count within its group) for
        # each arrival whose count is a multiple of the schedule's window.
        w = self.schedule.window
        self._steps = sorted(
            (at, k * w) for i in range(len(self.groups))
            for k, at in enumerate(np.flatnonzero(gi == i)[w - 1::w].tolist(), 1))
        self._uniforms = self.rng.random(n)
        self._upos = 0
        self._emit_row()
        self._start_round()
        size = 2 * len(self.pairs) * self.batch_gate
        while self.samples_seen < n:
            window = slice(self.samples_seen, self.samples_seen + size)
            used, closed = self._window(xs[window], ys[window], gi[window])
            if closed:
                self._apply_updates()
                self._emit_row()
                size = 2 * (self.samples_seen - self._round_start)
                self._start_round()
            elif used == size:
                size *= 2
        # Partial batch at horizon or stream end: metrics counted, estimates
        # untouched.
        if self.samples_seen > self.trace.final.samples_seen:
            self._emit_row()
        return self.trace

    def _window(self, xs: np.ndarray, ys: np.ndarray, gi: np.ndarray) -> Tuple[int, bool]:
        """Decide a window of arrivals and commit it up to the arrival that
        closes the gate, or whole. A window that starts at an eps step of its
        first arrival's group takes that step (and restarts the group's
        monitor) first; it is cut before the next step of any group. Returns
        (arrivals committed, gate closed)."""
        start, steps = self.samples_seen, self._steps
        j = bisect.bisect_left(steps, (start,))
        if j < len(steps) and steps[j][0] == start:
            g = int(gi[0])
            self.eps[g] = advance_epsilon(self.schedule, steps[j][1],
                                          int(self._mon_obs[g]), float(self._mon_exp[g]))
            self._mon_obs[g], self._mon_exp[g] = 0, 0.0
            j += 1
        n = len(xs)
        if j < len(steps):
            n = min(n, steps[j][0] - start)
        xs, ys, gi = xs[:n], ys[:n], gi[:n]

        theta = self.theta[gi]
        fresh = self._uniforms[self._upos:]
        draws, accepted, retained = admission_masks(
            self.spec, xs, theta, self.lb[gi], self.eps[gi], lambda k: fresh[:k])
        above = xs >= theta
        kept = retained
        if self._drop_label0_above:
            kept = kept & ~(above & (ys == 0))
        if self.spec.two_param:
            kept = kept & ~((ys == 1) & (xs > self.ub[gi]))

        close = self._gate_close(kept)
        m = n if close is None else close
        if m < n:
            xs, ys, gi, theta, draws, accepted, above, kept = (
                a[:m] for a in (xs, ys, gi, theta, draws, accepted, above, kept))
        self._upos += int(np.count_nonzero(draws))
        self._commit(xs, ys, gi, theta, accepted, above, kept)
        return m, close is not None

    def _gate_close(self, kept: np.ndarray) -> Optional[int]:
        """How many arrivals of the window, whose ``kept`` mask is given,
        close the gate: up to the one that fills the last pair's batch.
        None if a batch stays short."""
        rec, start, now = self.record, self._round_start, self.samples_seen
        have = np.bincount(rec.pair[start:now][rec.kept[start:now]], minlength=len(self.pairs))
        kpos = np.flatnonzero(kept)
        kpair = rec.pair[now:now + len(kept)][kpos]
        close = 0
        for k in range(len(self.pairs)):
            need = self.batch_gate - int(have[k])
            if need > 0:
                hits = kpos[kpair == k]
                if len(hits) < need:
                    return None
                close = max(close, int(hits[need - 1]) + 1)
        return close

    def _commit(self, xs, ys, gi, theta, accepted, above, kept) -> None:
        """Book the decided arrivals: counts, monitor, regret and retention.

        Every float that is not integer-valued is summed in arrival order."""
        n_pairs = len(self.pairs)
        start = self.samples_seen
        self.samples_seen += len(xs)
        self.record.kept[start:self.samples_seen] = kept
        pair = self.record.pair[start:self.samples_seen]
        self.cum_fp += int(np.count_nonzero(accepted & (ys == 0)))
        self.cum_fn += int(np.count_nonzero(~accepted & (ys == 1)))
        self._below += np.bincount(pair[xs < theta], minlength=n_pairs)

        if self.schedule.mode is ScheduleMode.ADAPTIVE:
            # Every arrival at or above theta is admitted and counted. Each
            # group's row holds its running total, then one term per admit,
            # then zeros, which leave the sum unchanged.
            admits = np.bincount(pair[above], minlength=n_pairs)
            self._mon_obs += admits[0::2]
            count = admits[0::2] + admits[1::2]
            terms = np.where(np.arange(count.max() + 1) <= count[:, None],
                             self._err_prob[:, None], 0.0)
            terms[:, 0] = self._mon_exp
            self._mon_exp = np.cumsum(terms, axis=1)[:, -1]

        if self.oracle is not None:
            diff = regret_increment(accepted, xs >= self._oracle_g[gi], ys)
            nz = np.flatnonzero(diff)
            if len(nz):
                steps = diff[nz]
                self.cum_regret += int(steps.sum())
                if self._weighted_ok:  # summed left to right, in arrival order
                    terms = steps * error_weight(xs[nz], self._weight_ref[pair[nz]])
                    total = np.cumsum([self.cum_weighted_regret, *terms])[-1]
                    self.cum_weighted_regret = float(total)
