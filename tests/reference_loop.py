"""The scalar engine loop: one arrival, one decision, one gate check at a time.

``ReferenceEngine`` runs the engine the way the paper states it: every
arrival advances its group's eps, is decided with its own uniform draws,
counted, and retained before the gate is checked again. The block kernel of
``debiasim.engines.Engine`` must write byte-identical traces;
``tests/test_kernel_equivalence.py`` holds it to that. The code below is
the per-arrival loop as it stood in ``src/`` before the kernel replaced it,
with these edits:

* ``run`` flattens the run's block of arrivals into ``AgentRecord``s;
* a retained arrival is marked in the engine's retention record
  (``Engine.record.kept``) instead of appended to a per-pair buffer, and
  ``_gate_met`` counts each pair's retained arrivals since the round started
  itself; ``_apply_updates`` fits the batches, and folds the two-parameter
  moments, from that record at round close;
* ``x >= thresholds[g]`` stands for the removed ``OracleBaseline.accept(x, g)``;
* the engine keeps each group's state in arrays, so ``GroupPolicy`` is the
  local NamedTuple below, built per arrival from ``Engine.theta``, ``lb``,
  ``ub`` and ``eps``; eps is written back to ``Engine.eps``, the round's
  below-threshold counts go to ``Engine._below`` by pair code
  (2 * group index + label), and the monitor adds ``Engine._err_prob``;
* the per-arrival counters ``group_samples`` and ``_monitor`` and the eps
  rule ``_advance_eps`` are kept here. The kernel steps eps only at
  precomputed arrival counts; this loop re-derives each step one arrival
  at a time, so the equivalence test checks those positions.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Tuple

import numpy as np

from debiasim.engines import (
    BatchBuffer,
    Engine,
    EngineSpec,
    ScheduleMode,
    advance_epsilon,
)
from debiasim.errors import DomainError
from debiasim.metrics import RunTrace, error_weight, regret_increment, weight_ref
from debiasim.policy import GroupId, PairKey
from debiasim.stream import AgentRecord, ArrivalBlock


class GroupPolicy(NamedTuple):
    """Admission state for one group: threshold, exploration bounds, frequency."""

    theta: float
    lb: float
    eps: float
    ub: Optional[float] = None


def records(block: ArrivalBlock) -> Iterator[AgentRecord]:
    """One ``AgentRecord`` per arrival of a block, in order."""
    for x, y, code in zip(block.xs.tolist(), block.ys.tolist(), block.gcodes.tolist()):
        yield AgentRecord(x, y, block.groups[code])


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


class ReferenceEngine(Engine):
    """``Engine`` with the per-arrival loop in place of the block kernel."""

    def _policy(self, i: int) -> GroupPolicy:
        ub = float(self.ub[i]) if self.spec.two_param else None
        return GroupPolicy(float(self.theta[i]), float(self.lb[i]), float(self.eps[i]), ub)

    def _advance_eps(self, g: GroupId, i: int) -> None:
        seen = self.group_samples[g]
        if self.schedule.mode is ScheduleMode.FIXED_STEP:
            self.eps[i] = advance_epsilon(self.schedule, seen)
            return
        mon = self._monitor[g]
        if seen - mon["start"] >= self.schedule.window:
            self.eps[i] = advance_epsilon(self.schedule, seen, observed_err=mon["obs"],
                                          expected_err=mon["exp"])
            mon["start"], mon["obs"], mon["exp"] = seen, 0, 0.0

    def _retain_in_buffer(self, key: PairKey, x: float, gp: GroupPolicy) -> None:
        if key[1] == 0:
            if x >= gp.theta and self._drop_label0_above:
                return
        elif gp.ub is not None and x > gp.ub:
            return
        self.record.kept[self.samples_seen - 1] = True
        self._new[self.pairs.index(key)] += 1

    def _gate_met(self) -> bool:
        return all(count >= self.batch_gate for count in self._new)

    def run(self, arrivals: ArrivalBlock, horizon: int) -> RunTrace:
        """Consume up to ``horizon`` arrivals, updating whenever the gate closes."""
        if horizon < 4 * self.batch_gate:
            raise DomainError(f"horizon {horizon} < 4 * batch gate {self.batch_gate}")
        self.group_samples = {g: 0 for g in self.groups}
        self._monitor = {g: {"start": 0, "obs": 0, "exp": 0.0} for g in self.groups}
        n = min(horizon, len(arrivals.xs))
        index = [self.groups.index(g) for g in arrivals.groups]
        pair = [2 * index[c] + y for c, y in zip(arrivals.gcodes[:n].tolist(),
                                                 arrivals.ys[:n].tolist())]
        self.record = BatchBuffer(arrivals.xs[:n], np.array(pair, dtype=np.intp))
        it = records(arrivals)
        self._emit_row()
        exhausted = False
        while self.samples_seen < horizon and not exhausted:
            self._start_round()
            self._new = [0] * len(self.pairs)
            while self.samples_seen < horizon:
                try:
                    agent = next(it)
                except StopIteration:
                    exhausted = True
                    break
                self._step_agent(agent)
                if self._gate_met():
                    break
            if self._gate_met():
                self._apply_updates()
                self._emit_row()
            else:
                # Partial batch at horizon or stream end: metrics counted,
                # estimates untouched.
                if self.samples_seen > self.trace.final.samples_seen:
                    self._emit_row()
                break
        return self.trace

    def _step_agent(self, agent: AgentRecord) -> None:
        x, y, g = agent
        i = self.groups.index(g)
        self.samples_seen += 1
        self.group_samples[g] += 1
        self._advance_eps(g, i)
        gp = self._policy(i)

        accepted, retained = decide(self.spec, gp, x, self.rng)

        if accepted:
            if y == 0:
                self.cum_fp += 1
        elif y == 1:
            self.cum_fn += 1

        if x < gp.theta:
            self._below[2 * i + y] += 1

        if accepted and x >= gp.theta and self.schedule.mode is ScheduleMode.ADAPTIVE:
            mon = self._monitor[g]
            mon["obs"] += int(y == 0)
            mon["exp"] += float(self._err_prob[i])

        if self.oracle is not None:
            diff = regret_increment(accepted, x >= self.oracle.thresholds[g], y)
            if diff:
                self.cum_regret += diff
                if self._weighted_ok:
                    self.cum_weighted_regret += diff * error_weight(
                        x, weight_ref(self.truth.dists[(g, y)], y))

        if retained:
            self._retain_in_buffer((g, y), x, gp)
