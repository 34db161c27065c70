"""The scalar engine loop: one arrival, one decision, one gate check at a time.

``ReferenceEngine`` runs the engine the way the paper states it: every
arrival advances its group's eps, is decided with its own uniform draws,
counted, and retained before the gate is checked again. The block kernel of
``debiasim.engines.Engine`` must write byte-identical traces;
``tests/test_kernel_equivalence.py`` holds it to that. The code below is
the per-arrival loop as it stood in ``src/`` before the kernel replaced it,
with two edits: ``run`` flattens the engine's block stream into
``AgentRecord``s, and ``BatchBuffer.extend([x])`` stands for the removed
``BatchBuffer.add(x)``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from debiasim.engines import (
    Engine,
    EngineSpec,
    ScheduleMode,
    advance_epsilon,
    twoparam_update,
)
from debiasim.errors import DomainError
from debiasim.metrics import RunTrace, error_weight, regret_increment
from debiasim.policy import GroupId, GroupPolicy, PairKey
from debiasim.stream import AgentRecord, ArrivalBlock


def records(blocks: Iterable[ArrivalBlock]) -> Iterator[AgentRecord]:
    """One ``AgentRecord`` per arrival of a block stream, in order."""
    for block in blocks:
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
        self.buffers[key].extend([x])

    def _gate_met(self) -> bool:
        return all(self.buffers[key].new_count >= self.batch_gate for key in self.pairs)

    def run(self, arrivals: Iterable[ArrivalBlock], horizon: int) -> RunTrace:
        """Consume up to ``horizon`` arrivals, updating whenever the gate closes."""
        if horizon < 4 * self.batch_gate:
            raise DomainError(f"horizon {horizon} < 4 * batch gate {self.batch_gate}")
        it = records(arrivals)
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
