"""Engine mechanics: decisions, batch updates, schedules, two-parameter mode."""

import math
from pathlib import Path

import numpy as np
import pytest

from debiasim.config import config_from_dict
from debiasim.dist import TruncationWindow, gaussian
from debiasim.engines import (
    ENGINE_SPECS,
    BatchBuffer,
    Engine,
    EngineKind,
    ExplorationSchedule,
    ScheduleMode,
    TwoParamState,
    UpdateMode,
    admission_masks,
    advance_epsilon,
    portion_left,
    recover_sigma,
    twoparam_update,
    update_reference,
)
from debiasim import engines
from debiasim.errors import DomainError, NoSolutionError
from debiasim.policy import FairnessConstraint
from debiasim.runner import run_single
from debiasim.stream import ArrivalBlock, SyntheticStream
from reference_loop import GroupPolicy, decide


ACTIVE = ENGINE_SPECS[EngineKind.ACTIVE_DEBIASING]
EXPLORE = ENGINE_SPECS[EngineKind.PURE_EXPLORATION]
EXPLOIT = ENGINE_SPECS[EngineKind.EXPLOITATION_ONLY]


def _policy(theta=8.0, lb=6.0, eps=0.5, ub=None):
    return GroupPolicy(theta=theta, lb=lb, eps=eps, ub=ub)


def _masks(spec, gp, xs, uniforms):
    """(draws, accepted, retained) for arrivals xs under one group policy."""
    xs = np.asarray(xs, dtype=float)
    return admission_masks(spec, xs, gp.theta, gp.lb, gp.eps, uniforms)


def _given(*values):
    """A uniforms source that hands out exactly ``values``, in order."""
    def uniforms(k):
        assert k == len(values)
        return np.array(values)
    return uniforms


class TestDecide:
    # Each baseline gets the policy its engine builds: LB = -inf for pure
    # exploration, LB = theta for exploitation only.

    def test_below_lb_rejected(self):
        draws, accepted, retained = _masks(ACTIVE, _policy(), [5.0], _given())
        assert not draws[0] and not accepted[0] and not retained[0]

    def test_zero_eps_window_always_rejects(self):
        rng = np.random.default_rng(0)
        _, accepted, _ = _masks(ACTIVE, _policy(eps=0.0), np.full(200, 7.0), rng.random)
        assert not accepted.any()

    def test_pure_exploration_eps_one(self):
        gp = _policy(lb=-math.inf, eps=1.0)
        rng = np.random.default_rng(0)
        _, accepted, retained = _masks(EXPLORE, gp, [-5.0, 2.0, 7.0, 9.0], rng.random)
        assert accepted.all() and retained.all()

    def test_exploitation_only(self):
        gp = _policy(lb=8.0)
        # No uniform is drawn: without a source the call would fail if one were.
        draws, accepted, retained = _masks(EXPLOIT, gp, [8.0, 7.999], None)
        assert not draws.any()
        assert accepted.tolist() == [True, False]
        assert retained.tolist() == [True, False]

    def test_threshold_tie_accepts(self):
        _, accepted, retained = _masks(ACTIVE, _policy(), [8.0], _given(0.99))
        assert accepted[0] and not retained[0]

    def test_lb_tie_in_window(self):
        _, accepted, retained = _masks(ACTIVE, _policy(eps=1.0), [6.0], _given(0.5))
        assert accepted[0] and retained[0]

    def test_acceptance_monotonicity(self):
        gp = _policy()
        rng = np.random.default_rng(4)
        x1 = rng.uniform(8.0, 12.0, size=500)   # deterministically accepted
        x2 = x1 + rng.uniform(0, 3, size=500)
        _, accepted1, _ = _masks(ACTIVE, gp, x1, rng.random)
        _, accepted2, _ = _masks(ACTIVE, gp, x2, rng.random)
        assert accepted1.all() and accepted2.all()

    def test_uniforms_go_to_drawing_arrivals_in_order(self):
        # Below LB draws nothing; the window and the region above theta each
        # take the next uniform.
        xs = [5.0, 7.0, 9.0, 7.0, 5.5, 9.5]
        draws, accepted, retained = _masks(ACTIVE, _policy(), xs, _given(0.1, 0.9, 0.3, 0.2))
        assert draws.tolist() == [False, True, True, True, False, True]
        assert accepted.tolist() == [False, True, True, True, False, True]
        assert retained.tolist() == [False, True, False, True, False, True]

    @pytest.mark.parametrize("spec", [ACTIVE, EXPLORE, EXPLOIT])
    def test_matches_scalar_rule(self, spec):
        # Per-arrival policies and a shared uniform stream: the masks equal
        # the scalar rule applied one arrival at a time.
        rng = np.random.default_rng(9)
        n = 2000
        theta = rng.uniform(7.0, 9.0, size=n)
        lb = theta - rng.uniform(0.0, 2.0, size=n)
        if spec is EXPLOIT:
            lb = theta
        eps = rng.uniform(0.0, 1.0, size=n)
        xs = rng.normal(8.0, 1.5, size=n)
        uniforms = np.random.default_rng(1).random(n)
        draws, accepted, retained = admission_masks(spec, xs, theta, lb, eps,
                                                    lambda k: uniforms[:k])
        scalar_rng = np.random.default_rng(1)
        for i in range(n):
            gp = GroupPolicy(theta=theta[i], lb=lb[i], eps=eps[i])
            assert decide(spec, gp, xs[i], scalar_rng) == (accepted[i], retained[i])
        # The scalar rule drew exactly one uniform per drawing arrival.
        check = np.random.default_rng(1)
        check.random(int(draws.sum()))
        assert scalar_rng.bit_generator.state == check.bit_generator.state


class TestUpdateReference:
    def test_middle_order_statistic(self):
        est = gaussian(0, 1)  # median reference and lb=-inf give portion 0.5
        samples = np.array([5.0, 6.0, 7.0, 8.0, 9.0])
        assert update_reference(samples, est) == pytest.approx(7.0)

    def test_portion_left_naive_limit(self):
        est = gaussian(6, 1, ref_level=60)
        assert portion_left(est, -math.inf) == pytest.approx(0.6, abs=1e-12)

    def test_portion_left_window(self):
        est = gaussian(6, 1, ref_level=60)
        lb = 5.237061818162431
        expected = (0.6 - est.cdf(lb)) / (1.0 - est.cdf(lb))
        assert portion_left(est, lb) == pytest.approx(expected, abs=1e-12)

    def test_fixed_point_when_estimate_correct(self):
        # Batches drawn from the estimate's own truncation leave the
        # reference unchanged up to sampling noise.
        rng = np.random.default_rng(8)
        est = gaussian(7, 1, ref_level=60)
        theta, lb = 8.5, 6.3776
        window = TruncationWindow(lb, math.inf)
        drifts = []
        for _ in range(300):
            xs = est.sample(window, rng, size=200)
            drifts.append(update_reference(xs, est, lb) - est.ref_value)
        drifts = np.asarray(drifts)
        stderr = drifts.std(ddof=1) / math.sqrt(len(drifts))
        assert abs(drifts.mean()) < 3 * stderr

    def test_window_median_mode(self):
        est = gaussian(0, 1, ref_level=60)
        samples = np.array([1.0, 2.0, 8.0])
        assert update_reference(samples, est, mode=UpdateMode.WINDOW_MEDIAN) == pytest.approx(2.0)

    def test_pool_is_kept_arrivals_of_pair(self):
        record = BatchBuffer(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), np.array([0, 1, 0, 0, 1]))
        record.kept[[0, 1, 3, 4]] = True
        assert record.pool(0, 0, 5).tolist() == [1.0, 4.0]
        assert record.pool(0, 1, 3).tolist() == []
        assert record.pool(1, 1, 5).tolist() == [2.0, 5.0]


class TestAdvanceEpsilon:
    FIXED = ExplorationSchedule(ScheduleMode.FIXED_STEP, step=0.1, window=3000, eps_min=0.05)
    ADAPT = ExplorationSchedule(ScheduleMode.ADAPTIVE, gain=1.0, window=3000, eps_min=0.05)

    def test_first_crossing(self):
        assert advance_epsilon(self.FIXED, 3000) == pytest.approx(0.9)

    def test_floor(self):
        assert advance_epsilon(self.FIXED, 10**6) == pytest.approx(0.05)

    def test_zero_discrepancy(self):
        assert advance_epsilon(self.ADAPT, 3000, observed_err=40,
                               expected_err=40.0) == pytest.approx(0.05)

    def test_adaptive_clamped_to_one(self):
        assert advance_epsilon(self.ADAPT, 3000, observed_err=500,
                               expected_err=50.0) == 1.0

    def test_schedule_validation(self):
        with pytest.raises(DomainError):
            ExplorationSchedule(eps_min=0.5, eps0=0.2)


class TestTwoParam:
    def test_first_sample(self):
        state = twoparam_update(TwoParamState(), 3.0)
        assert state.mean == 3.0 and state.count == 1

    def test_sequential_mean(self):
        state = TwoParamState()
        for x in (1.0, 2.0, 3.0):
            twoparam_update(state, x)
        assert state.mean == pytest.approx(2.0)
        assert state.variance == pytest.approx(1.0)

    def test_symmetric_truncation_preserves_mean(self):
        rng = np.random.default_rng(12)
        est = gaussian(7, 1)
        xs = est.sample(TruncationWindow(6.0, 8.0), rng, size=10**4)
        state = TwoParamState()
        for x in xs:
            twoparam_update(state, float(x))
        assert abs(state.mean - 7.0) < 0.05

    def test_recover_sigma_full_window(self):
        assert recover_sigma(2.56, 0.0, -math.inf, math.inf) == pytest.approx(1.6)

    def test_recover_sigma_round_trip(self):
        # Forward-evaluate the truncated variance at sigma=1 on mu +/- 1,
        # then invert; the loop must close tightly.
        from debiasim.engines import _truncated_variance_factor
        s2 = 1.0 * _truncated_variance_factor(7.0, 1.0, 6.0, 8.0)
        assert recover_sigma(s2, 7.0, 6.0, 8.0) == pytest.approx(1.0, abs=1e-6)

    def test_recover_sigma_random_round_trips(self):
        from debiasim.engines import _truncated_variance_factor
        rng = np.random.default_rng(5)
        for _ in range(50):
            mu = rng.uniform(-3, 3)
            sigma = rng.uniform(0.3, 2.5)
            a = mu - rng.uniform(0.5, 3) * sigma
            b = mu + rng.uniform(0.5, 3) * sigma
            s2 = sigma**2 * _truncated_variance_factor(mu, sigma, a, b)
            assert recover_sigma(s2, mu, a, b) == pytest.approx(sigma, rel=1e-6)

    def test_recover_sigma_degenerate_window(self):
        with pytest.raises((NoSolutionError, DomainError)):
            recover_sigma(1.0, 0.0, 0.0, 5e-4)

    def test_one_sided_window(self):
        from debiasim.engines import _truncated_variance_factor
        s2 = 4.0 * _truncated_variance_factor(0.0, 2.0, -1.0, math.inf)
        assert recover_sigma(s2, 0.0, -1.0, math.inf) == pytest.approx(2.0, rel=1e-6)


# -- engine-level behavior --------------------------------------------------

def _base_config(engine="active_debiasing", est0=6.0, est1=9.0, ref0=60.0,
                 horizon=3000, gate=50, eps=None, update_mode="portion",
                 seeds=(0,)):
    return config_from_dict({
        "engine": engine,
        "update_mode": update_mode,
        "source": {"kind": "synthetic"},
        "fractions": {"a": {"0": 0.5, "1": 0.5}},
        "population": {"a": {"0": {"family": "gaussian", "params": [7, 1], "ref_level": ref0},
                             "1": {"family": "gaussian", "params": [10, 1], "ref_level": 50}}},
        "initial_estimates": {"a": {"0": {"family": "gaussian", "params": [est0, 1], "ref_level": ref0},
                                    "1": {"family": "gaussian", "params": [est1, 1], "ref_level": 50}}},
        "epsilon": eps or {"mode": "fixed_step", "step": 0.1, "window": 3000, "eps_min": 0.05},
        "batch_gate": gate,
        "horizon": horizon,
        "seeds": list(seeds),
    })


class TestEngineRuns:
    def test_exploitation_lb_equals_theta(self):
        trace = run_single(_base_config("exploitation_only", ref0=50.0), 0)
        for row in trace.rows:
            assert row.lb["a"] == row.theta["a"]

    def test_pure_exploration_has_no_lb(self):
        trace = run_single(_base_config("pure_exploration", ref0=50.0), 0)
        assert all(row.lb["a"] == -math.inf for row in trace.rows)

    def test_eps_bounds_and_monotone_under_fixed(self):
        trace = run_single(_base_config(horizon=12000), 0)
        eps = [row.eps["a"] for row in trace.rows]
        assert all(0.05 <= e <= 1.0 for e in eps)
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(eps, eps[1:]))

    def test_cumulative_counts_nondecreasing(self):
        trace = run_single(_base_config(horizon=12000), 1)
        for prev, cur in zip(trace.rows, trace.rows[1:]):
            assert cur.cum_fp >= prev.cum_fp
            assert cur.cum_fn >= prev.cum_fn
            assert cur.samples_seen > prev.samples_seen

    def test_first_row_initial_state(self):
        trace = run_single(_base_config(), 0)
        first = trace.rows[0]
        assert first.t == 0 and first.samples_seen == 0
        assert first.eps["a"] == 1.0
        assert first.bias_of(("a", 0)) == pytest.approx(1.0)

    def test_retention_window_invariant(self):
        cfg = _base_config(horizon=2000)
        import numpy as np
        engine = Engine(
            kind=cfg.engine, estimates=cfg.initial_estimates, fractions=cfg.fractions,
            constraint=cfg.fairness, schedule=cfg.schedule, batch_gate=cfg.batch_gate,
            rng=np.random.default_rng(0), truth=cfg.truth,
        )
        arrivals = SyntheticStream(cfg.truth, np.random.default_rng(1)).draw(2000)
        engine.run(arrivals, 2000)
        # A bounded engine's batch is the round's kept arrivals, each at or
        # above the LB that round collected under.
        assert engine.spec.bounded
        for k in range(len(engine.pairs)):
            batch = engine.record.pool(k, engine._round_start, engine.samples_seen)
            assert len(batch)
            assert (batch >= engine.lb[k // 2]).all()

    @pytest.mark.parametrize("engine", ["active_debiasing", "pure_exploration",
                                        "exploitation_only"])
    def test_update_reference_gets_gated_batches(self, engine, monkeypatch):
        # The batch gate lives in the round close alone: a bounded engine
        # fits each pair on at least batch_gate samples of the round, all at
        # or above the round's LB; an unbounded one on a pool that grows by
        # at least batch_gate samples a round and corrects for no LB.
        calls = []
        original = engines.update_reference

        def recording(samples, est, lb=-math.inf, mode=UpdateMode.PORTION):
            calls.append((samples.copy(), lb))
            return original(samples, est, lb, mode)

        monkeypatch.setattr(engines, "update_reference", recording)
        cfg = _base_config(engine, ref0=50.0, horizon=12000)
        trace = run_single(cfg, 0)
        assert trace.final.t > 0 and len(calls) == 2 * trace.final.t
        gate = cfg.batch_gate
        if ENGINE_SPECS[cfg.engine].bounded:
            for j, (samples, lb) in enumerate(calls):
                # Round t + 1 runs under the policy of trace row t.
                assert lb == trace.rows[j // 2].lb["a"]
                assert len(samples) >= gate
                assert samples.min() >= lb
        else:
            for k in (0, 1):
                sizes = [len(samples) for samples, lb in calls[k::2]]
                assert all(np.diff([0] + sizes) >= gate)
                assert all(lb == -math.inf for _, lb in calls[k::2])

    def test_stream_exhaustion_is_clean(self, tmp_path):
        # 60 rows cannot close a gate of 50 per pair; the run must end
        # quietly with metrics counted and no estimate update.
        rows = ["x,y,g"]
        rng = np.random.default_rng(3)
        for _ in range(60):
            y = int(rng.random() < 0.5)
            x = (10.0 if y else 7.0) + rng.standard_normal()
            rows.append(f"{x},{y},a")
        csv_path = tmp_path / "small.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        cfg = config_from_dict({
            "engine": "active_debiasing",
            "source": {"kind": "csv_replay", "path": str(csv_path)},
            "fractions": {"a": {"0": 0.5, "1": 0.5}},
            "population": {"a": {"0": {"family": "gaussian", "params": [7, 1], "ref_level": 60},
                                 "1": {"family": "gaussian", "params": [10, 1], "ref_level": 50}}},
            "initial_estimates": {"a": {"0": {"family": "gaussian", "params": [6, 1], "ref_level": 60},
                                        "1": {"family": "gaussian", "params": [9, 1], "ref_level": 50}}},
            "batch_gate": 50,
            "horizon": 10000,
            "seeds": [0],
        })
        trace = run_single(cfg, 0)
        assert trace.final.samples_seen == 60
        assert trace.final.t == 0  # partial batch discarded
        assert trace.final.omega_hat[("a", 0)] == trace.rows[0].omega_hat[("a", 0)]

    def test_zero_drift_when_estimates_true(self):
        # First-update drift centered on zero across seeded replications.
        deltas = []
        for seed in range(50):
            cfg = _base_config(est0=7.0, est1=10.0, horizon=1500, gate=50)
            trace = run_single(cfg, seed)
            assert trace.final.t >= 1
            deltas.append(trace.rows[1].omega_hat[("a", 0)] - trace.rows[0].omega_hat[("a", 0)])
        deltas = np.asarray(deltas)
        stderr = deltas.std(ddof=1) / math.sqrt(len(deltas))
        assert abs(deltas.mean()) <= 3 * stderr

    def test_one_step_drift_positive_when_underestimated(self):
        ups = 0
        deltas = []
        for seed in range(200):
            cfg = _base_config(est0=6.0, est1=9.0, horizon=1200, gate=50,
                               eps={"mode": "fixed_step", "step": 0.1,
                                    "window": 10**6, "eps_min": 0.5, "eps0": 0.5})
            trace = run_single(cfg, seed)
            assert trace.final.t >= 1
            deltas.append(trace.rows[1].omega_hat[("a", 0)] - trace.rows[0].omega_hat[("a", 0)])
        deltas = np.asarray(deltas)
        assert deltas.mean() > 0

    def test_two_param_requires_median_gaussian(self):
        with pytest.raises(DomainError):
            Engine(
                kind=EngineKind.ACTIVE_TWO_PARAM,
                estimates={("a", 0): gaussian(5, 1.3, ref_level=60),
                           ("a", 1): gaussian(13, 1.3)},
                fractions={("a", 0): 0.5, ("a", 1): 0.5},
                constraint=FairnessConstraint(),
                schedule=ExplorationSchedule(),
                batch_gate=50,
                rng=np.random.default_rng(0),
            )

    def test_group_missing_label_refused(self):
        # Died with a bare KeyError(('b', 0)) inside the threshold solve before.
        with pytest.raises(DomainError, match=r"\('b', 0\)"):
            Engine(
                kind=EngineKind.ACTIVE_DEBIASING,
                estimates={("a", 0): gaussian(6, 1, ref_level=60), ("a", 1): gaussian(9, 1),
                           ("b", 1): gaussian(9, 1)},
                fractions={("a", 0): 0.4, ("a", 1): 0.4, ("b", 1): 0.2},
                constraint=FairnessConstraint(),
                schedule=ExplorationSchedule(),
                batch_gate=50,
                rng=np.random.default_rng(0),
            )

    def test_two_param_trace_has_sigma(self):
        cfg = config_from_dict({
            "engine": "active_two_param",
            "source": {"kind": "synthetic"},
            "fractions": {"a": {"0": 0.5, "1": 0.5}},
            "population": {"a": {"0": {"family": "gaussian", "params": [7, 1]},
                                 "1": {"family": "gaussian", "params": [10, 1]}}},
            "initial_estimates": {"a": {"0": {"family": "gaussian", "params": [5, 1.3]},
                                        "1": {"family": "gaussian", "params": [13, 1.3]}}},
            "batch_gate": 50,
            "horizon": 4000,
            "seeds": [0],
        })
        trace = run_single(cfg, 0)
        assert trace.final.sigma_hat is not None
        assert trace.final.ub is not None
        assert all(s > 0 for s in trace.final.sigma_hat.values())
        for row in trace.rows:
            assert row.lb["a"] <= row.ub["a"] + 1e-12

    def test_regret_zero_against_matching_oracle(self):
        # Truth-initialized estimates with exploration disabled: the engine's
        # thresholds coincide with the oracle's for the whole run (no batch
        # ever fills, so no update moves them), and regret stays identically 0.
        cfg = _base_config(est0=7.0, est1=10.0, ref0=50.0, horizon=4000,
                           eps={"mode": "fixed_step", "step": 0.1,
                                "window": 3000, "eps_min": 0.0, "eps0": 0.0})
        trace = run_single(cfg, 0)
        assert trace.final.t == 0
        assert trace.final.cum_regret == 0.0
        assert trace.final.cum_weighted_regret == 0.0

    def test_adaptive_epsilon_drops_after_debias(self):
        cfg = _base_config(horizon=15000,
                           eps={"mode": "adaptive", "gain": 1.0, "window": 3000,
                                "eps_min": 0.05, "eps0": 1.0})
        trace = run_single(cfg, 0)
        assert trace.rows[0].eps["a"] == 1.0
        assert trace.final.eps["a"] < 0.3
        assert all(0.05 <= row.eps["a"] <= 1.0 for row in trace.rows)

    def test_horizon_gate_guard(self):
        cfg = _base_config(horizon=3000)
        import numpy as np
        engine = Engine(
            kind=cfg.engine, estimates=cfg.initial_estimates, fractions=cfg.fractions,
            constraint=cfg.fairness, schedule=cfg.schedule, batch_gate=cfg.batch_gate,
            rng=np.random.default_rng(0), truth=cfg.truth,
        )
        arrivals = SyntheticStream(cfg.truth, np.random.default_rng(1)).draw(100)
        with pytest.raises(DomainError, match="horizon"):
            engine.run(arrivals, horizon=100)

    def test_unknown_group_refused(self):
        cfg = _base_config(horizon=3000)
        engine = Engine(
            kind=cfg.engine, estimates=cfg.initial_estimates, fractions=cfg.fractions,
            constraint=cfg.fairness, schedule=cfg.schedule, batch_gate=cfg.batch_gate,
            rng=np.random.default_rng(0), truth=cfg.truth,
        )
        arrivals = ArrivalBlock(np.array([7.0, 9.0]), np.array([0, 1]), np.array([0, 1]),
                                ("a", "zz"))
        with pytest.raises(DomainError, match="'zz'"):
            engine.run(arrivals, horizon=3000)
        assert engine.trace.rows == []


def _loaded_by_import(module: str) -> str:
    """Whether a fresh ``import debiasim`` loads ``module``, as printed."""
    import os
    import subprocess
    import sys

    import debiasim
    src = str(Path(debiasim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = f"import sys, debiasim; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()


def test_import_leaves_scipy_stats_out():
    # scipy.stats costs most of the import time; the engine computes the
    # normal pdf and cdf it needs from numpy and scipy.special.
    assert _loaded_by_import("scipy.stats") == "False"


def test_import_leaves_mpmath_out():
    # mpmath serves only the tests' high-precision references.
    assert _loaded_by_import("mpmath") == "False"
