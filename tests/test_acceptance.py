"""Acceptance suite: every shipped behavior claim at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. The multi-seed engine runs are shared across criteria through
module-scoped fixtures; total runtime stays within a few minutes.
"""

import csv

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import beta as beta_rv

from debiasim.config import config_from_dict
from debiasim.dist import TruncationWindow, beta, gaussian
from debiasim.engines import _truncated_variance_factor, recover_sigma
from debiasim.oracle import (
    MedianDensityQuery,
    brute_force_threshold,
    drift_oracle,
    median_density,
)
from debiasim.policy import (
    ConstraintKind,
    FairnessConstraint,
    lower_bound,
    solve_thresholds,
)
from debiasim.runner import run_many, run_single
from helpers import normal_cdf_ref, normal_quantile_ref, row_at_samples, simulate_medians

SEEDS_20 = list(range(20))
TRUE_OMEGA = {50.0: {0: 7.0, 1: 10.0}, 60.0: {0: 7.2533471031358, 1: 10.0}}


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def gauss_config(engine, est0, est1, ref0, schedule, gate=50, horizon=30000,
                 update_mode="portion"):
    return config_from_dict({
        "engine": engine,
        "update_mode": update_mode,
        "source": {"kind": "synthetic"},
        "fractions": {"a": {"0": 0.5, "1": 0.5}},
        "population": {"a": {"0": {"family": "gaussian", "params": [7, 1], "ref_level": ref0},
                             "1": {"family": "gaussian", "params": [10, 1], "ref_level": 50}}},
        "initial_estimates": {
            "a": {"0": {"family": "gaussian", "params": [est0, 1], "ref_level": ref0},
                  "1": {"family": "gaussian", "params": [est1, 1], "ref_level": 50}}},
        "epsilon": schedule,
        "batch_gate": gate,
        "horizon": horizon,
        "seeds": SEEDS_20,
    })


FIXED = {"mode": "fixed_step", "step": 0.1, "window": 3000, "eps_min": 0.05, "eps0": 1.0}
ADAPTIVE = {"mode": "adaptive", "gain": 1.0, "window": 3000, "eps_min": 0.05, "eps0": 1.0}


def run_seeds(cfg, seeds=SEEDS_20):
    return [run_single(cfg, s) for s in seeds]


@pytest.fixture(scope="module")
def exploit_runs():
    return run_seeds(gauss_config("exploitation_only", 6, 9, 50.0, ADAPTIVE))


@pytest.fixture(scope="module")
def pure_fixed_runs():
    return run_seeds(gauss_config("pure_exploration", 6, 9, 50.0, FIXED))


@pytest.fixture(scope="module")
def pure_adaptive_runs():
    return run_seeds(gauss_config("pure_exploration", 6, 9, 50.0, ADAPTIVE))


@pytest.fixture(scope="module")
def active60_under_runs():
    return run_seeds(gauss_config("active_debiasing", 6, 9, 60.0, FIXED, gate=100))


@pytest.fixture(scope="module")
def active60_over_runs():
    return run_seeds(gauss_config("active_debiasing", 8, 11, 60.0, FIXED, gate=100))


@pytest.fixture(scope="module")
def active60_adaptive_runs():
    return run_seeds(gauss_config("active_debiasing", 6, 9, 60.0, ADAPTIVE))


@pytest.fixture(scope="module")
def active50_adaptive_runs():
    return run_seeds(gauss_config("active_debiasing", 6, 9, 50.0, ADAPTIVE))


def test_criterion_1_exploitation_only_overestimates(exploit_runs):
    """Exploitation-only ends above the true reference points."""
    over0 = sum(t.final.omega_hat[("a", 0)] > 7.0 for t in exploit_runs)
    over1 = sum(t.final.omega_hat[("a", 1)] > 10.0 for t in exploit_runs)
    ok = over0 >= 18 and over1 >= 18
    report("1 exploitation-only overestimation", ok,
           f"label0 {over0}/20 above truth, label1 {over1}/20 above truth")


def test_criterion_2_pure_exploration_converges(pure_fixed_runs):
    b0 = np.mean([t.final.bias_of(("a", 0)) for t in pure_fixed_runs])
    b1 = np.mean([t.final.bias_of(("a", 1)) for t in pure_fixed_runs])
    ok = b0 < 0.15 and b1 < 0.15
    report("2 pure-exploration convergence", ok,
           f"mean final bias label0 {b0:.4f}, label1 {b1:.4f} (tol 0.15)")


def test_criterion_3_active_debiasing_converges(active60_under_runs, active60_over_runs):
    details = []
    ok = True
    for name, runs in (("under", active60_under_runs), ("over", active60_over_runs)):
        b0 = np.mean([t.final.bias_of(("a", 0)) for t in runs])
        b1 = np.mean([t.final.bias_of(("a", 1)) for t in runs])
        shrunk = sum(
            t.final.bias_of(("a", 0)) < t.rows[0].bias_of(("a", 0))
            and t.final.bias_of(("a", 1)) < t.rows[0].bias_of(("a", 1))
            for t in runs
        )
        ok = ok and b0 < 0.15 and b1 < 0.15 and shrunk == 20
        details.append(f"{name}: bias0 {b0:.4f} bias1 {b1:.4f} shrunk {shrunk}/20")
    report("3 active-debiasing convergence", ok, "; ".join(details))


def test_criterion_4_drift_direction():
    cases = [
        ("gaussian under", gaussian(7, 1, ref_level=60), gaussian(6, 1, ref_level=60), 8.0, +1),
        ("gaussian over", gaussian(7, 1, ref_level=60), gaussian(8, 1, ref_level=60), 8.6, -1),
        ("beta under", beta(2.5, 3, ref_level=60), beta(1.5, 3, ref_level=60), 0.6, +1),
        ("beta over", beta(2.5, 3, ref_level=60), beta(3.5, 3, ref_level=60), 0.75, -1),
    ]
    details = []
    ok = True
    for i, (name, truth, est, theta, sign) in enumerate(cases):
        lb = lower_bound(est, theta)
        mean, se = drift_oracle(truth, est, lb=lb, theta=theta,
                                batch_size=50, replications=500,
                                rng=np.random.default_rng(100 + i))
        ok = ok and sign * mean - 3 * se > 0
        details.append(f"{name}: drift {mean:+.4f} (3se {3 * se:.4f})")
    report("4 one-step drift direction", ok, "; ".join(details))


def test_criterion_5_lower_bound_construction():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(1000):
        if rng.random() < 0.5:
            est = gaussian(rng.uniform(-5, 8), rng.uniform(0.3, 3),
                           ref_level=rng.uniform(35, 80))
        else:
            est = beta(rng.uniform(0.8, 6), rng.uniform(0.8, 6),
                       ref_level=rng.uniform(35, 80))
        ref = est.ref_value
        theta_hi = est.quantile(min(2 * est.ref_level / 100 - 1e-4, 1 - 1e-9))
        theta = ref + rng.uniform(0.0, 1.0) * (theta_hi - ref)
        lb = lower_bound(est, theta)
        resid = abs((est.cdf(ref) - est.cdf(lb)) - (est.cdf(theta) - est.cdf(ref)))
        worst = max(worst, resid)
    expected = 6 + normal_quantile_ref(2 * 0.6 - normal_cdf_ref(2.0))
    numeric = lower_bound(gaussian(6, 1, ref_level=60), 8.0)
    ok = worst < 1e-7 and abs(numeric - expected) < 1e-4
    report("5 lower-bound construction", ok,
           f"worst symmetry residual {worst:.2e}; example LB {numeric:.5f} "
           f"vs oracle {expected:.5f}")


def test_criterion_6_median_density():
    dist = gaussian(7, 1)
    window = TruncationWindow(5.5, 8.5)
    details = []
    ok = True
    for m in (0, 1, 5, 20):
        q = MedianDensityQuery(dist, window, m=m)
        total, _ = quad(lambda v: median_density(q, v), 5.5, 8.5, limit=200)
        ok = ok and abs(total - 1.0) < 1e-6
        details.append(f"m={m} integral {total:.8f}")
    q5 = MedianDensityQuery(dist, window, m=5)
    meds = simulate_medians(q5, draws=10**5, rng=np.random.default_rng(66))
    edges = np.linspace(5.5, 8.5, 61)
    counts, _ = np.histogram(meds, bins=edges)
    emp = counts / counts.sum()
    mass = dist.cdf(8.5) - dist.cdf(5.5)
    H = (dist.cdf(edges) - dist.cdf(5.5)) / mass
    exact = np.diff(beta_rv.cdf(H, 6, 6))
    tv = 0.5 * np.abs(emp - exact).sum()
    ok = ok and tv < 0.03
    details.append(f"TV vs 1e5 simulated medians {tv:.4f}")
    report("6 sample-median density", ok, "; ".join(details))


def test_criterion_7_threshold_solver():
    rng = np.random.default_rng(77)
    kinds = [ConstraintKind.UNCONSTRAINED, ConstraintKind.SAME_DECISION_RULE,
             ConstraintKind.EQUAL_OPPORTUNITY]
    worst_theta, worst_tau, worst_gap = 0.0, 0.0, 0.0
    for i in range(100):
        ests = {}
        for g in ("a", "b"):
            ests[(g, 0)] = gaussian(rng.uniform(4, 7), rng.uniform(0.6, 1.8))
            ests[(g, 1)] = gaussian(rng.uniform(8, 12), rng.uniform(0.6, 1.8))
        w = rng.dirichlet(np.ones(4)) * 0.8 + 0.05
        w = w / w.sum()
        fracs = dict(zip(sorted(ests), w))
        constraint = FairnessConstraint(kinds[i % 3])
        brute, brute_loss = brute_force_threshold(ests, fracs, constraint,
                                                  grid_resolution=4096)
        solved = solve_thresholds(ests, fracs, constraint)
        if constraint.kind is ConstraintKind.EQUAL_OPPORTUNITY:
            # grid spacing lives in the true-positive-rate parametrization
            for g in ("a", "b"):
                tau_b = 1 - ests[(g, 1)].cdf(brute[g])
                tau_s = 1 - ests[(g, 1)].cdf(solved[g])
                worst_tau = max(worst_tau, abs(tau_b - tau_s))
            tprs = [1 - ests[(g, 1)].cdf(solved[g]) for g in ("a", "b")]
            worst_gap = max(worst_gap, abs(tprs[0] - tprs[1]))
        else:
            lo = min(e.quantile(0.001) for e in ests.values())
            hi = max(e.quantile(0.999) for e in ests.values())
            spacing = (hi - lo) / 4095
            for g in ("a", "b"):
                worst_theta = max(worst_theta, abs(brute[g] - solved[g]) / spacing)
        if constraint.kind is ConstraintKind.SAME_DECISION_RULE:
            assert solved["a"] == solved["b"]
    mid = solve_thresholds({("a", 0): gaussian(7, 1), ("a", 1): gaussian(10, 1)},
                           {("a", 0): 0.5, ("a", 1): 0.5})
    ok = (worst_theta <= 2.0 and worst_tau <= 2 * (1.0 / 4095)
          and worst_gap <= 1e-6 and abs(mid["a"] - 8.5) <= 1e-4)
    report("7 threshold solver vs brute force", ok,
           f"worst theta gap {worst_theta:.2f} grid units; worst EO tau gap "
           f"{worst_tau:.2e}; worst TPR gap {worst_gap:.2e}; midpoint {mid['a']:.5f}")


def test_criterion_8_regret_orderings(exploit_runs, pure_adaptive_runs,
                                      active50_adaptive_runs, active60_adaptive_runs):
    ex = np.array([t.final.cum_regret for t in exploit_runs])
    a60 = np.array([t.final.cum_regret for t in active60_adaptive_runs])
    wins = int(np.sum(ex > a60))

    w_pure = np.median([t.final.cum_weighted_regret for t in pure_adaptive_runs])
    w_a50 = np.median([t.final.cum_weighted_regret for t in active50_adaptive_runs])
    w_a60 = np.median([t.final.cum_weighted_regret for t in active60_adaptive_runs])
    ok = wins >= 18 and w_pure >= w_a50 >= w_a60
    report("8 regret orderings", ok,
           f"exploitation-only regret beat bounded(depth 60) in {wins}/20 seeds "
           f"(medians {np.median(ex):.0f} vs {np.median(a60):.0f}); weighted medians "
           f"pure {w_pure:.0f} >= depth50 {w_a50:.0f} >= depth60 {w_a60:.0f}")


def fairness_config(kind):
    return config_from_dict({
        "engine": "active_debiasing",
        "update_mode": "window_median",
        "source": {"kind": "synthetic"},
        "fractions": {"a": {"0": 0.3, "1": 0.3}, "b": {"0": 0.2, "1": 0.2}},
        "population": {
            "a": {"0": {"family": "gaussian", "params": [7, 1], "ref_level": 60},
                  "1": {"family": "gaussian", "params": [10, 1], "ref_level": 50}},
            "b": {"0": {"family": "gaussian", "params": [6, 1], "ref_level": 60},
                  "1": {"family": "gaussian", "params": [7.5, 1], "ref_level": 50}},
        },
        "initial_estimates": {
            "a": {"0": {"family": "gaussian", "params": [6, 1], "ref_level": 60},
                  "1": {"family": "gaussian", "params": [9, 1], "ref_level": 50}},
            "b": {"0": {"family": "gaussian", "params": [5, 1], "ref_level": 60},
                  "1": {"family": "gaussian", "params": [6.5, 1], "ref_level": 50}},
        },
        "fairness": {"kind": kind, "tolerance": 1e-6},
        "epsilon": FIXED,
        "batch_gate": 100,
        "horizon": 12000,
        "seeds": SEEDS_20,
    })


def test_criterion_9_fairness_interplay():
    """Same decision rule over-selects the majority (slower label-0 debias)
    and under-selects the minority (faster), vs the unconstrained runs."""
    checkpoint = 6000
    bias_at = {}
    for kind in ("unconstrained", "same_decision_rule"):
        runs = run_seeds(fairness_config(kind))
        bias_at[kind] = {
            g: np.mean([row_at_samples(t, checkpoint).bias_of((g, 0)) for t in runs])
            for g in ("a", "b")
        }
    u, sd = bias_at["unconstrained"], bias_at["same_decision_rule"]
    ok = sd["a"] > u["a"] and sd["b"] < u["b"]
    report("9 fairness interplay", ok,
           f"mid-run label-0 bias, over-selected group a: constrained {sd['a']:.4f} "
           f"> unconstrained {u['a']:.4f}; under-selected group b: constrained "
           f"{sd['b']:.4f} < unconstrained {u['b']:.4f}")


def test_criterion_10_two_parameter_extension():
    cfg = config_from_dict({
        "engine": "active_two_param",
        "source": {"kind": "synthetic"},
        "fractions": {"a": {"0": 0.5, "1": 0.5}},
        "population": {"a": {"0": {"family": "gaussian", "params": [7, 1]},
                             "1": {"family": "gaussian", "params": [10, 1]}}},
        "initial_estimates": {"a": {"0": {"family": "gaussian", "params": [5, 1.3]},
                                    "1": {"family": "gaussian", "params": [13, 1.3]}}},
        "epsilon": FIXED,
        "batch_gate": 50,
        "horizon": 40000,
        "seeds": list(range(10)),
    })
    mus = {0: [], 1: []}
    sigmas = {0: [], 1: []}
    for seed in range(10):
        trace = run_single(cfg, seed)
        for y, true_mu in ((0, 7.0), (1, 10.0)):
            mus[y].append(abs(trace.final.omega_hat[("a", y)] - true_mu))
            sigmas[y].append(abs(trace.final.sigma_hat[("a", y)] - 1.0))
    mu_err = {y: float(np.mean(v)) for y, v in mus.items()}
    sg_err = {y: float(np.mean(v)) for y, v in sigmas.items()}

    s2 = 1.0 * _truncated_variance_factor(7.0, 1.0, 6.0, 8.0)
    round_trip = abs(recover_sigma(s2, 7.0, 6.0, 8.0) - 1.0)

    ok = (all(e < 0.2 for e in mu_err.values())
          and all(e < 0.1 for e in sg_err.values())
          and round_trip < 1e-6)
    report("10 two-parameter extension", ok,
           f"mean |mu err| {mu_err[0]:.3f}/{mu_err[1]:.3f} (tol 0.2); mean "
           f"|sigma err| {sg_err[0]:.3f}/{sg_err[1]:.3f} (tol 0.1); "
           f"sigma round trip {round_trip:.2e}")


def test_criterion_11_determinism(tmp_path):
    cfg = gauss_config("active_debiasing", 6, 9, 60.0, FIXED, horizon=5000)
    run_many(cfg, out_dir=str(tmp_path / "r1"), seeds=[3])
    run_many(cfg, out_dir=str(tmp_path / "r2"), seeds=[3])
    a = (tmp_path / "r1" / "trace_3.csv").read_bytes()
    b = (tmp_path / "r2" / "trace_3.csv").read_bytes()
    ok = a == b and len(a) > 0
    report("11 determinism", ok, f"trace files byte-identical ({len(a)} bytes)")


ADULT_STYLE = {
    ("a", 1): (1.94, 3.32), ("a", 0): (1.13, 4.99),
    ("b", 1): (1.97, 3.53), ("b", 0): (1.19, 6.10),
}
REPLAY_FRACS = {("a", 0): 0.35, ("a", 1): 0.35, ("b", 0): 0.15, ("b", 1): 0.15}


def test_replay_pipeline_recovers_beta_truth(tmp_path):
    """Scored-CSV replay: initial fits from 2.5% of rows, then the engine
    debiases toward the generating Beta parameters."""
    rng = np.random.default_rng(2024)
    n = 30000
    pairs = sorted(REPLAY_FRACS)
    probs = np.array([REPLAY_FRACS[k] for k in pairs])
    idx = rng.choice(len(pairs), size=n, p=probs)
    path = tmp_path / "scored.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "g"])
        for i in idx:
            g, y = pairs[i]
            a_true, b_known = ADULT_STYLE[(g, y)]
            writer.writerow([repr(float(rng.beta(a_true, b_known))), y, g])

    # pipeline step 1: initial fits from the leading 2.5%, then skewed to
    # emulate a biased historical training set (the situation the engine is
    # there to correct)
    from debiasim.stream import fit_initial_estimate, read_scored_csv
    from debiasim.dist import Family
    head = read_scored_csv(path)[: int(0.025 * n)]
    initial = {}
    for (g, y), (_, b_known) in ADULT_STYLE.items():
        ref = 50.0 if y == 1 else 60.0
        scores = [r.x for r in head if r.g == g and r.y == y]
        initial[g] = initial.get(g, {})
        est = fit_initial_estimate(scores, Family.BETA, (1.0, b_known), ref_level=ref)
        skew = 0.75 if y == 1 else 1.3
        initial[g][str(y)] = {"family": "beta",
                              "params": [skew * est.params[0], est.params[1]],
                              "ref_level": ref, "support": [0.0, 1.0]}

    population = {
        g: {str(y): {"family": "beta", "params": list(ADULT_STYLE[(g, y)]),
                     "ref_level": 50.0 if y == 1 else 60.0, "support": [0.0, 1.0]}
            for y in (0, 1)}
        for g in ("a", "b")
    }
    cfg = config_from_dict({
        "engine": "active_debiasing",
        "source": {"kind": "csv_replay", "path": str(path), "shuffle": False},
        "fractions": {"a": {"0": 0.35, "1": 0.35}, "b": {"0": 0.15, "1": 0.15}},
        "population": population,
        "initial_estimates": initial,
        "fairness": {"kind": "equal_opportunity", "tolerance": 1e-6},
        "epsilon": FIXED,
        "batch_gate": 50,
        "horizon": n,
        "seeds": [0, 1, 2],
    })
    worst_final, start_means, end_means = 0.0, [], []
    for seed in (0, 1, 2):
        trace = run_single(cfg, seed)
        worst_final = max(worst_final,
                          max(trace.final.bias_of(k) for k in trace.pairs))
        start_means.append(np.mean([trace.rows[0].bias_of(k) for k in trace.pairs]))
        end_means.append(np.mean([trace.final.bias_of(k) for k in trace.pairs]))
    ok = worst_final < 0.15 and np.mean(end_means) < np.mean(start_means)
    report("replay pipeline (scored-CSV recovery)", ok,
           f"worst final reference bias {worst_final:.4f} (tol 0.15); mean bias "
           f"{np.mean(start_means):.4f} -> {np.mean(end_means):.4f}")
