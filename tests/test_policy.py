"""Threshold optimization and exploration-bound tests."""

import logging

import numpy as np
import pytest

from debiasim.dist import beta, gaussian
from debiasim.errors import DomainError
from debiasim.oracle import brute_force_threshold
from debiasim.policy import (
    ConstraintKind,
    FairnessConstraint,
    PopulationSpec,
    expected_loss,
    lower_bound,
    solve_thresholds,
    upper_bound,
)
from helpers import normal_cdf_ref, normal_quantile_ref

NORM_CDF_MINUS_15 = 0.0668072012688581  # mpmath oracle: Phi(-1.5)

UNC = FairnessConstraint(ConstraintKind.UNCONSTRAINED)
SD = FairnessConstraint(ConstraintKind.SAME_DECISION_RULE)
EO = FairnessConstraint(ConstraintKind.EQUAL_OPPORTUNITY)


def one_group(est0, est1, w0=0.5, w1=0.5):
    return {("a", 0): est0, ("a", 1): est1}, {("a", 0): w0, ("a", 1): w1}


class TestExpectedLoss:
    def test_equal_prior_gaussians(self):
        ests, fracs = one_group(gaussian(7, 1), gaussian(10, 1))
        # mpmath oracle: both terms reduce to Phi(-1.5) at the midpoint.
        assert expected_loss(ests, fracs, {"a": 8.5}) == pytest.approx(
            NORM_CDF_MINUS_15, abs=1e-7)

    def test_accept_everyone_limit(self):
        ests, fracs = one_group(gaussian(7, 1), gaussian(10, 1), w0=0.3, w1=0.7)
        assert expected_loss(ests, fracs, {"a": -1e8}) == pytest.approx(0.3, abs=1e-9)

    def test_reject_everyone_limit(self):
        ests, fracs = one_group(gaussian(7, 1), gaussian(10, 1), w0=0.3, w1=0.7)
        assert expected_loss(ests, fracs, {"a": 1e8}) == pytest.approx(0.7, abs=1e-9)


class TestSolveThresholds:
    def test_midpoint(self):
        ests, fracs = one_group(gaussian(7, 1), gaussian(10, 1))
        th = solve_thresholds(ests, fracs, UNC)
        assert th["a"] == pytest.approx(8.5, abs=1e-4)

    def test_identical_groups_eo_matches_unconstrained(self):
        ests = {("a", 0): gaussian(7, 1), ("a", 1): gaussian(10, 1),
                ("b", 0): gaussian(7, 1), ("b", 1): gaussian(10, 1)}
        fracs = {k: 0.25 for k in ests}
        th_u = solve_thresholds(ests, fracs, UNC)
        th_eo = solve_thresholds(ests, fracs, EO)
        for g in ("a", "b"):
            assert th_eo[g] == pytest.approx(th_u[g], abs=1e-3)

    def test_identical_groups_sd_matches_unconstrained(self):
        ests = {("a", 0): gaussian(7, 1), ("a", 1): gaussian(10, 1),
                ("b", 0): gaussian(7, 1), ("b", 1): gaussian(10, 1)}
        fracs = {k: 0.25 for k in ests}
        th_u = solve_thresholds(ests, fracs, UNC)
        th_sd = solve_thresholds(ests, fracs, SD)
        assert th_sd["a"] == pytest.approx(th_u["a"], abs=1e-3)

    def test_sd_literally_equal(self):
        ests = {("a", 0): gaussian(6, 1), ("a", 1): gaussian(9, 1.2),
                ("b", 0): gaussian(7, 0.8), ("b", 1): gaussian(11, 1)}
        fracs = {("a", 0): 0.3, ("a", 1): 0.3, ("b", 0): 0.2, ("b", 1): 0.2}
        th = solve_thresholds(ests, fracs, SD)
        assert th["a"] == th["b"]

    def test_eo_tpr_gap(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ests = {("a", 0): gaussian(rng.uniform(4, 7), rng.uniform(0.5, 2)),
                    ("a", 1): gaussian(rng.uniform(8, 12), rng.uniform(0.5, 2)),
                    ("b", 0): gaussian(rng.uniform(4, 7), rng.uniform(0.5, 2)),
                    ("b", 1): gaussian(rng.uniform(8, 12), rng.uniform(0.5, 2))}
            w = rng.dirichlet(np.ones(4))
            fracs = dict(zip(sorted(ests), w))
            th = solve_thresholds(ests, fracs, EO)
            tprs = [1.0 - ests[(g, 1)].cdf(th[g]) for g in ("a", "b")]
            assert abs(tprs[0] - tprs[1]) <= 1e-6

    def test_local_optimality(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            ests, fracs = one_group(
                gaussian(rng.uniform(4, 7), rng.uniform(0.5, 2)),
                gaussian(rng.uniform(8, 12), rng.uniform(0.5, 2)),
                w0=0.5, w1=0.5)
            th = solve_thresholds(ests, fracs, UNC)
            best = expected_loss(ests, fracs, th)
            for delta in (-1e-3, 1e-3):
                perturbed = expected_loss(ests, fracs, {"a": th["a"] + delta})
                assert perturbed >= best - 1e-8

    def test_beats_dense_grid(self):
        ests, fracs = one_group(gaussian(5.5, 1.3), gaussian(9.2, 0.9), w0=0.4, w1=0.6)
        th = solve_thresholds(ests, fracs, UNC)
        loss = expected_loss(ests, fracs, th)
        grid = np.linspace(2, 13, 10**4)
        grid_min = min(expected_loss(ests, fracs, {"a": t}) for t in grid)
        assert loss <= grid_min + 1e-6

    def test_beta_families(self):
        ests, fracs = one_group(beta(2, 5, ref_level=60), beta(5, 2), w0=0.5, w1=0.5)
        th = solve_thresholds(ests, fracs, UNC)
        brute, _ = brute_force_threshold(ests, fracs, UNC, grid_resolution=4096)
        assert th["a"] == pytest.approx(brute["a"], abs=2 * 1.0 / 4096)

    def test_nonfinite_objective_errors(self):
        from debiasim.errors import OptimizationError

        class BrokenDist:
            def cdf(self, x):
                return float("nan")

            def quantile(self, p):
                return 0.0 if p < 0.5 else 1.0

        ests = {("a", 0): BrokenDist(), ("a", 1): BrokenDist()}
        with pytest.raises(OptimizationError):
            solve_thresholds(ests, {("a", 0): 0.5, ("a", 1): 0.5}, UNC)


class TestLowerBound:
    def test_zero_width_window(self):
        est = gaussian(6, 1, ref_level=60)
        assert lower_bound(est, est.ref_value) == pytest.approx(est.ref_value, abs=1e-9)

    def test_median_reference_symmetry(self):
        est = gaussian(7, 2)  # ref 50 -> reference point is mu
        assert lower_bound(est, 9.0) == pytest.approx(2 * 7 - 9.0, abs=1e-7)

    def test_ref60_example(self):
        # mpmath oracle: Q(2*0.6 - Phi(2)) for N(6,1) = 5.2370618...
        expected = 6 + normal_quantile_ref(2 * 0.6 - normal_cdf_ref(2.0))
        assert lower_bound(gaussian(6, 1, ref_level=60), 8.0) == pytest.approx(
            expected, abs=1e-7)
        assert lower_bound(gaussian(6, 1, ref_level=60), 8.0) == pytest.approx(5.2371, abs=1e-4)

    def test_support_edge_when_target_nonpositive(self):
        est = gaussian(0, 1, ref_level=20)
        assert lower_bound(est, 3.0) == float("-inf")
        est_b = beta(2, 4, ref_level=20)
        assert lower_bound(est_b, est_b.quantile(0.95)) == 0.0

    def test_clamps_when_theta_below_reference(self, caplog):
        est = gaussian(6, 1, ref_level=60)
        with caplog.at_level(logging.WARNING):
            assert lower_bound(est, 5.0) == 5.0
        assert any("clamping" in r.message for r in caplog.records)

    def test_symmetry_property(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            if rng.random() < 0.5:
                est = gaussian(rng.uniform(-5, 8), rng.uniform(0.3, 3),
                               ref_level=rng.uniform(35, 80))
            else:
                est = beta(rng.uniform(0.8, 6), rng.uniform(0.8, 6),
                           ref_level=rng.uniform(35, 80))
            ref = est.ref_value
            # keep the reflected probability strictly inside (0, 1)
            theta_hi = est.quantile(min(2 * est.ref_level / 100 - 1e-4, 1 - 1e-9))
            theta = ref + rng.uniform(0.0, 1.0) * (theta_hi - ref)
            lb = lower_bound(est, theta)
            resid = (est.cdf(ref) - est.cdf(lb)) - (est.cdf(theta) - est.cdf(ref))
            assert abs(resid) < 1e-7


class TestUpperBound:
    def test_degenerate(self):
        est = gaussian(10, 1)
        assert upper_bound(est, est.ref_value) == pytest.approx(est.ref_value, abs=1e-9)

    def test_median_reference_symmetry(self):
        est = gaussian(13, 1.3)
        assert upper_bound(est, 11.0) == pytest.approx(15.0, abs=1e-7)

    def test_clamps_to_support_supremum(self):
        est = beta(2, 2, ref_level=60)
        assert upper_bound(est, 0.001) <= 1.0
        est_g = gaussian(0, 1, ref_level=60)
        assert upper_bound(est_g, float("-inf")) == float("inf")


class TestPopulationSpec:
    def test_fraction_sum_validation(self):
        with pytest.raises(DomainError):
            PopulationSpec(fractions={("a", 0): 0.6, ("a", 1): 0.6},
                           dists={("a", 0): gaussian(0, 1), ("a", 1): gaussian(1, 1)})

    def test_missing_dist(self):
        with pytest.raises(DomainError):
            PopulationSpec(fractions={("a", 0): 0.5, ("a", 1): 0.5},
                           dists={("a", 0): gaussian(0, 1)})
