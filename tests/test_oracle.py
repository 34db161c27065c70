"""Reference-computation tests: median density, drift oracle, brute force."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import beta as beta_rv

from debiasim.dist import TruncationWindow, beta, gaussian
from debiasim.errors import DomainError
from debiasim.oracle import (
    MedianDensityQuery,
    brute_force_threshold,
    drift_oracle,
    median_density,
)
from debiasim.policy import lower_bound, solve_thresholds
from helpers import (
    beta_cdf_ref,
    normal_cdf_ref,
    normal_pdf_ref,
    normal_quantile_ref,
    simulate_medians,
)


class TestMedianDensity:
    WINDOW = TruncationWindow(5.5, 8.5)
    DIST = gaussian(7, 1)

    def test_m0_equals_truncated_pdf(self):
        q = MedianDensityQuery(self.DIST, self.WINDOW, m=0)
        mass = self.DIST.cdf(8.5) - self.DIST.cdf(5.5)
        for nu in np.linspace(5.5, 8.5, 21):
            assert median_density(q, nu) == pytest.approx(self.DIST.pdf(nu) / mass, rel=1e-12)

    @pytest.mark.parametrize("m", [0, 1, 5, 20])
    def test_normalization(self, m):
        q = MedianDensityQuery(self.DIST, self.WINDOW, m=m)
        total, _ = quad(lambda v: median_density(q, v), 5.5, 8.5, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_large_m_stable(self):
        q = MedianDensityQuery(self.DIST, self.WINDOW, m=10**4)
        val = median_density(q, 7.0)
        assert np.isfinite(val) and val > 0

    def test_peak_at_symmetric_midpoint(self):
        q = MedianDensityQuery(self.DIST, TruncationWindow(6.0, 8.0), m=5)
        grid = np.linspace(6.0, 8.0, 2001)
        dens = median_density(q, grid)
        assert grid[int(np.argmax(dens))] == pytest.approx(7.0, abs=2e-3)

    def test_outside_window_raises(self):
        q = MedianDensityQuery(self.DIST, self.WINDOW, m=2)
        with pytest.raises(DomainError):
            median_density(q, 9.0)

    def test_matches_simulation(self):
        q = MedianDensityQuery(self.DIST, self.WINDOW, m=5)
        meds = simulate_medians(q, draws=10**5, rng=np.random.default_rng(6))
        edges = np.linspace(5.5, 8.5, 61)
        counts, _ = np.histogram(meds, bins=edges)
        emp = counts / counts.sum()
        mass = self.DIST.cdf(8.5) - self.DIST.cdf(5.5)
        H = (self.DIST.cdf(edges) - self.DIST.cdf(5.5)) / mass
        exact = np.diff(beta_rv.cdf(H, 6, 6))  # Beta(m+1, m+1) pushforward
        tv = 0.5 * np.abs(emp - exact).sum()
        assert tv < 0.03


class TestDriftOracle:
    def test_zero_drift_at_truth(self):
        # Batch of 200 keeps the quantile estimator's O(1/n) finite-sample
        # bias an order of magnitude below the Monte-Carlo stderr.
        est = gaussian(7, 1, ref_level=60)
        lb = lower_bound(est, 8.5)
        mean, stderr = drift_oracle(est, est, lb=lb, theta=8.5,
                                    batch_size=200, replications=400,
                                    rng=np.random.default_rng(0))
        assert abs(mean) <= 3 * stderr

    def test_underestimated_drifts_up(self):
        est = gaussian(6, 1, ref_level=60)
        truth = gaussian(7, 1, ref_level=60)
        lb = lower_bound(est, 8.0)
        mean, stderr = drift_oracle(truth, est, lb=lb, theta=8.0,
                                    batch_size=50, replications=500,
                                    rng=np.random.default_rng(1))
        assert mean - 3 * stderr > 0

    def test_overestimated_drifts_down(self):
        est = gaussian(8, 1, ref_level=60)
        truth = gaussian(7, 1, ref_level=60)
        lb = lower_bound(est, 8.6)
        mean, stderr = drift_oracle(truth, est, lb=lb, theta=8.6,
                                    batch_size=50, replications=500,
                                    rng=np.random.default_rng(2))
        assert mean + 3 * stderr < 0

    def test_replication_guard(self):
        est = gaussian(7, 1)
        with pytest.raises(DomainError):
            drift_oracle(est, est, lb=6.0, theta=8.0, batch_size=10,
                         replications=1, rng=np.random.default_rng(0))


class TestBruteForce:
    def test_midpoint(self):
        ests = {("a", 0): gaussian(7, 1), ("a", 1): gaussian(10, 1)}
        fracs = {("a", 0): 0.5, ("a", 1): 0.5}
        th, loss = brute_force_threshold(ests, fracs, grid_resolution=4096)
        spacing = (ests[("a", 1)].quantile(0.999) - ests[("a", 0)].quantile(0.001)) / 4095
        assert abs(th["a"] - 8.5) <= spacing
        assert loss == pytest.approx(2 * 0.5 * normal_cdf_ref(-1.5), abs=1e-4)

    def test_degenerate_all_label0(self):
        ests = {("a", 0): gaussian(7, 1), ("a", 1): gaussian(10, 1)}
        fracs = {("a", 0): 1.0, ("a", 1): 0.0}
        th, loss = brute_force_threshold(ests, fracs, grid_resolution=1024)
        # reject-all is optimal: threshold lands at the top of the search grid
        assert th["a"] == pytest.approx(ests[("a", 1)].quantile(0.999), abs=1e-9)

    def test_grid_floor(self):
        ests = {("a", 0): gaussian(7, 1), ("a", 1): gaussian(10, 1)}
        with pytest.raises(DomainError):
            brute_force_threshold(ests, {("a", 0): 0.5, ("a", 1): 0.5},
                                  grid_resolution=100)

    def test_solver_agreement_sample(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            ests = {("a", 0): gaussian(rng.uniform(4, 7), rng.uniform(0.6, 1.8)),
                    ("a", 1): gaussian(rng.uniform(8, 12), rng.uniform(0.6, 1.8))}
            w0 = rng.uniform(0.2, 0.8)
            fracs = {("a", 0): w0, ("a", 1): 1 - w0}
            brute, _ = brute_force_threshold(ests, fracs, grid_resolution=4096)
            solved = solve_thresholds(ests, fracs)
            lo = min(e.quantile(0.001) for e in ests.values())
            hi = max(e.quantile(0.999) for e in ests.values())
            assert abs(brute["a"] - solved["a"]) <= 2 * (hi - lo) / 4095


class TestHighPrecisionRefs:
    def test_normal_cdf(self):
        assert normal_cdf_ref(0.0) == pytest.approx(0.5, abs=1e-15)
        assert normal_cdf_ref(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)

    def test_normal_pdf(self):
        assert normal_pdf_ref(0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-15)

    def test_quantile_inverts_cdf(self):
        for p in (0.1, 0.5, 0.6, 0.95):
            assert normal_cdf_ref(normal_quantile_ref(p)) == pytest.approx(p, abs=1e-10)

    def test_beta_cdf_uniform(self):
        assert beta_cdf_ref(0.25, 1, 1) == pytest.approx(0.25, abs=1e-12)

    def test_independent_routes_agree(self):
        est = gaussian(0, 1)
        for z in (-2.0, -0.5, 0.3, 1.7):
            assert est.cdf(z) == pytest.approx(normal_cdf_ref(z), abs=1e-12)
        est_b = beta(2.3, 4.1)
        for x in (0.1, 0.4, 0.8):
            assert est_b.cdf(x) == pytest.approx(beta_cdf_ref(x, 2.3, 4.1), abs=1e-10)
