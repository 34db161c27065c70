"""Distribution family tests.

Reference values marked "mpmath oracle" were computed with
tests/helpers.py's normal_*_ref / beta_*_ref (50-digit erf / incomplete-beta
route, independent of the scipy.special implementation path) and frozen.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from debiasim.dist import (
    Family,
    TruncationWindow,
    beta,
    gaussian,
    param_from_reference,
)
from debiasim.errors import DegenerateWindowError, DomainError, NoSolutionError
from helpers import beta_quantile_ref, normal_quantile_ref, truncated_cdf

# mpmath oracle values
PHI_AT_1 = 0.2419707245191434          # standard normal pdf at z=1
NORM_CDF_AT_1 = 0.8413447460685429     # standard normal cdf at z=1
Z_060 = 0.2533471031357997             # standard normal quantile at p=0.6
BETA_194_332_MEDIAN = 0.3511189944333637


class TestPdf:
    def test_standard_normal_mode(self):
        assert gaussian(0, 1).pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-7)

    def test_uniform_beta(self):
        assert beta(1, 1).pdf(0.3) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_shifted(self):
        # mpmath oracle: phi(1)
        assert gaussian(7, 1).pdf(8.0) == pytest.approx(PHI_AT_1, abs=1e-7)

    def test_zero_outside_beta_support(self):
        est = beta(2, 3)
        assert est.pdf(-0.1) == 0.0
        assert est.pdf(1.1) == 0.0

    @pytest.mark.parametrize("est", [
        gaussian(7, 1),
        gaussian(-2, 3.5),
        beta(2, 5),
        beta(0.8, 1.7, support=(300.0, 850.0)),
    ])
    def test_integrates_to_one(self, est):
        lo, hi = est.quantile(1e-9), est.quantile(1 - 1e-9)
        total, _ = quad(est.pdf, lo, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestCdf:
    def test_symmetry_at_mean(self):
        assert gaussian(3.7, 2.2).cdf(3.7) == pytest.approx(0.5, abs=1e-12)

    def test_gaussian_one_sigma(self):
        # mpmath oracle: Phi(1)
        assert gaussian(7, 1).cdf(8.0) == pytest.approx(NORM_CDF_AT_1, abs=1e-7)

    def test_uniform_beta(self):
        assert beta(1, 1).cdf(0.25) == pytest.approx(0.25, abs=1e-12)

    def test_limits(self):
        est = gaussian(0, 1)
        assert est.cdf(float("-inf")) == 0.0
        assert est.cdf(float("inf")) == 1.0

    def test_monotone(self):
        est = beta(2.3, 4.1, support=(-1.0, 3.0))
        xs = np.linspace(-1.5, 3.5, 400)
        vals = est.cdf(xs)
        assert np.all(np.diff(vals) >= 0)


class TestQuantile:
    def test_gaussian_median(self):
        assert gaussian(6, 2).quantile(0.5) == pytest.approx(6.0, abs=1e-9)

    def test_gaussian_p06(self):
        # mpmath oracle: 6 + z(0.6)
        assert gaussian(6, 1).quantile(0.6) == pytest.approx(6 + Z_060, abs=1e-7)

    def test_uniform_beta(self):
        assert beta(1, 1).quantile(0.9) == pytest.approx(0.9, abs=1e-9)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7])
    def test_domain_error(self, p):
        with pytest.raises(DomainError):
            gaussian(0, 1).quantile(p)

    def test_matches_independent_inversion(self):
        assert gaussian(0, 1).quantile(0.6) == pytest.approx(normal_quantile_ref(0.6), abs=1e-9)
        assert beta(1.94, 3.32).quantile(0.5) == pytest.approx(
            beta_quantile_ref(0.5, 1.94, 3.32), abs=1e-9)


class TestRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(mu=st.floats(-50, 50), sigma=st.floats(0.1, 20),
           p=st.floats(0.01, 0.99))
    def test_gaussian_cdf_quantile(self, mu, sigma, p):
        est = gaussian(mu, sigma)
        assert abs(est.cdf(est.quantile(p)) - p) < 1e-7

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(0.3, 20), b=st.floats(0.3, 20), p=st.floats(0.01, 0.99))
    def test_beta_cdf_quantile(self, a, b, p):
        est = beta(a, b)
        assert abs(est.cdf(est.quantile(p)) - p) < 1e-7

    def test_quantile_cdf_central_mass(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            est = gaussian(rng.uniform(-5, 5), rng.uniform(0.2, 4))
            x = est.quantile(rng.uniform(0.0005, 0.9995))
            assert abs(est.quantile(est.cdf(x)) - x) < 1e-6

    def test_bulk_levels(self):
        for est in (gaussian(2, 3), beta(1.3, 2.8, support=(10.0, 20.0))):
            for p in np.arange(0.01, 1.0, 0.01):
                assert abs(est.cdf(est.quantile(p)) - p) < 1e-7


class TestParamFromReference:
    def test_gaussian_median_identity(self):
        params = param_from_reference(Family.GAUSSIAN, (0.0, 1.0), 0, 50.0, 7.0)
        assert params[0] == pytest.approx(7.0, abs=1e-9)

    def test_gaussian_ref60(self):
        # mpmath oracle: mu = ref_value - z(0.6)
        params = param_from_reference(Family.GAUSSIAN, (0.0, 1.0), 0, 60.0, 6 + Z_060)
        assert params[0] == pytest.approx(6.0, abs=1e-7)

    def test_beta_median_round_trip(self):
        # mpmath oracle: median of Beta(1.94, 3.32)
        params = param_from_reference(Family.BETA, (1.0, 3.32), 0, 50.0, BETA_194_332_MEDIAN)
        assert params[0] == pytest.approx(1.94, abs=1e-4)

    def test_gaussian_sigma_unknown(self):
        params = param_from_reference(Family.GAUSSIAN, (5.0, 1.0), 1, 84.1344746, 7.0)
        assert params[1] == pytest.approx(2.0, abs=1e-6)

    def test_gaussian_sigma_no_solution(self):
        with pytest.raises(NoSolutionError):
            param_from_reference(Family.GAUSSIAN, (5.0, 1.0), 1, 60.0, 4.0)

    def test_ref_value_outside_support(self):
        with pytest.raises(DomainError):
            param_from_reference(Family.BETA, (2.0, 3.0), 0, 50.0, 1.5)

    def test_identity_property(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            if rng.random() < 0.5:
                est = gaussian(rng.uniform(-10, 10), rng.uniform(0.1, 5),
                               ref_level=rng.uniform(5, 95))
            else:
                est = beta(rng.uniform(0.3, 8), rng.uniform(0.3, 8),
                           ref_level=rng.uniform(5, 95))
            solved = param_from_reference(est.family, est.params, 0,
                                          est.ref_level, est.ref_value,
                                          support=est.support)
            assert abs(solved[0] - est.params[0]) < 1e-4

    def test_with_ref_value_consistency(self):
        est = gaussian(6, 1, ref_level=60).with_ref_value(7.0)
        assert est.quantile(0.6) == pytest.approx(7.0, abs=1e-7)


class TestValidation:
    def test_bad_sigma(self):
        with pytest.raises(DomainError):
            gaussian(0, -1)

    def test_bad_shapes(self):
        with pytest.raises(DomainError):
            beta(0, 2)

    def test_bad_support(self):
        with pytest.raises(DomainError):
            beta(2, 2, support=(1.0, 0.0))

    def test_bad_ref_level(self):
        with pytest.raises(DomainError):
            gaussian(0, 1, ref_level=100.0)

    def test_ref_value_invariant(self):
        est = beta(2.5, 3.5, ref_level=72.0)
        assert abs(est.quantile(0.72) - est.ref_value) < 1e-7


class TestTruncation:
    def test_endpoints(self):
        est = gaussian(7, 1)
        w = TruncationWindow(6.0, 8.0)
        assert truncated_cdf(est, w, 6.0) == pytest.approx(0.0, abs=1e-12)
        assert truncated_cdf(est, w, 8.0) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_window_midpoint(self):
        est = gaussian(7, 1)
        assert truncated_cdf(est, TruncationWindow(6.0, 8.0), 7.0) == pytest.approx(0.5, abs=1e-12)

    def test_valid_cdf_on_window(self):
        est = beta(2, 4)
        w = TruncationWindow(0.2, 0.7)
        xs = np.linspace(0.2, 0.7, 200)
        vals = truncated_cdf(est, w, xs)
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_window(self):
        with pytest.raises(DegenerateWindowError):
            truncated_cdf(gaussian(0, 1), TruncationWindow(20.0, 21.0), 20.5)

    def test_degenerate_sampling(self):
        with pytest.raises(DegenerateWindowError):
            gaussian(0, 1).sample(TruncationWindow(25.0, 26.0), np.random.default_rng(0))


class TestSampling:
    def test_full_window_mean(self):
        rng = np.random.default_rng(42)
        xs = gaussian(0, 1).sample(TruncationWindow(), rng, size=10**6)
        assert abs(xs.mean()) < 0.01

    def test_truncation_respected(self):
        rng = np.random.default_rng(1)
        xs = gaussian(7, 1).sample(TruncationWindow(7.0, float("inf")), rng, size=10000)
        assert np.all(xs >= 7.0)

    def test_beta_ks_against_truncated_cdf(self):
        from scipy.stats import kstest
        rng = np.random.default_rng(3)
        est = beta(2, 2)
        w = TruncationWindow(0.5, 1.0)
        xs = est.sample(w, rng, size=10**5)
        result = kstest(xs, lambda v: truncated_cdf(est, w, v))
        assert result.statistic < 0.01

    def test_histogram_total_variation(self):
        # Monte-Carlo pdf consistency: 1e5 draws vs exact bin masses.
        rng = np.random.default_rng(5)
        for est in (gaussian(7, 1), beta(2, 5)):
            lo, hi = est.quantile(0.001), est.quantile(0.999)
            edges = np.linspace(lo, hi, 51)
            xs = est.sample(TruncationWindow(lo, hi), rng, size=10**5)
            counts, _ = np.histogram(xs, bins=edges)
            emp = counts / counts.sum()
            cdf_vals = est.cdf(edges)
            exact = np.diff(cdf_vals) / (cdf_vals[-1] - cdf_vals[0])
            tv = 0.5 * np.abs(emp - exact).sum()
            assert tv < 0.02
