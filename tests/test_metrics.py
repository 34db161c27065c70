"""Bias, regret, weighted regret, exploration error, trace plumbing."""

import logging
import math

import pytest

from debiasim.dist import beta, gaussian
from debiasim.errors import UnsupportedFamilyError
from debiasim.metrics import (
    RunTrace,
    TraceRow,
    bias,
    error_weight,
    exploration_error,
    regret_increment,
)
from helpers import row_at_samples


class TestBias:
    @pytest.mark.parametrize("hat,true,expected", [
        (7.0, 7.0, 0.0),
        (6.0, 7.0, 1.0),
        (11.0, 10.0, 1.0),
    ])
    def test_values(self, hat, true, expected):
        assert bias(hat, true) == expected


class TestRegretIncrement:
    def test_both_accept_qualified(self):
        assert regret_increment(True, True, 1) == 0

    def test_engine_fp_oracle_correct(self):
        assert regret_increment(True, False, 0) == 1

    def test_both_reject_qualified(self):
        assert regret_increment(False, False, 1) == 0

    def test_engine_helps_qualified(self):
        assert regret_increment(True, False, 1) == -1


class TestWeightedRegret:
    # The engine weights each regret increment by error_weight.
    T0 = gaussian(7, 1)
    T1 = gaussian(10, 1)

    def weighted(self, x, y, engine_accept, oracle_accept):
        return error_weight(x, y, self.T0, self.T1) * regret_increment(
            engine_accept, oracle_accept, y)

    def test_fp_at_reference(self):
        # reference for label-0 errors sits at mu0 + 4*sigma0 = 11
        assert error_weight(11.0, 0, self.T0, self.T1) == pytest.approx(1.0)

    def test_fp_one_past_reference(self):
        assert error_weight(12.0, 0, self.T0, self.T1) == pytest.approx(math.e)

    def test_fp_below_reference_grows(self):
        # deeper (lower-x) wrong admits cost more
        assert error_weight(8.0, 0, self.T0, self.T1) == pytest.approx(math.exp(3.0))

    def test_fn_reference(self):
        # label-1 reference sits at mu1 - 4*sigma1 = 6
        assert error_weight(6.0, 1, self.T0, self.T1) == pytest.approx(1.0)

    def test_no_difference_is_zero(self):
        assert self.weighted(9.0, 1, True, True) == 0.0

    def test_signed(self):
        up = self.weighted(8.0, 0, True, False)
        down = self.weighted(8.0, 1, True, False)
        assert up > 0 > down

    def test_non_gaussian_truth(self):
        with pytest.raises(UnsupportedFamilyError):
            error_weight(0.5, 0, beta(2, 5), beta(5, 2))


class TestExplorationError:
    def test_hand_computed_zero(self):
        # (0.3/0.9)*0.5*60 - (0.2/0.3)*0.5*30 = 10 - 10 = 0
        est0 = gaussian(0, 1)
        est1 = gaussian(0, 1)

        class Fake:
            def __init__(self, vals):
                self.vals = vals

            def cdf(self, x):
                return self.vals[x]

        f0 = Fake({8.0: 0.9, 6.0: 0.6})
        f1 = Fake({8.0: 0.3, 6.0: 0.1})
        out = exploration_error(f0, f1, theta=8.0, lb=6.0, eps=0.5,
                                n_below_0=60, n_below_1=30)
        assert out == pytest.approx(0.0, abs=1e-12)

    def test_zero_epsilon(self):
        assert exploration_error(gaussian(7, 1), gaussian(10, 1), 8.5, 6.0, 0.0, 50, 50) == 0.0

    def test_empty_window(self):
        assert exploration_error(gaussian(7, 1), gaussian(10, 1), 8.5, 8.5, 0.5, 50, 50) \
            == pytest.approx(0.0, abs=1e-12)

    def test_vanishing_denominator(self, caplog):
        est0 = gaussian(100, 1)  # F0(theta) == 0 numerically
        est1 = gaussian(10, 1)
        with caplog.at_level(logging.WARNING):
            out = exploration_error(est0, est1, theta=-50.0, lb=-60.0, eps=0.5,
                                    n_below_0=10, n_below_1=0)
        assert out == 0.0
        assert any("dropping" in r.message for r in caplog.records)


def _row(t, samples, cum=0.0):
    return TraceRow(
        t=t, samples_seen=samples,
        theta={"a": 8.5}, lb={"a": 6.0}, eps={"a": 1.0},
        omega_hat={("a", 0): 6.0, ("a", 1): 9.0},
        omega_true={("a", 0): 7.0, ("a", 1): 10.0},
        cum_fp=0, cum_fn=0, cum_regret=cum, cum_weighted_regret=0.0,
        cum_exploration_error={"a": 0.0},
    )


class TestRunTrace:
    def test_bias_of(self):
        assert _row(0, 0).bias_of(("a", 0)) == 1.0

    def test_monotone_samples_guard(self):
        trace = RunTrace(["a"], [("a", 0), ("a", 1)], seed=0, config_hash="x")
        trace.append(_row(0, 0))
        trace.append(_row(1, 100))
        with pytest.raises(ValueError):
            trace.append(_row(2, 100))

    def test_row_at_samples(self):
        trace = RunTrace(["a"], [("a", 0), ("a", 1)], seed=0, config_hash="x")
        for t, s in [(0, 0), (1, 120), (2, 300)]:
            trace.append(_row(t, s))
        assert row_at_samples(trace, 150).t == 1
        assert row_at_samples(trace, 299).t == 1
        assert row_at_samples(trace, 300).t == 2

    def test_csv_round_trip(self, tmp_path):
        trace = RunTrace(["a"], [("a", 0), ("a", 1)], seed=3, config_hash="abc")
        trace.append(_row(0, 0))
        trace.append(_row(1, 120, cum=2.0))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_hash=abc seed=3"
        header = lines[1].split(",")
        assert header == trace.columns()
        assert len(lines) == 4
