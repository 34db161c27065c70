"""Bias, regret, weighted regret, exploration error, trace plumbing."""

import logging
import math

import numpy as np
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
    weight_ref,
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
    # The engine weights each regret increment by error_weight at the
    # weight_ref of the arrival's true (group, label) distribution.
    T0 = gaussian(7, 1)
    T1 = gaussian(10, 1)

    def weight(self, x, y):
        return error_weight(x, weight_ref((self.T0, self.T1)[y], y))

    def weighted(self, x, y, engine_accept, oracle_accept):
        return self.weight(x, y) * regret_increment(engine_accept, oracle_accept, y)

    def test_fp_at_reference(self):
        # reference for label-0 errors sits at mu0 + 4*sigma0 = 11
        assert weight_ref(self.T0, 0) == 11.0
        assert self.weight(11.0, 0) == pytest.approx(1.0)

    def test_fp_one_past_reference(self):
        assert self.weight(12.0, 0) == pytest.approx(math.e)

    def test_fp_below_reference_grows(self):
        # deeper (lower-x) wrong admits cost more
        assert self.weight(8.0, 0) == pytest.approx(math.exp(3.0))

    def test_fn_reference(self):
        # label-1 reference sits at mu1 - 4*sigma1 = 6
        assert weight_ref(self.T1, 1) == 6.0
        assert self.weight(6.0, 1) == pytest.approx(1.0)

    def test_no_difference_is_zero(self):
        assert self.weighted(9.0, 1, True, True) == 0.0

    def test_signed(self):
        up = self.weighted(8.0, 0, True, False)
        down = self.weighted(8.0, 1, True, False)
        assert up > 0 > down

    def test_non_gaussian_truth(self):
        for y, truth in enumerate((beta(2, 5), beta(5, 2))):
            with pytest.raises(UnsupportedFamilyError):
                weight_ref(truth, y)

    def test_elementwise_is_math_exp_bit_for_bit(self):
        # Two groups, both labels: the engine's per-pair-code reference array.
        truths = [gaussian(7, 1), gaussian(10, 1), gaussian(6.5, 1.5), gaussian(9.5, 0.8)]
        refs = np.array([weight_ref(t, k % 2) for k, t in enumerate(truths)])
        rng = np.random.default_rng(25)
        pair = rng.integers(0, 4, size=4000)
        xs = rng.normal(8.5, 2.5, size=4000)
        got = error_weight(xs, refs[pair])
        want = np.array([math.exp(abs(x - r)) for x, r in zip(xs.tolist(), refs[pair].tolist())])
        assert got.dtype == np.float64 and got.shape == xs.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        scalar = error_weight(float(xs[0]), float(refs[pair[0]]))
        assert type(scalar) is float and scalar == want[0]


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
