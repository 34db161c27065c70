"""Property tests: any config the validator accepts runs without a crash.

Random valid Gaussian configs cover one or two groups, every engine, every
fairness constraint, both epsilon schedules and both update modes. A run may
stall (no round ever closes); it may not raise anything but a
``DebiasimError``, and every trace row it writes must keep LB <= theta,
eps_min <= eps <= 1 and a finite reference estimate.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from debiasim.config import config_from_dict
from debiasim.engines import EngineKind, UpdateMode
from debiasim.errors import DebiasimError
from debiasim.policy import ConstraintKind
from debiasim.runner import run_single

_MEANS = st.floats(-5.0, 10.0, allow_nan=False)
_SIGMAS = st.floats(0.3, 3.0, allow_nan=False)


@st.composite
def gaussian_configs(draw):
    engine = draw(st.sampled_from([k.value for k in EngineKind]))
    two_param = engine == EngineKind.ACTIVE_TWO_PARAM.value
    groups = ["a", "b"][: draw(st.integers(1, 2))]
    weights = {(g, y): draw(st.floats(0.05, 1.0)) for g in groups for y in (0, 1)}
    total = sum(weights.values())

    def nested(leaf):
        return {g: {str(y): leaf(g, y) for y in (0, 1)} for g in groups}

    truth, est = {}, {}
    for g in groups:
        mu0 = draw(_MEANS)
        mu1 = mu0 + draw(st.floats(0.5, 6.0))
        for y, mu in ((0, mu0), (1, mu1)):
            # The two-parameter engine needs median references.
            ref = 50.0 if two_param or y == 1 else draw(st.sampled_from([50.0, 60.0]))
            truth[(g, y)] = {"family": "gaussian", "params": [mu, draw(_SIGMAS)],
                             "ref_level": ref}
            est[(g, y)] = {"family": "gaussian",
                           "params": [mu + draw(st.floats(-2.0, 2.0)), draw(_SIGMAS)],
                           "ref_level": ref}

    eps_min = draw(st.floats(0.0, 0.5))
    epsilon = {
        "mode": draw(st.sampled_from(["fixed_step", "adaptive"])),
        "step": draw(st.floats(0.01, 0.5)),
        "gain": draw(st.floats(0.1, 5.0)),
        "window": draw(st.integers(1, 500)),
        "eps_min": eps_min,
        "eps0": draw(st.floats(eps_min, 1.0)),
    }
    gate = draw(st.integers(3, 30))
    return config_from_dict({
        "engine": engine,
        "update_mode": draw(st.sampled_from([m.value for m in UpdateMode])),
        "source": {"kind": "synthetic"},
        "fractions": nested(lambda g, y: weights[(g, y)] / total),
        "population": nested(lambda g, y: truth[(g, y)]),
        "initial_estimates": nested(lambda g, y: est[(g, y)]),
        "fairness": {"kind": draw(st.sampled_from([k.value for k in ConstraintKind]))},
        "epsilon": epsilon,
        "batch_gate": gate,
        "horizon": gate * draw(st.integers(4, 60)),
        "seeds": [0],
    })


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(cfg=gaussian_configs(), seed=st.integers(0, 2**16))
def test_valid_configs_run_cleanly(cfg, seed):
    try:
        trace = run_single(cfg, seed)
    except DebiasimError:
        return
    eps_min = cfg.schedule.eps_min
    for row in trace.rows:
        for g in trace.groups:
            assert row.lb[g] <= row.theta[g]
            assert eps_min <= row.eps[g] <= 1.0
        assert all(math.isfinite(v) for v in row.omega_hat.values())
