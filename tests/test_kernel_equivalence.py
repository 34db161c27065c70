"""The block kernel writes the same trace as the scalar reference loop, byte for byte.

Each case runs one config and seed twice through ``runner.run_single``:
once with ``Engine`` (the block kernel) and once with ``ReferenceEngine``
from ``tests/reference_loop.py`` (one arrival at a time), and compares the
two trace CSVs. A run that raises must raise the same error on both paths.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from debiasim import runner
from debiasim.config import config_from_dict
from debiasim.engines import Engine
from debiasim.errors import DebiasimError
from reference_loop import ReferenceEngine
from test_golden_traces import GOLDEN, _config
from test_properties import gaussian_configs


def _outcome(engine_cls, config, seed, path):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "Engine", engine_cls)
        try:
            trace = runner.run_single(config, seed)
        except DebiasimError as exc:
            return type(exc), str(exc)
    trace.to_csv(path)
    return path.read_bytes()


def assert_same_trace(config, seed, tmp_path):
    kernel = _outcome(Engine, config, seed, tmp_path / "kernel.csv")
    reference = _outcome(ReferenceEngine, config, seed, tmp_path / "reference.csv")
    assert kernel == reference


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_cases(case, tmp_path):
    assert_same_trace(_config(case), 0, tmp_path)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(cfg=gaussian_configs(), seed=st.integers(0, 2**16))
def test_random_configs(cfg, seed, tmp_path_factory):
    assert_same_trace(cfg, seed, tmp_path_factory.mktemp("equiv"))


# -- edge cases ---------------------------------------------------------------

def _gaussian(mu, sigma, ref=50.0):
    return {"family": "gaussian", "params": [mu, sigma], "ref_level": ref}


def _raw(engine="active_debiasing", groups=("a",), fractions=None, epsilon=None,
         gate=20, horizon=4000, source=None):
    fractions = fractions or {g: {"0": 0.5 / len(groups), "1": 0.5 / len(groups)}
                              for g in groups}
    return {
        "engine": engine,
        "source": source or {"kind": "synthetic"},
        "fractions": fractions,
        "population": {g: {"0": _gaussian(7, 1, 60.0), "1": _gaussian(10, 1)}
                       for g in groups},
        "initial_estimates": {g: {"0": _gaussian(6, 1, 60.0), "1": _gaussian(9, 1)}
                              for g in groups},
        "epsilon": epsilon or {"mode": "fixed_step", "step": 0.1, "window": 3000,
                               "eps_min": 0.05},
        "batch_gate": gate,
        "horizon": horizon,
        "seeds": [0],
    }


@pytest.mark.parametrize("engine", ["active_debiasing", "pure_exploration",
                                    "exploitation_only", "active_two_param"])
@pytest.mark.parametrize("mode", ["fixed_step", "adaptive"])
def test_window_one(engine, mode, tmp_path):
    # eps may change at every arrival, so every window is one arrival long.
    raw = _raw(engine, epsilon={"mode": mode, "step": 0.02, "gain": 2.0, "window": 1,
                                "eps_min": 0.05})
    if engine == "active_two_param":
        raw["population"]["a"]["0"] = _gaussian(7, 1)
        raw["initial_estimates"]["a"]["0"] = _gaussian(6, 1.3)
    assert_same_trace(config_from_dict(raw), 3, tmp_path)


@pytest.mark.parametrize("horizon", [8191, 8193, 8192 + 1234, 3 * 8192 + 17])
def test_horizon_mid_block(horizon, tmp_path):
    # Synthetic blocks hold 8192 arrivals; the last round is cut by the horizon.
    assert_same_trace(config_from_dict(_raw(horizon=horizon)), 1, tmp_path)


def _replay_raw(tmp_path, rows, engine="active_debiasing", shuffle=False, horizon=10000):
    path = tmp_path / "rows.csv"
    path.write_text("x,y,g\n" + "".join(f"{x!r},{y},{g}\n" for x, y, g in rows))
    raw = _raw(engine, horizon=horizon, gate=10,
               source={"kind": "csv_replay", "path": str(path), "shuffle": shuffle})
    return config_from_dict(raw)


def _rows(n, seed, groups=("a",)):
    import numpy as np
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        y = int(rng.random() < 0.5)
        out.append(((10.0 if y else 7.0) + float(rng.standard_normal()), y,
                    groups[int(rng.integers(len(groups)))]))
    return out


@pytest.mark.parametrize("shuffle", [False, True])
def test_replay_runs_out_mid_round(shuffle, tmp_path):
    config = _replay_raw(tmp_path, _rows(777, 5), shuffle=shuffle)
    assert_same_trace(config, 2, tmp_path)


def test_empty_stream(tmp_path):
    config = _replay_raw(tmp_path, [])
    assert_same_trace(config, 0, tmp_path)


@pytest.mark.parametrize("seed", range(4))
def test_adaptive_trigger_of_absent_group(seed, tmp_path):
    # Group b arrives once in 25 arrivals. With a monitor window of 3 its
    # trigger falls due long before its next arrival, while group a's own
    # triggers cut the windows in between.
    raw = _raw(groups=("a", "b"), gate=5, horizon=3000,
               fractions={"a": {"0": 0.48, "1": 0.48}, "b": {"0": 0.02, "1": 0.02}},
               epsilon={"mode": "adaptive", "gain": 1.0, "window": 3, "eps_min": 0.05})
    assert_same_trace(config_from_dict(raw), seed, tmp_path)
