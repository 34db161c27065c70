"""The program attributes that ``perfbench/`` reads are still there.

The benchmark drives the package through its public names, replaces
``runner.Engine`` to time setup, reads a replay CSV's leading records for
the initial fits, and wraps a fixed list of entry points when tracing. Its
traced runs are not part of this suite, so a rename here would otherwise
break them unseen.
"""

import importlib.util
import operator
import sys
from pathlib import Path

import pytest

import debiasim
from debiasim import engines, runner, stream
from debiasim.errors import NoSolutionError
from test_cli import base_dict

BENCH_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"

# Read directly; a missing one crashes the benchmark.
REQUIRED = [
    "load_config", "config_from_dict", "run_single", "run_many", "fit_initial_estimate",
    "Family.BETA", "runner.Engine", "runner.run_single", "stream.SyntheticStream",
    "stream.read_scored_csv",
]
# Wrapped by the tracer; a missing one leaves its per-layer metric at 0.
TRACED = [
    "runner.write_summary", "engines.Engine.run", "engines.update_reference",
    "engines.recover_sigma", "engines.solve_thresholds", "engines.lower_bound",
    "engines.upper_bound", "engines.BatchBuffer", "metrics.RunTrace.to_csv",
    "metrics.OracleBaseline.solve", "dist.ParametricEstimate.cdf",
    "dist.ParametricEstimate.quantile",
]


@pytest.mark.parametrize("name", REQUIRED + TRACED)
def test_attribute_exists(name):
    assert operator.attrgetter(name)(debiasim) is not None


def test_read_scored_csv_returns_sliceable_records(tmp_path):
    path = tmp_path / "scored.csv"
    path.write_text("x,y,g\n0.25,1,a\n0.5,0,b\n0.75,1,a\n")
    head = stream.read_scored_csv(path)[:2]
    assert [(r.x, r.y, r.g) for r in head] == [(0.25, 1, "a"), (0.5, 0, "b")]


def test_run_single_builds_engine_through_runner(monkeypatch):
    # Setup time is measured up to the moment run_single builds its Engine.
    class Built(Exception):
        pass

    def build(**kwargs):
        raise Built

    monkeypatch.setattr(runner, "Engine", build)
    with pytest.raises(Built):
        debiasim.run_single(debiasim.config_from_dict(base_dict()), 0)


def test_solver_wrappers_count_per_update(monkeypatch):
    # The tracer reads solves and bounds from the engines-module names: one
    # threshold solve at set-up and one per update, one lower bound per
    # group per solve on a bounded engine.
    calls = {"solve_thresholds": 0, "lower_bound": 0}
    for name in calls:
        def counted(*args, _f=getattr(engines, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(engines, name, counted)
    raw = base_dict(horizon=3000, fractions={"a": {"0": 0.25, "1": 0.25},
                                             "b": {"0": 0.25, "1": 0.25}})
    for key in ("initial_estimates", "population"):
        raw[key]["b"] = raw[key]["a"]
    config = debiasim.config_from_dict(raw)
    assert config.engine is engines.EngineKind.ACTIVE_DEBIASING
    trace = debiasim.run_single(config, 0)
    assert trace.final.t > 0
    assert calls == {"solve_thresholds": trace.final.t + 1,
                     "lower_bound": 2 * (trace.final.t + 1)}


def load_bench_trace(monkeypatch):
    """perfbench/bench_trace.py as a module, read without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    return bench_trace


def test_tracer_installs_on_program(monkeypatch, tmp_path):
    # The benchmark's tracer wraps the program without changing what it
    # writes, and times one update_reference call per pair per update.
    bench_trace = load_bench_trace(monkeypatch)
    config = debiasim.config_from_dict(base_dict(horizon=3000))
    debiasim.run_single(config, 0).to_csv(tmp_path / "plain.csv")
    tracer = bench_trace.Tracer().install(debiasim)
    try:
        trace = debiasim.run_single(config, 0)
    finally:
        tracer.uninstall()
    trace.to_csv(tmp_path / "traced.csv")
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert trace.final.t > 0
    assert tracer.calls("engines.update_reference") == len(trace.pairs) * trace.final.t


def test_tracer_counts_sigma_failure(monkeypatch):
    # The tracer counts a failed sigma recovery by the NoSolutionError that
    # leaves engines.recover_sigma; a root find that caught it inside would
    # leave engines.recover_sigma.failures at 0.
    bench_trace = load_bench_trace(monkeypatch)
    tracer = bench_trace.Tracer().install(debiasim)
    try:
        with pytest.raises(NoSolutionError, match="cannot bracket sigma"):
            engines.recover_sigma(1.0, 0.5, 0.0, 1.0)
    finally:
        tracer.uninstall()
    assert tracer.counts["engines.recover_sigma.failures"] == 1
    assert tracer.calls("engines.recover_sigma") == 1
