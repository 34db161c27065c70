"""Workload definitions: which jobs each workload runs and how one job runs.

A job is one user-level run of the simulator through its public API: load
a config, call ``run_many`` for one seed, which writes the trace CSV and
``summary.json``. The same job function drives the program under test and
the frozen seed copy, so the two are timed on identical work.

Every input comes from the benchmark's own files and its ``--seed``: the
preset JSONs are read from the frozen seed copy's ``presets`` directory,
run seeds are drawn from ``--seed``, and the replay CSV is generated from
it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
PRESET_DIR = HERE / "seedpkg" / "debiasim_seed" / "presets"

GAUSSIAN_PRESETS = (
    "active_gaussian_over",
    "active_gaussian_under",
    "active_gaussian_under_depth50",
    "exploit_gaussian_under",
    "explore_gaussian_under",
    "fairness_equal_opportunity",
    "fairness_same_rule",
    "fairness_unconstrained",
)
REPLAY = "beta_replay"

# Adult-style Beta truths for the replay workload, as in the acceptance
# suite's replay pipeline test: (group, label) -> (unknown a, known b).
ADULT_STYLE = {
    ("a", 1): (1.94, 3.32), ("a", 0): (1.13, 4.99),
    ("b", 1): (1.97, 3.53), ("b", 0): (1.19, 6.10),
}
REPLAY_FRACS = {("a", 0): 0.35, ("a", 1): 0.35, ("b", 0): 0.15, ("b", 1): 0.15}
REPLAY_ROWS = 60000
REPLAY_FIT_FRAC = 0.025
REPLAY_EPSILON = {"mode": "fixed_step", "step": 0.1, "window": 3000,
                  "eps_min": 0.05, "eps0": 1.0}
SEEDS_PER_KIND = 3


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: Tuple[str, ...]
    # Preset whose config the set-up measurement loads and builds an Engine for.
    setup_preset: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("gaussian_sweep", GAUSSIAN_PRESETS, "active_gaussian_under"),
        Workload("round_solvers", ("beta_debias", "two_param_gaussian"), "two_param_gaussian"),
        Workload(REPLAY, (REPLAY,), "fairness_equal_opportunity"),
    )
}


@dataclass(frozen=True)
class Job:
    kind: str
    run_seed: int
    # Seed of the generated replay CSV; unused by synthetic presets.
    data_seed: int = 0


def job_list(workload: Workload, seed: int) -> List[Job]:
    """The workload's jobs for a benchmark seed, kinds interleaved seed by seed."""
    rng = np.random.default_rng([seed, 20211025])
    run_seeds = [int(s) for s in rng.integers(1, 2**31 - 1, size=SEEDS_PER_KIND)]
    return [Job(kind, s, seed) for s in run_seeds for kind in workload.kinds]


def warmup_jobs(workload: Workload) -> List[Job]:
    """One job per kind at run seed 0 (and replay data seed 0): the warm-up
    runs, whose seed-copy traces are checked against the recorded hashes."""
    return [Job(kind, 0, 0) for kind in workload.kinds]


def preset_path(kind: str) -> Path:
    return PRESET_DIR / f"{kind}.json"


def write_replay_csv(path: Path, data_seed: int, n_rows: int = REPLAY_ROWS) -> None:
    """Seeded Adult-style scored CSV with two groups (columns x, y, g)."""
    rng = np.random.default_rng(data_seed)
    pairs = sorted(REPLAY_FRACS)
    probs = np.array([REPLAY_FRACS[k] for k in pairs])
    idx = rng.choice(len(pairs), size=n_rows, p=probs)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "g"])
        for i in idx:
            g, y = pairs[i]
            a, b = ADULT_STYLE[(g, y)]
            writer.writerow([repr(float(rng.beta(a, b))), y, g])


def _replay_config(pkg, csv_path: Path):
    """Initial Beta fits from the CSV's leading rows, skewed to emulate a
    biased historical fit, then an equal-opportunity shuffled replay."""
    head_n = int(REPLAY_FIT_FRAC * REPLAY_ROWS)
    head = pkg.stream.read_scored_csv(csv_path)[:head_n]
    initial: Dict[str, Dict[str, dict]] = {}
    for (g, y), (_, b_known) in sorted(ADULT_STYLE.items()):
        ref = 50.0 if y == 1 else 60.0
        scores = [r.x for r in head if r.g == g and r.y == y]
        est = pkg.fit_initial_estimate(scores, pkg.Family.BETA, (1.0, b_known), ref_level=ref)
        skew = 0.75 if y == 1 else 1.3
        initial.setdefault(g, {})[str(y)] = {
            "family": "beta", "params": [skew * est.params[0], est.params[1]],
            "ref_level": ref, "support": [0.0, 1.0]}
    population = {
        g: {str(y): {"family": "beta", "params": list(ADULT_STYLE[(g, y)]),
                     "ref_level": 50.0 if y == 1 else 60.0, "support": [0.0, 1.0]}
            for y in (0, 1)}
        for g in ("a", "b")
    }
    return pkg.config_from_dict({
        "engine": "active_debiasing",
        "source": {"kind": "csv_replay", "path": str(csv_path), "shuffle": True},
        "fractions": {"a": {"0": 0.35, "1": 0.35}, "b": {"0": 0.15, "1": 0.15}},
        "population": population,
        "initial_estimates": initial,
        "fairness": {"kind": "equal_opportunity", "tolerance": 1e-6},
        "epsilon": REPLAY_EPSILON,
        "batch_gate": 50,
        "horizon": REPLAY_ROWS,
        "seeds": [0],
    })


def eps_min(kind: str) -> float:
    if kind == REPLAY:
        return REPLAY_EPSILON["eps_min"]
    return float(json.loads(preset_path(kind).read_text())["epsilon"]["eps_min"])


class JobRunner:
    """Runs jobs for one package, writing its outputs under ``out_root`` and
    reading the generated replay CSVs from ``replay_dir``."""

    def __init__(self, pkg, out_root: Path, replay_dir: Path):
        self.pkg = pkg
        self.out_root = out_root
        self.replay_dir = replay_dir

    def replay_csv(self, data_seed: int) -> Path:
        return self.replay_dir / f"replay_{data_seed}.csv"

    def trace_path(self, job: Job) -> Path:
        return self.out_root / f"{job.kind}_{job.data_seed}" / f"trace_{job.run_seed}.csv"

    def run(self, job: Job) -> None:
        pkg = self.pkg
        if job.kind == REPLAY:
            cfg = _replay_config(pkg, self.replay_csv(job.data_seed))
        else:
            cfg = pkg.load_config(preset_path(job.kind))
        pkg.run_many(cfg, out_dir=str(self.trace_path(job).parent), seeds=[job.run_seed])
