"""Golden traces: the seed-0 trace of every shipped preset, byte for byte.

Each hash is the SHA-256 of the whole ``trace_0.csv`` that ``run_many``
writes for the config at seed 0. A change to the engine that moves any
number, draws one more uniform, or reorders a column changes the hash. A PR
that changes traces on purpose re-records these values and says why.

The two ``+window_median`` cases run the baseline engines with the
window-median update rule. No preset uses that pairing, and it is where the
label-0 retention rule differs between bounded and baseline engines.

The replay case runs the ``csv_replay`` path: a seeded Adult-style scored
CSV, initial fits through ``fit_initial_estimate``, equal opportunity,
shuffled. The CSV is named relative to the run directory, because the
config hash in the trace's first line covers ``source.path``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from debiasim.config import config_from_dict, load_config
from debiasim.runner import run_many
from helpers import adult_style_replay_config, write_adult_style_csv

PRESET_DIR = Path(__file__).resolve().parents[1] / "src" / "debiasim" / "presets"

GOLDEN = {
    "active_gaussian_over": "bf0a90b2e20c22bab435db219e0715adb4bbdaa8820b074a95e805167e8d727e",
    "active_gaussian_under": "c6b11e3358359106a78d0c34813e816533a2e31c92a2fa92c8191eac5b1407c4",
    "active_gaussian_under_depth50":
        "45124cd409d675cf0269627233196c435cf22898836c1f087aeac08ea41d88c6",
    "beta_debias": "7eaeb66089af64a053b309147007e94c634d37f7077f3f7629d39797cc2ed9aa",
    "exploit_gaussian_under": "936de1280df8f2e8248d440b86a1f896144f01e75ce6466e60c77c3371c96af1",
    "explore_gaussian_under": "3afea71c0bf1f411651b44936d9f5af7ed90412c1bd760a7b42a87216e1e4975",
    "fairness_equal_opportunity":
        "7234a2613886c427a3fd101e6713e38ea4dac504a999deb11953fd5677e00909",
    "fairness_same_rule": "c861802d9d747f6aa04b810046b996a2a68f5cb5caa5623eb413e1e60e0aad5f",
    "fairness_unconstrained": "4e2d1097e70247d29a28c54c280719c3c5e4d74c56225549e6943783059180e5",
    "two_param_gaussian": "9bf84db21bfe9be249ecf697bb9245f39bd30aaffe1c6e51d3813788d3669b94",
    "explore_gaussian_under+window_median":
        "099491d6a11c2e7fa22cc798efc3e47e41f0667651a5d3bc6869fbd9e37b32f8",
    "exploit_gaussian_under+window_median":
        "9f251570f5f27ae8a797ae274cdfcb3bc5f9ac719d833b46bc675b6872eba7f7",
}

REPLAY_ROWS = 10000
REPLAY_GOLDEN = "fa2d6aa467248f784db4382021cebb1c9dc8927da7ac1ef97fe3cb799078378c"
REPLAY_EPSILON = {"mode": "fixed_step", "step": 0.1, "window": 3000, "eps_min": 0.05,
                  "eps0": 1.0}


def _config(case: str):
    stem, _, mode = case.partition("+")
    path = PRESET_DIR / f"{stem}.json"
    if not mode:
        return load_config(path)
    raw = json.loads(path.read_text())
    raw["update_mode"] = mode
    return config_from_dict(raw)


def test_every_preset_is_covered():
    shipped = {p.stem for p in PRESET_DIR.glob("*.json")}
    assert shipped == {case for case in GOLDEN if "+" not in case}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_seed0_trace_sha256(case, tmp_path):
    run_many(_config(case), out_dir=str(tmp_path), seeds=[0])
    digest = hashlib.sha256((tmp_path / "trace_0.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN[case]


def test_replay_seed0_trace_sha256(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_adult_style_csv("replay.csv", REPLAY_ROWS, seed=2024)
    cfg = adult_style_replay_config("replay.csv", REPLAY_ROWS, REPLAY_EPSILON, shuffle=True,
                                    seeds=[0])
    run_many(cfg, out_dir="out", seeds=[0])
    digest = hashlib.sha256((tmp_path / "out" / "trace_0.csv").read_bytes()).hexdigest()
    assert digest == REPLAY_GOLDEN
