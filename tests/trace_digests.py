"""Print SHA-256 digests of everything ``run_many`` writes: each shipped
preset at seeds 0-2, and the Adult-style ``csv_replay`` run of
``test_golden_traces`` at seeds 0-2.

Run it against two source trees and compare the output; a change that
keeps every trace byte-identical prints the same lines for both::

    PYTHONPATH=src python tests/trace_digests.py > change.txt
    PYTHONPATH=../parent/src python tests/trace_digests.py > parent.txt
    diff parent.txt change.txt

The first line names the package the digests came from. pytest does not
collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

import debiasim
from debiasim.config import load_config
from debiasim.runner import run_many
from helpers import adult_style_replay_config, write_adult_style_csv
from test_golden_traces import REPLAY_EPSILON, REPLAY_ROWS

SEEDS = [0, 1, 2]


def digests(case: str, config, work: Path) -> None:
    out = work / case
    run_many(config, out_dir=str(out), seeds=SEEDS)
    for path in sorted(out.iterdir()):
        print(f"{case} {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}")


def main() -> int:
    package = Path(debiasim.__file__).resolve().parent
    print(f"# debiasim from {package}")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for preset in sorted((package / "presets").glob("*.json")):
            digests(preset.stem, load_config(preset), work)
        # The replay names its CSV relative to the run directory, as the
        # golden test does, so the config hash does not depend on ``tmp``.
        os.chdir(work)
        write_adult_style_csv("replay.csv", REPLAY_ROWS, seed=2024)
        replay = adult_style_replay_config("replay.csv", REPLAY_ROWS, REPLAY_EPSILON,
                                           shuffle=True, seeds=SEEDS)
        digests("csv_replay", replay, work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
