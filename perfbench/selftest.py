"""The benchmark's own tests. Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

They are kept out of the repository's default test discovery because each
traced workload runs for several seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_workloads as bw  # noqa: E402
import run  # noqa: E402

EXACT_UNITS = {"count", "bytes"}


@pytest.mark.parametrize("workload", sorted(bw.WORKLOADS))
def test_traced_runs_keep_traces_and_repeat_counts(workload, tmp_path):
    wl = bw.WORKLOADS[workload]
    results = []
    for attempt in range(2):
        work = tmp_path / str(attempt)
        work.mkdir()
        report, line = run.trace(wl, 5, work)
        assert report["traced_trace_identical"] == {k: True for k in wl.kinds}
        result = json.loads(line)
        assert result["correct"] is True
        results.append(result["metrics"])
    counts = [{k: v["value"] for k, v in m.items() if v["unit"] in EXACT_UNITS}
              for m in results]
    assert counts[0] == counts[1]
    assert counts[0]["stream.arrivals"] > 0


def test_seed_copy_reproduces_recorded_traces(tmp_path):
    seedpkg = run.import_seed_copy()
    ref = json.loads(run.REFERENCE.read_text())["workloads"]
    for wl in bw.WORKLOADS.values():
        run.prepare_replay(wl, tmp_path, {0})
        runner = bw.JobRunner(seedpkg, tmp_path / wl.name, tmp_path)
        for job in bw.warmup_jobs(wl):
            runner.run(job)
            digest = run.trace_body_sha256(runner.trace_path(job))
            assert digest == ref[wl.name]["trace_sha256"][job.kind], job


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bw.WORKLOADS)


def test_job_list_follows_seed():
    wl = bw.WORKLOADS["gaussian_sweep"]
    assert bw.job_list(wl, 3) == bw.job_list(wl, 3)
    assert bw.job_list(wl, 3) != bw.job_list(wl, 4)
    assert len(bw.job_list(wl, 3)) == len(wl.kinds) * bw.SEEDS_PER_KIND


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("_work", "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "gaussian_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
