"""Fresh-process measurements, started by run.py as child interpreters.

``setup``: import one package, load a preset config and build the Engine
that ``run_single`` would build, then print the ``time.monotonic()`` at
which the Engine exists and the process's CPU seconds up to then. The
parent reads the clock just before it starts the child, so the difference
covers interpreter start, import, config load and Engine construction.

``rss``: run each of a workload's job kinds once with the program only
(the seed copy is never imported) and print the process's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_DIRS = {"debiasim": ROOT / "src", "debiasim_seed": HERE / "seedpkg"}


class _EngineBuilt(Exception):
    pass


def setup(package: str, config: str) -> None:
    sys.path.insert(0, str(PACKAGE_DIRS[package]))
    pkg = __import__(package)
    cfg = pkg.load_config(config)
    engine_cls = pkg.runner.Engine

    def build(*args, **kwargs):
        engine_cls(*args, **kwargs)
        raise _EngineBuilt(time.monotonic(), time.process_time())

    pkg.runner.Engine = build
    try:
        pkg.run_single(cfg, 0)
    except _EngineBuilt as done:
        built_at, cpu_s = done.args
        print(json.dumps({"engine_built_at": built_at, "cpu_s": cpu_s}))
        return
    raise SystemExit("run_single returned without building an Engine")


def rss(workload: str, seed: int, work_dir: str) -> None:
    sys.path.insert(0, str(PACKAGE_DIRS["debiasim"]))
    import debiasim
    import bench_workloads as bw

    wl = bw.WORKLOADS[workload]
    runner = bw.JobRunner(debiasim, Path(work_dir) / "rss", Path(work_dir))
    for job in bw.job_list(wl, seed)[: len(wl.kinds)]:
        runner.run(job)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": peak_kb / 1024.0}))


def main() -> None:
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("setup")
    s.add_argument("--package", choices=sorted(PACKAGE_DIRS), required=True)
    s.add_argument("--config", required=True)
    r = sub.add_parser("rss")
    r.add_argument("--workload", required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--work-dir", required=True)
    args = ap.parse_args()
    if args.mode == "setup":
        setup(args.package, args.config)
    else:
        rss(args.workload, args.seed, args.work_dir)


if __name__ == "__main__":
    main()
