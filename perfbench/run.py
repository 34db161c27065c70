"""Seed-normalized benchmark of the debiasim simulator.

    python3 perfbench/run.py --workload gaussian_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. With ``--trace 0`` it times each of the
workload's jobs with the program (``src/debiasim``) and with the frozen
seed copy (``perfbench/seedpkg/debiasim_seed``) at the same time, in two
threads of one process pinned to one CPU, so both sides share the host's
speed from one interpreter switch to the next. Time metrics are the
median program-to-seed CPU-time ratio of each job kind times that kind's
recorded seed time (``reference.json``), i.e. seconds at the seed's
recorded speed, so they hold still while the host's own speed swings.
With ``--trace 1`` it runs each job kind once traced, between two untraced
runs, through wrappers around the program's entry points
(``bench_trace.py``) and reports per-layer counts and self times.

The second-to-last line of output is a JSON report (raw seconds, ratio
spreads, host facts, stalled and failed jobs); the last line is the result
object. ``--record`` re-measures ``reference.json`` from the seed copy.
See NOTES.md.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import bench_workloads as bw  # noqa: E402
from bench_checks import Outcome, check_trace, trace_body_sha256  # noqa: E402
from bench_trace import SOLVE, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
CHILD = HERE / "bench_child.py"
SETUP_PAIRS = 2
MIN_ROUNDS_PER_KIND = 2
# Past the deadline the loop stops even if a kind still lacks its minimum rounds.
HARD_EXTRA_S = 60.0
ROUND_TIMEOUT_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "arrivals_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "completed_run_ratio": "ratio",
}
PER_LAYER = {
    "stream.arrivals": "count",
    "stream.self_s": "s",
    "stream.read_csv_s": "s",
    "stream.rows_parsed": "count",
    "engines.loop.self_s": "s",
    "engines.loop.us_per_arrival": "us",
    "engines.decide.calls": "count",
    "engines.decide.self_s": "s",
    "engines.retained": "count",
    "engines.update_reference.calls": "count",
    "engines.update_reference.self_s": "s",
    "engines.recover_sigma.calls": "count",
    "engines.recover_sigma.self_s": "s",
    "engines.recover_sigma.ms_per_call": "ms",
    "engines.recover_sigma.failures": "count",
    "policy.solve_thresholds.calls": "count",
    "policy.solve_thresholds.self_s": "s",
    "policy.solve_thresholds.ms_per_call": "ms",
    "policy.lower_bound.calls": "count",
    "policy.lower_bound.clamps": "count",
    "policy.upper_bound.calls": "count",
    "dist.cdf.calls": "count",
    "dist.quantile.calls": "count",
    "dist.cdf.calls_per_solve": "count",
    "metrics.trace_rows": "count",
    "metrics.to_csv.self_s": "s",
    "metrics.to_csv.bytes": "bytes",
    "metrics.write_summary.self_s": "s",
    "metrics.oracle_solve.self_s": "s",
    "config.load_config.self_s": "s",
    "runner.engine_init.self_s": "s",
    "engines.updates": "count",
    "engines.arrivals_per_update": "count",
    "engines.stalled_runs": "count",
    "trace.overhead_ratio": "ratio",
}
# Layer groups for the self-time shares in the traced report.
LAYER_GROUPS = {
    "stream": ("stream.",),
    "engines.loop+decide": ("engines.loop", "engines.decide"),
    "engines.update": ("engines.update_reference", "engines.recover_sigma"),
    "policy": ("policy.",),
    "metrics+runner+config": ("metrics.", "runner.", "config."),
}


class BenchError(RuntimeError):
    pass


# -- packages ---------------------------------------------------------------

def import_package(name: str, directory: Path):
    sys.path.insert(0, str(directory))
    try:
        pkg = __import__(name)
    except ImportError as exc:
        raise BenchError(f"cannot import {name} from {directory}: {exc}") from exc
    if not Path(pkg.__file__).resolve().is_relative_to(directory.resolve()):
        raise BenchError(f"{name} was imported from {pkg.__file__}, not {directory}")
    return pkg


def import_program():
    return import_package("debiasim", ROOT / "src")


def import_seed_copy():
    return import_package("debiasim_seed", HERE / "seedpkg")


def host_facts() -> dict:
    import scipy
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_pins": {v: os.environ[v] for v in THREAD_VARS},
    }


# -- helpers ----------------------------------------------------------------

def prepare_replay(wl: bw.Workload, work: Path, data_seeds) -> None:
    if bw.REPLAY in wl.kinds:
        for s in sorted(set(data_seeds)):
            bw.write_replay_csv(work / f"replay_{s}.csv", s)


def pin_to_one_cpu() -> int:
    """Pin this process (and the threads and children it starts later) to
    one CPU, so that everything it times shares that CPU's speed."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def freeze_heap() -> None:
    """After warm-up, move every live object to the collector's permanent
    generation. Full collections during timed jobs then scan only what the
    jobs allocate, not the imported packages; which of the two threads
    triggers a collection is arbitrary, so without this the scan of the
    whole heap lands on either side at random."""
    gc.collect()
    gc.freeze()


def check_job(runner: bw.JobRunner, job: bw.Job) -> Outcome:
    return check_trace(runner.trace_path(job), job.kind, bw.eps_min(job.kind))


def run_checked(runner: bw.JobRunner, job: bw.Job) -> tuple:
    """Run one job alone; return its wall seconds and output check outcome."""
    gc.collect()
    start = time.perf_counter()
    try:
        runner.run(job)
    except Exception as exc:  # a raising job is a failed job, not a crash
        return time.perf_counter() - start, Outcome("failed", [f"raised {exc!r}"])
    return time.perf_counter() - start, check_job(runner, job)


def _spin_until(event: threading.Event) -> None:
    while not event.is_set():
        x = 0
        for i in range(5000):
            x += i


def dual_round(runners: dict, job: bw.Job, prog_first: bool) -> tuple:
    """Run ``job`` with the program and the seed copy at once, in two threads.

    With the process pinned to one CPU the threads take turns on the
    interpreter lock every few milliseconds, so both see the same host
    speed. Each side's cost is its thread CPU time. The side that ends
    first spins until the other ends, so neither side runs alone.
    Returns the CPU seconds per side and the exception the program raised,
    if any.
    """
    done = {side: threading.Event() for side in runners}
    cpu, errors = {}, {}

    def work(side: str, other: str) -> None:
        start = time.thread_time()
        try:
            runners[side].run(job)
        except Exception as exc:  # reported by the caller
            errors[side] = exc
        cpu[side] = time.thread_time() - start
        done[side].set()
        _spin_until(done[other])

    order = (("prog", "seed"), ("seed", "prog"))
    threads = [threading.Thread(target=work, args=pair, daemon=True)
               for pair in (order if prog_first else order[::-1])]
    gc.collect()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=ROUND_TIMEOUT_S)
        if t.is_alive():
            raise BenchError(f"{job} did not finish within {ROUND_TIMEOUT_S} s")
    if "seed" in errors:
        raise BenchError(f"seed copy raised on {job}: {errors['seed']!r}")
    return cpu, errors.get("prog")


def _setup_child(package: str, config: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(CHILD), "setup", "--package", package, "--config", str(config)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)


def _setup_result(proc: subprocess.Popen, package: str) -> dict:
    try:
        out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"setup child for {package} failed: {err.strip()[-500:]}")
    return json.loads(out.strip().splitlines()[-1])


def time_setup(package: str, config: Path) -> float:
    """Wall seconds from starting a fresh interpreter to its Engine built."""
    start = time.monotonic()
    result = _setup_result(_setup_child(package, config), package)
    return result["engine_built_at"] - start


def setup_pair(config: Path, prog_first: bool) -> dict:
    """Set up the program and the seed copy in two fresh interpreters at
    once, sharing this process's CPU; returns each one's CPU seconds and
    wall seconds up to its Engine built."""
    names = ("debiasim", "debiasim_seed") if prog_first else ("debiasim_seed", "debiasim")
    started, procs = {}, {}
    try:
        for name in names:
            started[name] = time.monotonic()
            procs[name] = _setup_child(name, config)
        results = {name: _setup_result(procs[name], name) for name in names}
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return {name: (r["cpu_s"], r["engine_built_at"] - started[name])
            for name, r in results.items()}


def quartile_summary(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "iqr_over_median": (q3 - q1) / statistics.median(values)}


def tail_percentile(values) -> dict:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return {"percentile": p, "value": float(np.percentile(values, p))}
    return {"percentile": None, "value": None}


def outcome_record(job: bw.Job, outcome: Outcome) -> dict:
    return {"preset": job.kind, "seed": job.run_seed, "data_seed": job.data_seed,
            "reasons": outcome.reasons}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    })


# -- untraced, seed-normalized measurement -----------------------------------

def measure(wl: bw.Workload, seed: int, seconds: float, work: Path):
    began = time.monotonic()
    ref = json.loads(REFERENCE.read_text())["workloads"][wl.name]
    prog, seedpkg = import_program(), import_seed_copy()
    prepare_replay(wl, work, {0, seed})
    runners = {"prog": bw.JobRunner(prog, work / "prog", work),
               "seed": bw.JobRunner(seedpkg, work / "seed", work)}

    # Peak RSS comes from a child that never imports the seed copy. It is
    # started before the pin, runs while this process warms up, and is
    # joined before anything is timed.
    rss_proc = subprocess.Popen(
        [sys.executable, str(CHILD), "rss", "--workload", wl.name, "--seed", str(seed),
         "--work-dir", str(work)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        cpu = pin_to_one_cpu()
        failures, hashes_match, matches_seed = [], {}, {}
        for job in bw.warmup_jobs(wl):
            _, outcome = run_checked(runners["prog"], job)
            if outcome.status == "failed":
                failures.append(outcome_record(job, outcome))
            runners["seed"].run(job)
            seed_hash = trace_body_sha256(runners["seed"].trace_path(job))
            hashes_match[job.kind] = seed_hash == ref["trace_sha256"][job.kind]
            if runners["prog"].trace_path(job).exists():
                matches_seed[job.kind] = (
                    trace_body_sha256(runners["prog"].trace_path(job)) == seed_hash)
        out, err = rss_proc.communicate(timeout=150)
    finally:
        if rss_proc.poll() is None:
            rss_proc.kill()
            rss_proc.wait()
    if rss_proc.returncode != 0:
        raise BenchError(f"rss child failed: {err.strip()[-500:]}")
    peak_rss_mb = json.loads(out.strip().splitlines()[-1])["peak_rss_mb"]
    freeze_heap()

    start = time.monotonic()
    deadline = start + seconds
    setups = [setup_pair(bw.preset_path(wl.setup_preset), i % 2 == 0)
              for i in range(SETUP_PAIRS)]

    jobs = bw.job_list(wl, seed)
    rounds = defaultdict(list)  # kind -> [(prog cpu s, seed cpu s)]
    outcomes = []
    i = 0
    while True:
        job = jobs[i % len(jobs)]
        i += 1
        kind_rounds = rounds[job.kind]
        round_start = time.monotonic()
        cpu_s, error = dual_round(runners, job, prog_first=len(kind_rounds) % 2 == 0)
        round_s = time.monotonic() - round_start
        kind_rounds.append((cpu_s["prog"], cpu_s["seed"]))
        outcome = (Outcome("failed", [f"raised {error!r}"]) if error is not None
                   else check_job(runners["prog"], job))
        outcomes.append((job, outcome))
        now = time.monotonic()
        enough = all(len(rounds[k]) >= MIN_ROUNDS_PER_KIND for k in wl.kinds)
        if enough and now + 0.5 * round_s >= deadline:
            break
        if now >= deadline + HARD_EXTRA_S:
            break
    window_s = time.monotonic() - start

    # Seed-normalized metrics.
    ratios = {k: [p / s for p, s in rounds[k]] for k in wl.kinds}
    ratio = {k: statistics.median(ratios[k]) for k in wl.kinds}
    seed_s = ref["seed_job_s"]
    wall_s = bw.SEEDS_PER_KIND * sum(ratio[k] * seed_s[k] for k in wl.kinds)
    arrivals_of = defaultdict(list)
    for job, outcome in outcomes:
        if outcome.status != "failed":
            arrivals_of[job.kind].append(outcome.arrivals)
    arrivals = bw.SEEDS_PER_KIND * sum(
        statistics.median(arrivals_of[k]) if arrivals_of[k] else 0 for k in wl.kinds)
    setup_ratios = [r["debiasim"][0] / r["debiasim_seed"][0] for r in setups]
    setup_s = statistics.median(setup_ratios) * ref["seed_setup_s"]

    attempted = len(outcomes)
    completed = sum(o.status == "ok" for _, o in outcomes)
    stalled = sorted({(j.kind, j.run_seed) for j, o in outcomes if o.status == "stalled"})
    not_debiased = {(j.kind, j.run_seed): o for j, o in outcomes if o.status == "not_debiased"}
    failures += [outcome_record(j, o) for j, o in outcomes if o.status == "failed"]
    failed = sum(o.status == "failed" for _, o in outcomes)
    job_times = [r * seed_s[k] for k in wl.kinds for r in ratios[k]]
    final_bias = defaultdict(lambda: defaultdict(list))
    for job, outcome in outcomes:
        for pair, b in outcome.final_bias.items():
            final_bias[job.kind][pair].append(b)

    metrics = {
        "wall_s": wall_s,
        "arrivals_per_s": arrivals / wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "completed_run_ratio": completed / attempted,
    }
    report = {
        "workload": wl.name, "seed": seed, "seconds": seconds,
        "warmup_s": start - began, "window_s": window_s,
        "host": {**host_facts(), "pinned_cpu": cpu},
        "jobs": [f"{j.kind}:{j.run_seed}" for j in jobs],
        "arrivals": arrivals,
        "raw": {
            "cpu_s_per_job": {k: {"program": statistics.median(p for p, _ in rounds[k]),
                                  "seed": statistics.median(s for _, s in rounds[k])}
                              for k in wl.kinds},
            "setup_wall_s": {"program": statistics.median(r["debiasim"][1] for r in setups),
                             "seed": statistics.median(r["debiasim_seed"][1] for r in setups)},
        },
        "round_ratio": {k: quartile_summary(ratios[k]) for k in wl.kinds},
        "setup_ratio": quartile_summary(setup_ratios),
        "job_time_s": {"n": len(job_times), "median": statistics.median(job_times),
                       "tail": tail_percentile(job_times)},
        "stalled": [{"preset": k, "seed": s} for k, s in stalled],
        "not_debiased": [{"preset": k, "seed": s, "reasons": o.reasons}
                         for (k, s), o in sorted(not_debiased.items())],
        "failures": failures,
        "seed_copy_hashes_match": hashes_match,
        "program_trace_matches_seed": matches_seed,
        "mean_final_bias": {k: {p: statistics.fmean(v) for p, v in sorted(d.items())}
                            for k, d in sorted(final_bias.items())},
    }
    correct = not failures and all(hashes_match.values())
    return report, result_line(correct, attempted, failed, metrics, END_TO_END)


# -- traced run ---------------------------------------------------------------

def trace(wl: bw.Workload, seed: int, work: Path):
    prog = import_program()
    cpu = pin_to_one_cpu()
    prepare_replay(wl, work, {seed})
    runner = bw.JobRunner(prog, work / "prog", work)
    jobs = bw.job_list(wl, seed)[: len(wl.kinds)]
    for job in jobs:
        runner.run(job)  # warm-up
    freeze_heap()

    tracer = Tracer()
    untraced_s = traced_s = 0.0
    outcomes, failures, identical = [], [], {}
    for job in jobs:
        # Untraced, traced, untraced: the overhead ratio takes the mean of the
        # two untraced runs, which cancels a steady drift in host speed.
        t_before, _ = run_checked(runner, job)
        plain = runner.trace_path(job).read_bytes()
        tracer.job = f"{job.kind}:{job.run_seed}"
        tracer.install(prog)
        try:
            t_traced, outcome = run_checked(runner, job)
        finally:
            tracer.uninstall()
        traced_bytes = runner.trace_path(job).read_bytes()
        t_after, _ = run_checked(runner, job)
        untraced_s += 0.5 * (t_before + t_after)
        traced_s += t_traced
        identical[job.kind] = traced_bytes == plain
        outcomes.append((job, outcome))
        if outcome.status == "failed":
            failures.append(outcome_record(job, outcome))

    arrivals = sum(o.arrivals for _, o in outcomes)
    updates = sum(o.updates for _, o in outcomes)
    cnt = tracer.counts
    solves = tracer.calls(SOLVE)
    sigma_calls = tracer.calls("engines.recover_sigma")
    stream_self = sum(v[2] for k, v in tracer.stats.items() if k.startswith("stream."))
    metrics = {
        "stream.arrivals": arrivals,
        "stream.self_s": stream_self,
        "stream.read_csv_s": tracer.self_s("stream.read_csv"),
        "stream.rows_parsed": cnt["stream.rows_parsed"],
        "engines.loop.self_s": tracer.self_s("engines.loop"),
        "engines.loop.us_per_arrival": 1e6 * tracer.self_s("engines.loop") / max(arrivals, 1),
        "engines.decide.calls": tracer.calls("engines.decide"),
        "engines.decide.self_s": tracer.self_s("engines.decide"),
        "engines.retained": cnt["engines.retained"],
        "engines.update_reference.calls": tracer.calls("engines.update_reference"),
        "engines.update_reference.self_s": tracer.self_s("engines.update_reference"),
        "engines.recover_sigma.calls": sigma_calls,
        "engines.recover_sigma.self_s": tracer.self_s("engines.recover_sigma"),
        "engines.recover_sigma.ms_per_call":
            1e3 * tracer.self_s("engines.recover_sigma") / sigma_calls if sigma_calls else 0.0,
        "engines.recover_sigma.failures": cnt["engines.recover_sigma.failures"],
        "policy.solve_thresholds.calls": solves,
        "policy.solve_thresholds.self_s": tracer.self_s(SOLVE),
        "policy.solve_thresholds.ms_per_call":
            1e3 * tracer.self_s(SOLVE) / solves if solves else 0.0,
        "policy.lower_bound.calls": tracer.calls("policy.lower_bound"),
        "policy.lower_bound.clamps": cnt["policy.lower_bound.clamps"],
        "policy.upper_bound.calls": tracer.calls("policy.upper_bound"),
        "dist.cdf.calls": cnt["dist.cdf"],
        "dist.quantile.calls": cnt["dist.quantile"],
        "dist.cdf.calls_per_solve": cnt["dist.cdf.in_solve"] / solves if solves else 0.0,
        "metrics.trace_rows": sum(o.rows for _, o in outcomes),
        "metrics.to_csv.self_s": tracer.self_s("metrics.to_csv"),
        "metrics.to_csv.bytes": cnt["metrics.to_csv.bytes"],
        "metrics.write_summary.self_s": tracer.self_s("metrics.write_summary"),
        "metrics.oracle_solve.self_s": tracer.self_s("metrics.oracle_solve"),
        "config.load_config.self_s": tracer.self_s("config.load_config"),
        "runner.engine_init.self_s": tracer.self_s("runner.engine_init"),
        "engines.updates": updates,
        "engines.arrivals_per_update": arrivals / max(updates, 1),
        "engines.stalled_runs": sum(o.status == "stalled" for _, o in outcomes),
        "trace.overhead_ratio": traced_s / untraced_s,
    }
    total_self = sum(v[2] for v in tracer.stats.values())
    shares = {
        group: sum(v[2] for k, v in tracer.stats.items() if k.startswith(prefixes)) / total_self
        for group, prefixes in LAYER_GROUPS.items()
    }
    report = {
        "workload": wl.name, "seed": seed, "host": {**host_facts(), "pinned_cpu": cpu},
        "jobs": [f"{j.kind}:{j.run_seed}" for j in jobs],
        "untraced_s": untraced_s, "traced_s": traced_s,
        "self_time_share": shares,
        "traced_trace_identical": identical,
        "failures": failures,
    }
    tracer.dump(HERE / "out" / f"spans-{wl.name}-seed{seed}.json",
                {"workload": wl.name, "seed": seed, "metrics": metrics})
    correct = not failures and all(identical.values())
    return report, result_line(correct, len(outcomes), len(failures), metrics, PER_LAYER)


# -- recording the seed reference -------------------------------------------

def record(work: Path, repeats: int = 7) -> dict:
    """Seed-copy job and set-up times, alone on one CPU, and the seed-0
    trace hashes."""
    seedpkg = import_seed_copy()
    out = {"host": {**host_facts(), "pinned_cpu": pin_to_one_cpu()},
           "repeats": repeats, "workloads": {}}
    for wl in bw.WORKLOADS.values():
        prepare_replay(wl, work, {0})
        runner = bw.JobRunner(seedpkg, work / wl.name, work)
        hashes = {}
        for job in bw.warmup_jobs(wl):
            runner.run(job)
            hashes[job.kind] = trace_body_sha256(runner.trace_path(job))
        freeze_heap()
        times = defaultdict(list)
        for _ in range(repeats):
            for job in bw.warmup_jobs(wl):
                gc.collect()
                begin = time.perf_counter()
                runner.run(job)
                times[job.kind].append(time.perf_counter() - begin)
        setups = [time_setup("debiasim_seed", bw.preset_path(wl.setup_preset))
                  for _ in range(repeats)]
        out["workloads"][wl.name] = {
            "seed_job_s": {k: statistics.median(v) for k, v in times.items()},
            "seed_setup_s": statistics.median(setups),
            "trace_sha256": hashes,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(bw.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-measure reference.json from the seed copy")
    args = ap.parse_args()
    if not args.record and args.workload is None:
        ap.error("--workload is required")

    work = HERE / "_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.record:
            REFERENCE.write_text(json.dumps(record(work), indent=2, sort_keys=True) + "\n")
            return 0
        wl = bw.WORKLOADS[args.workload]
        if args.trace:
            report, line = trace(wl, args.seed, work)
        else:
            report, line = measure(wl, args.seed, args.seconds, work)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there
    print(json.dumps(report))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
