"""In-memory layer tracing by wrapping the program's entry points.

``Tracer.install(pkg)`` replaces functions and methods of the program's
modules with wrappers that time each call and count it; ``uninstall``
puts the originals back. The program's code is not changed. Each timed
layer keeps its call count, total time and self time (its time minus the
time of wrapped calls made inside it). Coarse layers also keep one span per
call (name, start, end, parent, job); the per-arrival and per-cdf layers
keep only their aggregates, so a traced run's memory stays small. Spans and
counts are written once, by ``dump``, when the traced run ends.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List

SOLVE = "policy.solve_thresholds"


class Tracer:
    def __init__(self):
        self.stats: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Counter = Counter()
        self.spans: List[tuple] = []
        self.job = ""
        self._stack: List[list] = []
        self._patches: List[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn, keep_spans: bool = True, on_result=None, on_error=None):
        stats, stack, spans = self.stats, self._stack, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if on_error is not None:
                    on_error()
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if keep_spans:
                    spans.append((name, frame[1], end, stack[-1][0] if stack else None, self.job))
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts, stack = self.counts, self._stack

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if stack and stack[-1][0] == SOLVE:
                counts[name + ".in_solve"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    # -- install / uninstall -----------------------------------------------

    def install(self, pkg) -> "Tracer":
        t, c = self._timed, self._counted
        runner, engines = pkg.runner, pkg.engines
        stream, metrics, dist = pkg.stream, pkg.metrics, pkg.dist
        counts = self.counts

        def rows_parsed(result, args):
            counts["stream.rows_parsed"] += len(result)

        def csv_bytes(result, args):
            counts["metrics.to_csv.bytes"] += os.path.getsize(args[1])

        def lb_clamp(result, args):
            est0, theta = args[0], args[1]
            if theta < est0.ref_value:
                counts["policy.lower_bound.clamps"] += 1

        def sigma_failed():
            counts["engines.recover_sigma.failures"] += 1

        self._patch(pkg, "load_config", lambda f: t("config.load_config", f))
        self._patch(pkg, "run_many", lambda f: t("runner.run_many", f))
        self._patch(pkg, "fit_initial_estimate", lambda f: t("stream.fit_initial", f))
        self._patch(runner, "run_single", lambda f: t("runner.run_single", f))
        self._patch(runner, "Engine", lambda f: t("runner.engine_init", f))
        self._patch(runner, "SyntheticStream", lambda f: t("stream.open", f))
        self._patch(runner, "CsvReplayStream", lambda f: t("stream.open", f))
        self._patch(runner, "write_summary", lambda f: t("metrics.write_summary", f))
        self._patch(stream, "read_scored_csv",
                    lambda f: t("stream.read_csv", f, on_result=rows_parsed))
        self._patch(stream.SyntheticStream, "__next__",
                    lambda f: t("stream.next", f, keep_spans=False))
        self._patch(engines.Engine, "run", lambda f: t("engines.loop", f))
        self._patch(engines, "decide", lambda f: t("engines.decide", f, keep_spans=False))
        self._patch(engines, "update_reference", lambda f: t("engines.update_reference", f))
        self._patch(engines, "recover_sigma",
                    lambda f: t("engines.recover_sigma", f, on_error=sigma_failed))
        self._patch(engines, "solve_thresholds", lambda f: t(SOLVE, f))
        self._patch(engines, "lower_bound", lambda f: t("policy.lower_bound", f, on_result=lb_clamp))
        self._patch(engines, "upper_bound", lambda f: t("policy.upper_bound", f))
        self._patch(engines.BatchBuffer, "add", lambda f: c("engines.retained", f))
        self._patch(metrics.RunTrace, "to_csv", lambda f: t("metrics.to_csv", f, on_result=csv_bytes))
        self._patch(metrics.OracleBaseline, "solve", lambda f: t("metrics.oracle_solve", f))
        self._patch(dist.ParametricEstimate, "cdf", lambda f: c("dist.cdf", f))
        self._patch(dist.ParametricEstimate, "quantile", lambda f: c("dist.quantile", f))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.stats[name][0]) if name in self.stats else 0

    def self_s(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def dump(self, path: Path, extra: dict) -> None:
        payload = {
            "layers": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                       for k, v in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "job": j}
                      for n, s, e, p, j in self.spans],
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")
