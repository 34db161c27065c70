"""Execute configured runs and persist their artifacts.

One seed produces one trace CSV; an invocation over several seeds also
writes an aggregate summary JSON. Runs are deterministic per (config hash,
seed): the seed feeds a SeedSequence that spawns separate generators for
the arrival stream, the shuffle, and the engine's decision draws.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from .config import RunConfig
from .engines import Engine
from .errors import ConfigError
from .metrics import RunTrace, write_summary
from .stream import CsvReplayStream, SyntheticStream

log = logging.getLogger(__name__)


def _make_stream(config: RunConfig, stream_rng, shuffle_rng):
    if config.source.kind == "synthetic":
        return SyntheticStream(config.truth, stream_rng)
    stream = CsvReplayStream(
        config.source.path,
        columns=config.source.columns,
        shuffle_rng=shuffle_rng if config.source.shuffle else None,
    )
    unknown = {r.g for r in stream.records} - {g for g, _ in config.pairs}
    if unknown:
        raise ConfigError(
            f"source.path: {config.source.path} has groups {sorted(unknown)} "
            f"that the config does not define"
        )
    return stream


def run_single(config: RunConfig, seed: int) -> RunTrace:
    """Execute one seeded run to the horizon and return its trace."""
    ss = np.random.SeedSequence(seed)
    engine_seq, stream_seq, shuffle_seq = ss.spawn(3)
    engine = Engine(
        kind=config.engine,
        estimates=config.initial_estimates,
        fractions=config.fractions,
        constraint=config.fairness,
        schedule=config.schedule,
        batch_gate=config.batch_gate,
        rng=np.random.default_rng(engine_seq),
        truth=config.truth,
        update_mode=config.update_mode,
        config_hash=config.config_hash(),
        seed=seed,
    )
    stream = _make_stream(config, np.random.default_rng(stream_seq),
                          np.random.default_rng(shuffle_seq))
    return engine.run(stream, config.horizon)


def run_many(
    config: RunConfig,
    out_dir: Optional[str] = None,
    seeds: Optional[Sequence[int]] = None,
) -> List[RunTrace]:
    """Run every seed, write trace_<seed>.csv files plus summary.json."""
    seeds = list(seeds) if seeds is not None else list(config.seeds)
    target = out_dir or config.out_dir
    if target is None:
        raise ConfigError("out_dir: required (config field or --out)")
    out = Path(target)
    out.mkdir(parents=True, exist_ok=True)

    traces: List[RunTrace] = []
    for seed in seeds:
        trace = run_single(config, seed)
        trace.to_csv(out / f"trace_{seed}.csv")
        traces.append(trace)
        log.info("seed %d: %d updates over %d arrivals", seed,
                 trace.final.t, trace.final.samples_seen)
    write_summary(out / "summary.json", traces)
    (out / "config.json").write_text(config.serialize())
    return traces
