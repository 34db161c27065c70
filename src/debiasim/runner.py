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

from .config import RunConfig, seed_list
from .engines import Engine
from .errors import ConfigError
from .metrics import RunTrace, write_summary
from .stream import ArrivalBlock, SyntheticStream, load_replay

log = logging.getLogger(__name__)


def _replay_data(config: RunConfig) -> ArrivalBlock:
    data = load_replay(config.source.path, columns=config.source.columns)
    unknown = set(data.groups) - {g for g, _ in config.pairs}
    if unknown:
        raise ConfigError(
            f"source.path: {config.source.path} has groups {sorted(unknown)} "
            f"that the config does not define"
        )
    return data


def _arrivals(config: RunConfig, stream_rng, shuffle_rng,
              replay: Optional[ArrivalBlock] = None) -> ArrivalBlock:
    """The run's arrivals as one block: the synthetic stream's first
    ``horizon``, or the replay rows, permuted by ``shuffle_rng`` if asked."""
    if config.source.kind == "synthetic":
        return SyntheticStream(config.truth, stream_rng).draw(config.horizon)
    if replay is None:
        replay = _replay_data(config)
    if not config.source.shuffle:
        return replay
    order = shuffle_rng.permutation(len(replay.xs))
    return ArrivalBlock(replay.xs[order], replay.ys[order], replay.gcodes[order], replay.groups)


def run_single(config: RunConfig, seed: int,
               replay: Optional[ArrivalBlock] = None) -> RunTrace:
    """Execute one seeded run to the horizon and return its trace.

    ``replay`` is the replay source already parsed (and its groups checked);
    without it a replay config reads its CSV here.
    """
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
    arrivals = _arrivals(config, np.random.default_rng(stream_seq),
                         np.random.default_rng(shuffle_seq), replay)
    return engine.run(arrivals, config.horizon)


def run_many(
    config: RunConfig,
    out_dir: Optional[str] = None,
    seeds: Optional[Sequence[int]] = None,
) -> List[RunTrace]:
    """Run every seed, write trace_<seed>.csv files plus summary.json.

    A replay CSV is parsed once; each seed shuffles its rows on its own.
    """
    seeds = seed_list(seeds, "seeds") if seeds is not None else list(config.seeds)
    target = out_dir or config.out_dir
    if target is None:
        raise ConfigError("out_dir: required (config field or --out)")
    out = Path(target)
    out.mkdir(parents=True, exist_ok=True)

    replay = _replay_data(config) if config.source.kind != "synthetic" else None
    traces: List[RunTrace] = []
    for seed in seeds:
        trace = run_single(config, seed, replay)
        trace.to_csv(out / f"trace_{seed}.csv")
        traces.append(trace)
        log.info("seed %d: %d updates over %d arrivals", seed,
                 trace.final.t, trace.final.samples_seen)
    write_summary(out / "summary.json", traces)
    (out / "config.json").write_text(config.serialize())
    return traces
