"""Run configuration: JSON schema, validation, canonical hashing.

A config is one JSON document (see README for the schema). Validation
errors carry the offending field path. The config hash covers the semantic
fields only (seeds and output directory excluded), so re-running the same
experiment elsewhere reproduces identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

from .dist import Family, ParametricEstimate
from .engines import EngineKind, ExplorationSchedule, ScheduleMode, UpdateMode
from .errors import ConfigError, DomainError
from .policy import (
    ConstraintKind,
    FairnessConstraint,
    PairKey,
    PopulationSpec,
    require_both_labels,
)
from .stream import DEFAULT_COLUMNS


def _require(obj: Mapping, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}.{key}: missing required field")
    return obj[key]


def _mapping(value, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{path}: expected a mapping, got {value!r}")
    return value


def _int(value, path: str) -> int:
    if type(value) is not int:  # bool and float are not integers here
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _number(value, path: str) -> float:
    # bool is not a number here; json reads NaN and Infinity as floats.
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _optional_str(value, path: str) -> Optional[str]:
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _dist_from_dict(d: Mapping, path: str) -> ParametricEstimate:
    d = _mapping(d, path)
    try:
        family = Family(_require(d, "family", path))
    except ValueError as exc:
        raise ConfigError(f"{path}.family: {exc}") from None
    params = _require(d, "params", path)
    if not (isinstance(params, (list, tuple)) and len(params) == 2):
        raise ConfigError(f"{path}.params: expected two numbers, got {params!r}")
    params = tuple(_number(v, f"{path}.params") for v in params)
    kwargs = {
        "ref_level": _number(d.get("ref_level", 50.0), f"{path}.ref_level"),
        "unknown_index": _int(d.get("unknown_index", 0), f"{path}.unknown_index"),
    }
    if family is Family.BETA:
        support = d.get("support", [0.0, 1.0])
        if not (isinstance(support, (list, tuple)) and len(support) == 2):
            raise ConfigError(f"{path}.support: expected [lo, hi], got {support!r}")
        kwargs["support"] = tuple(_number(v, f"{path}.support") for v in support)
    try:
        return ParametricEstimate(family, params, **kwargs)
    except Exception as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _dist_to_dict(est: ParametricEstimate) -> Dict:
    out = {
        "family": est.family.value,
        "params": list(est.params),
        "ref_level": est.ref_level,
        "unknown_index": est.unknown_index,
    }
    if est.family is Family.BETA:
        out["support"] = list(est.support)
    return out


def _pairs_from_nested(nested: Mapping, path: str, parse_leaf) -> Dict[PairKey, object]:
    out: Dict[PairKey, object] = {}
    for g, labels in _mapping(nested, path).items():
        if not isinstance(labels, Mapping):
            raise ConfigError(f"{path}.{g}: expected a mapping of labels")
        for y_str, leaf in labels.items():
            if y_str not in ("0", "1"):
                raise ConfigError(f"{path}.{g}.{y_str}: label key must be '0' or '1'")
            out[(str(g), int(y_str))] = parse_leaf(leaf, f"{path}.{g}.{y_str}")
    return out


def _fairness_from_dict(fair_raw, path: str) -> FairnessConstraint:
    fair_raw = _mapping(fair_raw, path)
    try:
        kind = ConstraintKind(fair_raw.get("kind", "unconstrained"))
    except ValueError as exc:
        raise ConfigError(f"{path}.kind: {exc}") from None
    tolerance = _number(fair_raw.get("tolerance", 1e-6), f"{path}.tolerance")
    try:
        return FairnessConstraint(kind=kind, tolerance=tolerance)
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _pairs_to_nested(pairs: Mapping[PairKey, object], to_leaf) -> Dict:
    nested: Dict[str, Dict[str, object]] = {}
    for (g, y), leaf in sorted(pairs.items()):
        nested.setdefault(g, {})[str(y)] = to_leaf(leaf)
    return nested


@dataclass(frozen=True)
class SourceConfig:
    kind: str  # "synthetic" | "csv_replay"
    path: Optional[str] = None
    columns: Optional[Dict[str, str]] = None
    shuffle: bool = False


@dataclass(frozen=True)
class RunConfig:
    engine: EngineKind
    source: SourceConfig
    initial_estimates: Dict[PairKey, ParametricEstimate]
    fractions: Dict[PairKey, float]
    fairness: FairnessConstraint
    schedule: ExplorationSchedule
    batch_gate: int
    horizon: int
    seeds: Tuple[int, ...]
    truth: Optional[PopulationSpec] = None
    update_mode: UpdateMode = UpdateMode.PORTION
    out_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.horizon < 4 * self.batch_gate:
            raise ConfigError(
                f"horizon: must be >= 4 * batch_gate ({4 * self.batch_gate}), got {self.horizon}"
            )
        if self.batch_gate < 1:
            raise ConfigError(f"batch_gate: must be >= 1, got {self.batch_gate}")
        if not self.seeds:
            raise ConfigError("seeds: at least one seed required")
        total = sum(self.fractions.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"fractions: must sum to 1, got {total}")
        groups = {g for g, _ in self.fractions} | {g for g, _ in self.initial_estimates}
        try:
            require_both_labels("fractions", {k for k, f in self.fractions.items() if f > 0},
                                groups)
            require_both_labels("initial_estimates", self.initial_estimates, groups)
        except DomainError as exc:
            raise ConfigError(str(exc)) from None
        if self.source.kind == "synthetic" and self.truth is None:
            raise ConfigError("population: required for synthetic sources")

    @property
    def pairs(self) -> List[PairKey]:
        return sorted(self.initial_estimates)

    def to_dict(self) -> Dict:
        out: Dict = {
            "engine": self.engine.value,
            "update_mode": self.update_mode.value,
            "source": {k: v for k, v in {
                "kind": self.source.kind,
                "path": self.source.path,
                "columns": self.source.columns,
                "shuffle": self.source.shuffle,
            }.items() if v not in (None, False)},
            "initial_estimates": _pairs_to_nested(self.initial_estimates, _dist_to_dict),
            "fractions": _pairs_to_nested(self.fractions, lambda f: f),
            "fairness": {"kind": self.fairness.kind.value, "tolerance": self.fairness.tolerance},
            "epsilon": {
                "mode": self.schedule.mode.value,
                "step": self.schedule.step,
                "gain": self.schedule.gain,
                "window": self.schedule.window,
                "eps_min": self.schedule.eps_min,
                "eps0": self.schedule.eps0,
            },
            "batch_gate": self.batch_gate,
            "horizon": self.horizon,
            "seeds": list(self.seeds),
        }
        if self.truth is not None:
            out["population"] = _pairs_to_nested(self.truth.dists, _dist_to_dict)
        if self.out_dir is not None:
            out["out_dir"] = self.out_dir
        return out

    def serialize(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def config_hash(self) -> str:
        """Hash of the semantic config (seeds and out_dir excluded)."""
        d = self.to_dict()
        d.pop("seeds", None)
        d.pop("out_dir", None)
        canon = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def config_from_dict(raw: Mapping) -> RunConfig:
    try:
        engine = EngineKind(_require(raw, "engine", "config"))
    except ValueError as exc:
        raise ConfigError(f"config.engine: {exc}") from None
    try:
        update_mode = UpdateMode(raw.get("update_mode", "portion"))
    except ValueError as exc:
        raise ConfigError(f"config.update_mode: {exc}") from None

    src_raw = _mapping(_require(raw, "source", "config"), "config.source")
    kind = _require(src_raw, "kind", "config.source")
    if kind not in ("synthetic", "csv_replay"):
        raise ConfigError(f"config.source.kind: unknown kind {kind!r}")
    if kind == "csv_replay" and not src_raw.get("path"):
        raise ConfigError("config.source.path: required for csv_replay")
    shuffle = src_raw.get("shuffle", False)
    if type(shuffle) is not bool:
        raise ConfigError(f"config.source.shuffle: expected true or false, got {shuffle!r}")
    columns = src_raw.get("columns") or None
    if columns is not None:
        columns = dict(_mapping(columns, "config.source.columns"))
        if not all(k in DEFAULT_COLUMNS and isinstance(v, str) for k, v in columns.items()):
            raise ConfigError(f"config.source.columns: expected column names for keys "
                              f"{sorted(DEFAULT_COLUMNS)} only, got {columns!r}")
    source = SourceConfig(
        kind=kind,
        path=_optional_str(src_raw.get("path"), "config.source.path"),
        columns=columns,
        shuffle=shuffle,
    )

    estimates = _pairs_from_nested(
        _require(raw, "initial_estimates", "config"), "config.initial_estimates",
        _dist_from_dict,
    )

    fractions = _pairs_from_nested(_require(raw, "fractions", "config"),
                                   "config.fractions", _number)

    truth = None
    if "population" in raw:
        true_dists = _pairs_from_nested(raw["population"], "config.population",
                                        _dist_from_dict)
        try:
            truth = PopulationSpec(fractions=fractions, dists=true_dists)
        except Exception as exc:
            raise ConfigError(f"config.population: {exc}") from exc

    fairness = _fairness_from_dict(raw.get("fairness", {}), "config.fairness")

    eps_raw = _mapping(raw.get("epsilon", {}), "config.epsilon")
    try:
        mode = ScheduleMode(eps_raw.get("mode", "fixed_step"))
    except ValueError as exc:
        raise ConfigError(f"config.epsilon.mode: {exc}") from None
    try:
        schedule = ExplorationSchedule(
            mode=mode,
            step=_number(eps_raw.get("step", 0.1), "config.epsilon.step"),
            gain=_number(eps_raw.get("gain", 1.0), "config.epsilon.gain"),
            window=_int(eps_raw.get("window", 3000), "config.epsilon.window"),
            eps_min=_number(eps_raw.get("eps_min", 0.05), "config.epsilon.eps_min"),
            eps0=_number(eps_raw.get("eps0", 1.0), "config.epsilon.eps0"),
        )
    except DomainError as exc:
        raise ConfigError(f"config.epsilon: {exc}") from None

    seeds = raw.get("seeds", [0])
    if not isinstance(seeds, list) or not all(type(s) is int and s >= 0 for s in seeds):
        raise ConfigError(f"config.seeds: expected a list of non-negative integers, got {seeds!r}")

    return RunConfig(
        engine=engine,
        source=source,
        initial_estimates=estimates,
        fractions=fractions,
        fairness=fairness,
        schedule=schedule,
        batch_gate=_int(raw.get("batch_gate", 50), "config.batch_gate"),
        horizon=_int(_require(raw, "horizon", "config"), "config.horizon"),
        seeds=tuple(seeds),
        truth=truth,
        update_mode=update_mode,
        out_dir=_optional_str(raw.get("out_dir"), "config.out_dir"),
    )


def parse_config(text: str) -> RunConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a JSON object")
    return config_from_dict(raw)


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text())
