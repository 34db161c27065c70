"""Arrival streams and score construction.

Synthetic streams draw (group, label) from the population's mass fractions
and the feature from that pair's true distribution. Replay streams walk a
scored CSV (columns x, y, g). For raw multi-feature data, a from-scratch
logistic regression collapses records to a probability score in (0, 1),
which doubles as a Beta-support feature.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .dist import Family, ParametricEstimate, param_from_reference
from .engines import AgentRecord
from .errors import InsufficientDataError, MalformedRowError
from .policy import PopulationSpec

# Arrivals drawn per refill of a synthetic stream.
_CHUNK = 8192


class SyntheticStream:
    """Infinite seeded stream of agents from a true population spec."""

    def __init__(self, population: PopulationSpec, rng: np.random.Generator):
        self.population = population
        self.rng = rng
        self.pairs = sorted(k for k, f in population.fractions.items() if f > 0)
        probs = np.array([population.fractions[k] for k in self.pairs])
        self._cum = np.cumsum(probs / probs.sum())
        self._xs: np.ndarray = np.empty(0)
        self._idx: np.ndarray = np.empty(0, dtype=np.intp)
        self._pos = 0

    def _refill(self) -> None:
        n = _CHUNK
        idx = np.searchsorted(self._cum, self.rng.random(n), side="right")
        idx = np.minimum(idx, len(self.pairs) - 1)
        xs = np.empty(n)
        for i, key in enumerate(self.pairs):
            mask = idx == i
            if not mask.any():
                continue
            dist = self.population.dists[key]
            count = int(mask.sum())
            if dist.family is Family.GAUSSIAN:
                mu, sigma = dist.params
                xs[mask] = mu + sigma * self.rng.standard_normal(count)
            else:
                a, b = dist.params
                lo, hi = dist.support
                xs[mask] = lo + (hi - lo) * self.rng.beta(a, b, count)
        self._xs, self._idx, self._pos = xs, idx, 0

    def __iter__(self) -> Iterator[AgentRecord]:
        return self

    def __next__(self) -> AgentRecord:
        if self._pos >= len(self._xs):
            self._refill()
        i = self._pos
        self._pos += 1
        g, y = self.pairs[self._idx[i]]
        return AgentRecord(float(self._xs[i]), y, g)


DEFAULT_COLUMNS = {"x": "x", "y": "y", "g": "g"}


def read_scored_csv(path, columns: Optional[Mapping[str, str]] = None) -> List[AgentRecord]:
    """Load a scored CSV into agent records; malformed rows name their index."""
    cols = dict(DEFAULT_COLUMNS)
    if columns:
        cols.update(columns)
    records: List[AgentRecord] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or any(c not in reader.fieldnames for c in cols.values()):
            raise MalformedRowError(
                f"{path}: header must contain columns {sorted(cols.values())}, "
                f"got {reader.fieldnames}"
            )
        for i, row in enumerate(reader):
            try:
                x = float(row[cols["x"]])
                y = int(row[cols["y"]])
                if y not in (0, 1):
                    raise ValueError(f"label must be 0 or 1, got {y}")
                records.append(AgentRecord(x, y, str(row[cols["g"]])))
            except (TypeError, ValueError) as exc:
                raise MalformedRowError(f"{path}: row {i + 1}: {exc}") from exc
    return records


class CsvReplayStream:
    """Finite stream replaying scored rows, optionally shuffled."""

    def __init__(self, path, columns: Optional[Mapping[str, str]] = None,
                 shuffle_rng: Optional[np.random.Generator] = None):
        self.records = read_scored_csv(path, columns)
        if shuffle_rng is not None:
            order = shuffle_rng.permutation(len(self.records))
            self.records = [self.records[i] for i in order]

    def __iter__(self) -> Iterator[AgentRecord]:
        return iter(self.records)


@dataclass(frozen=True)
class ScorerModel:
    """Logistic model mapping raw feature rows to a score in (0, 1)."""

    weights: Tuple[float, ...]
    intercept: float
    feature_names: Tuple[str, ...]
    means: Tuple[float, ...]
    scales: Tuple[float, ...]
    trained_on: int

    def score(self, row: Mapping[str, object]) -> float:
        z = self.intercept
        for name, w, m, s in zip(self.feature_names, self.weights, self.means, self.scales):
            z += w * ((_encode_value(row, name) - m) / s)
        return 1.0 / (1.0 + math.exp(-z))


def _encode_value(row: Mapping[str, object], encoded_name: str) -> float:
    if encoded_name in row:
        return float(row[encoded_name])  # numeric feature
    base, _, level = encoded_name.rpartition("=")
    return 1.0 if str(row[base]) == level else 0.0


def _design_matrix(records: Sequence[Mapping[str, object]],
                   features: Sequence[str]) -> Tuple[np.ndarray, List[str]]:
    """Numeric columns pass through; categorical columns one-hot encode."""
    numeric: Dict[str, bool] = {}
    for name in features:
        try:
            for rec in records:
                float(rec[name])
            numeric[name] = True
        except (TypeError, ValueError):
            numeric[name] = False
    names: List[str] = []
    columns: List[np.ndarray] = []
    for name in features:
        if numeric[name]:
            names.append(name)
            columns.append(np.array([float(r[name]) for r in records]))
        else:
            levels = sorted({str(r[name]) for r in records})
            for level in levels[1:]:  # first level is the reference
                names.append(f"{name}={level}")
                columns.append(np.array([1.0 if str(r[name]) == level else 0.0
                                         for r in records]))
    return np.column_stack(columns), names


def logistic_loss(X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float) -> float:
    z = X @ w + b
    # log(1 + exp(-z*y')) with y' in {-1, +1}, stable form
    margin = np.where(y == 1, z, -z)
    return float(np.mean(np.logaddexp(0.0, -margin)))


def fit_scorer(
    records: Sequence[Mapping[str, object]],
    label_col: str,
    features: Sequence[str],
    learn_rate: float = 0.1,
    iterations: int = 2000,
    grad_tol: float = 1e-4,
) -> ScorerModel:
    """Full-batch gradient descent on the logistic loss.

    Features are standardized to zero mean / unit variance before fitting;
    categorical inputs are one-hot encoded. Raises on single-class input;
    warns (but still returns the model) when the gradient has not dropped
    below tolerance after the iteration budget.
    """
    y = np.array([int(r[label_col]) for r in records])
    if len(set(y.tolist())) < 2:
        raise InsufficientDataError("need both classes present to fit a scorer")
    X_raw, names = _design_matrix(records, features)
    means = X_raw.mean(axis=0)
    scales = X_raw.std(axis=0)
    scales[scales == 0.0] = 1.0
    X = (X_raw - means) / scales

    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    grad_norm = math.inf
    for _ in range(iterations):
        p = 1.0 / (1.0 + np.exp(-(X @ w + b)))
        err = p - y
        grad_w = X.T @ err / n
        grad_b = float(err.mean())
        w -= learn_rate * grad_w
        b -= learn_rate * grad_b
        grad_norm = float(np.sqrt(np.sum(grad_w**2) + grad_b**2))
        if grad_norm < grad_tol:
            break
    if grad_norm >= grad_tol:
        warnings.warn(
            f"scorer gradient norm {grad_norm:.3g} above tolerance {grad_tol} "
            f"after {iterations} iterations",
            RuntimeWarning,
        )
    return ScorerModel(
        weights=tuple(float(v) for v in w),
        intercept=b,
        feature_names=tuple(names),
        means=tuple(float(v) for v in means),
        scales=tuple(float(v) for v in scales),
        trained_on=n,
    )


def fit_initial_estimate(
    scores: Sequence[float],
    family: Family,
    known_params: Tuple[float, float],
    ref_level: float,
    support: Tuple[float, float] = (0.0, 1.0),
    unknown_index: int = 0,
) -> ParametricEstimate:
    """Fit the single unknown parameter from an empirical percentile.

    Takes the empirical ref_level-percentile of the scores and maps it back
    through the family's quantile function.
    """
    arr = np.asarray(list(scores), dtype=float)
    if arr.size < 10:
        raise InsufficientDataError(f"need at least 10 scores, got {arr.size}")
    ref_value = float(np.percentile(arr, ref_level))
    params = param_from_reference(family, known_params, unknown_index,
                                  ref_level, ref_value, support=support)
    return ParametricEstimate(family, params, ref_level=ref_level,
                              support=support, unknown_index=unknown_index)
