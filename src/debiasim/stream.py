"""Arrival streams and score construction.

A run's arrivals reach the engine as one block of columns (``ArrivalBlock``).
Synthetic streams draw (group, label) from the population's mass fractions
and the feature from that pair's true distribution. A replay is a scored CSV
(columns x, y, g), parsed once into columns. For raw multi-feature data, a
from-scratch logistic regression collapses records to a probability score
in (0, 1), which doubles as a Beta-support feature.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .dist import Family, ParametricEstimate, param_from_reference
from .errors import InsufficientDataError, MalformedRowError
from .policy import GroupId, PopulationSpec

# Arrivals drawn per block of a synthetic stream.
_CHUNK = 8192


class AgentRecord(NamedTuple):
    x: float
    y: int
    g: GroupId


class ArrivalBlock(NamedTuple):
    """Consecutive arrivals as columns.

    ``xs`` holds the features, ``ys`` the labels (0 or 1) and ``gcodes``
    each arrival's index into ``groups``, the names of the block's groups.
    """

    xs: np.ndarray
    ys: np.ndarray
    gcodes: np.ndarray
    groups: Tuple[GroupId, ...]

    @classmethod
    def from_records(cls, records: Sequence[AgentRecord]) -> "ArrivalBlock":
        groups = tuple(sorted({r.g for r in records}))
        code = {g: i for i, g in enumerate(groups)}
        return cls(np.array([r.x for r in records], dtype=float),
                   np.array([r.y for r in records], dtype=np.intp),
                   np.array([code[r.g] for r in records], dtype=np.intp),
                   groups)


class SyntheticStream:
    """Seeded stream of agents from a true population spec.

    Arrivals are drawn in chunks of ``_CHUNK``; each chunk draws its pairs
    first, then every pair's features in one call.
    """

    def __init__(self, population: PopulationSpec, rng: np.random.Generator):
        self.population = population
        self.rng = rng
        self.pairs = sorted(k for k, f in population.fractions.items() if f > 0)
        probs = np.array([population.fractions[k] for k in self.pairs])
        self._cum = np.cumsum(probs / probs.sum())
        self.groups = tuple(sorted({g for g, _ in self.pairs}))
        code = {g: i for i, g in enumerate(self.groups)}
        self._pair_y = np.array([y for _, y in self.pairs], dtype=np.intp)
        self._pair_g = np.array([code[g] for g, _ in self.pairs], dtype=np.intp)

    def _draw(self) -> ArrivalBlock:
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
        return ArrivalBlock(xs, self._pair_y[idx], self._pair_g[idx], self.groups)

    def draw(self, n: int) -> ArrivalBlock:
        """The stream's first n arrivals, cut from ceil(n / _CHUNK) chunks."""
        chunks = [self._draw() for _ in range(max(1, -(-n // _CHUNK)))]
        xs, ys, gcodes = (np.concatenate([c[i] for c in chunks])[:n] for i in range(3))
        return ArrivalBlock(xs, ys, gcodes, self.groups)


DEFAULT_COLUMNS = {"x": "x", "y": "y", "g": "g"}


def read_scored_csv(path, columns: Optional[Mapping[str, str]] = None) -> List[AgentRecord]:
    """Load a scored CSV into agent records; malformed rows name their index.

    Blank lines are skipped and not counted. A column named twice in the
    header reads its last occurrence.
    """
    cols = dict(DEFAULT_COLUMNS)
    if columns:
        cols.update(columns)
    records: List[AgentRecord] = []
    append = records.append
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or any(c not in header for c in cols.values()):
            raise MalformedRowError(
                f"{path}: header must contain columns {sorted(cols.values())}, "
                f"got {header}"
            )
        last = {name: i for i, name in enumerate(header)}
        ix, iy, ig = last[cols["x"]], last[cols["y"]], last[cols["g"]]
        i = 0
        for row in reader:
            if not row:
                continue
            i += 1
            try:
                x = float(row[ix])
                y = int(row[iy])
                if y not in (0, 1):
                    raise ValueError(f"label must be 0 or 1, got {y}")
                append(AgentRecord(x, y, row[ig]))
            except ValueError as exc:
                raise MalformedRowError(f"{path}: row {i}: {exc}") from exc
            except IndexError as exc:
                raise MalformedRowError(
                    f"{path}: row {i}: {len(row)} fields, header has {len(header)}"
                ) from exc
    return records


def load_replay(path, columns: Optional[Mapping[str, str]] = None) -> ArrivalBlock:
    """A scored CSV parsed into one block of columns."""
    return ArrivalBlock.from_records(read_scored_csv(path, columns))


# One design-matrix column: (feature, None) passes a numeric feature
# through; (feature, level) is 1.0 where the feature equals level, else 0.0.
Column = Tuple[str, Optional[str]]


def _encode(row: Mapping[str, object], column: Column) -> float:
    name, level = column
    if level is None:
        return float(row[name])
    return 1.0 if str(row[name]) == level else 0.0


@dataclass(frozen=True)
class ScorerModel:
    """Logistic model mapping raw feature rows to a score in (0, 1)."""

    weights: Tuple[float, ...]
    intercept: float
    columns: Tuple[Column, ...]
    means: Tuple[float, ...]
    scales: Tuple[float, ...]
    trained_on: int

    @property
    def feature_names(self) -> Tuple[str, ...]:
        """Column names: the feature, or ``feature=level`` for a one-hot column."""
        return tuple(name if level is None else f"{name}={level}"
                     for name, level in self.columns)

    def score(self, row: Mapping[str, object]) -> float:
        z = self.intercept
        for column, w, m, s in zip(self.columns, self.weights, self.means, self.scales):
            z += w * ((_encode(row, column) - m) / s)
        return 1.0 / (1.0 + math.exp(-z))


def _design_matrix(records: Sequence[Mapping[str, object]],
                   features: Sequence[str]) -> Tuple[np.ndarray, List[Column]]:
    """Numeric columns pass through; categorical columns one-hot encode."""
    columns: List[Column] = []
    for name in features:
        try:
            for rec in records:
                float(rec[name])
            columns.append((name, None))
        except (TypeError, ValueError):
            levels = sorted({str(r[name]) for r in records})
            columns += [(name, level) for level in levels[1:]]  # first level is the reference
    return np.column_stack([[_encode(r, c) for r in records] for c in columns]), columns


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
    X_raw, columns = _design_matrix(records, features)
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
        columns=tuple(columns),
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
