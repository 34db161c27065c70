"""Command-line entry points: run, score, fitdist, oracle."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import oracle as oracle_mod
from .config import (
    _dist_from_dict,
    _dist_to_dict,
    _fairness_from_dict,
    _mapping,
    _number,
    _pairs_from_nested,
    _require,
    load_config,
)
from .dist import Family, ParametricEstimate, TruncationWindow
from .engines import UpdateMode
from .errors import ConfigError, DebiasimError
from .policy import lower_bound, require_both_labels, solve_thresholds
from .runner import run_many
from .stream import fit_initial_estimate, fit_scorer


def _parse_seeds(text: str) -> List[int]:
    try:
        seeds = [int(s) for s in text.split(",") if s.strip() != ""]
        if not seeds or any(s < 0 for s in seeds):
            raise ValueError
    except ValueError:
        raise ConfigError(f"--seeds: expected comma-separated non-negative integers, "
                          f"got {text!r}") from None
    return seeds


def _parse_pair(text: str, name: str) -> tuple:
    try:
        lo, hi = (float(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"{name}: expected two comma-separated numbers, got {text!r}") from None
    return lo, hi


def _read_csv(path, columns: List[str]) -> List[dict]:
    """The rows of a CSV whose header names every one of ``columns``."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    missing = [c for c in columns if c not in (reader.fieldnames or ())]
    if missing:
        raise ConfigError(f"{path}: no column named {', '.join(map(repr, missing))}")
    return rows


def _cell(path, i: int, row: dict, column: str, parse=str, expected: str = ""):
    """Row i's cell in ``column`` through ``parse``. A missing cell, or one
    that ``parse`` refuses, is a ConfigError naming the file, row and column."""
    value = row[column]
    if value is None:
        raise ConfigError(f"{path}: row {i}: column {column!r} is missing")
    try:
        return parse(value)
    except ValueError:
        raise ConfigError(f"{path}: row {i}: column {column!r} holds {value!r}, "
                          f"not {expected}") from None


def _label(text: str) -> int:
    y = int(text)
    if y not in (0, 1):
        raise ValueError
    return y


def _cmd_run(args) -> int:
    config = load_config(args.config)
    seeds = _parse_seeds(args.seeds) if args.seeds else None
    traces = run_many(config, out_dir=args.out, seeds=seeds)
    out = args.out or config.out_dir
    print(f"wrote {len(traces)} trace file(s) and summary.json to {out}")
    return 0


def _cmd_score(args) -> int:
    features = [f.strip() for f in args.features.split(",") if f.strip()]
    rows = _read_csv(args.data, [args.label_col, args.group_col] + features)
    if not rows:
        raise ConfigError(f"{args.data}: no data rows")
    labels = []
    for i, row in enumerate(rows, start=1):
        labels.append(_cell(args.data, i, row, args.label_col, _label, "0 or 1"))
        for column in [args.group_col] + features:
            _cell(args.data, i, row, column)
    n_fit = max(int(len(rows) * args.fit_frac), 2)
    model = fit_scorer(rows[:n_fit], label_col=args.label_col, features=features,
                       learn_rate=args.lr, iterations=args.iters)
    numeric = [name for name, level in model.columns if level is None]
    for i, row in enumerate(rows, start=1):
        for column in numeric:
            _cell(args.data, i, row, column, float, "a number")
    out_path = Path(args.out)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "y", "g"])
        for row, y in zip(rows, labels):
            writer.writerow([repr(model.score(row)), y, row[args.group_col]])
    meta = {
        "trained_on": model.trained_on,
        "features": list(model.feature_names),
        "weights": list(model.weights),
        "intercept": model.intercept,
    }
    out_path.with_suffix(".model.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(f"scored {len(rows)} rows -> {out_path} (model fit on first {n_fit})")
    return 0


def _read_scores(args) -> List[float]:
    filters = {}
    for f in args.filter or []:
        key, _, val = f.partition("=")
        if not val:
            raise ConfigError(f"--filter: expected col=value, got {f!r}")
        filters[key] = val
    rows = _read_csv(args.scores, [args.column, *filters])
    scores = []
    for i, row in enumerate(rows, start=1):
        if all(str(row[k]) == v for k, v in filters.items()):
            scores.append(_cell(args.scores, i, row, args.column, float, "a number"))
    return scores


def _cmd_fitdist(args) -> int:
    scores = _read_scores(args)
    family = Family(args.family)
    known = (args.known, args.known)  # unknown slot is overwritten by the solve
    support = _parse_pair(args.support, "--support") if args.support else (0.0, 1.0)
    est = fit_initial_estimate(scores, family, known, ref_level=args.ref_level,
                               support=support, unknown_index=args.unknown_index)
    payload = {"n_scores": len(scores), "estimate": _dist_to_dict(est)}
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


def _make_dist(family: str, params: str, ref_level: float, support: Optional[str],
               name: str) -> ParametricEstimate:
    d = {"family": family, "params": list(_parse_pair(params, name)), "ref_level": ref_level}
    if support:
        d["support"] = list(_parse_pair(support, "--support"))
    return _dist_from_dict(d, name)


def _cmd_oracle_median_density(args) -> int:
    dist = _make_dist(args.family, args.params, args.ref_level, args.support, "--params")
    lo, hi = _parse_pair(args.window, "--window")
    query = oracle_mod.MedianDensityQuery(dist, TruncationWindow(lo, hi), args.m)
    nus = np.linspace(lo, hi, args.grid)
    dens = oracle_mod.median_density(query, nus)
    payload = {"m": args.m, "window": [lo, hi],
               "nu": nus.tolist(), "density": np.asarray(dens).tolist()}
    print(json.dumps(payload))
    return 0


def _cmd_oracle_drift(args) -> int:
    true_dist = _make_dist(args.family, args.true_params, args.ref_level, args.support,
                           "--true-params")
    est = _make_dist(args.family, args.est_params, args.ref_level, args.support,
                     "--est-params")
    lb = args.lb if args.lb is not None else lower_bound(est, args.theta)
    mean, stderr = oracle_mod.drift_oracle(
        true_dist, est, lb=lb, theta=args.theta,
        batch_size=args.batch, replications=args.reps,
        rng=np.random.default_rng(args.seed),
        mode=UpdateMode(args.update_mode),
    )
    print(json.dumps({"mean_drift": mean, "stderr": stderr, "lb": lb,
                      "old_ref": est.ref_value}))
    return 0


def _cmd_oracle_threshold(args) -> int:
    try:
        raw = json.loads(Path(args.spec).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.spec}: invalid JSON: {exc}") from None
    raw = _mapping(raw, "spec")
    estimates = _pairs_from_nested(_require(raw, "estimates", "spec"), "spec.estimates",
                                   _dist_from_dict)
    fractions = _pairs_from_nested(_require(raw, "fractions", "spec"), "spec.fractions",
                                   _number)
    constraint = _fairness_from_dict(raw.get("fairness", {}), "spec.fairness")
    require_both_labels("spec.estimates", estimates, {g for g, _ in estimates})
    brute, brute_loss = oracle_mod.brute_force_threshold(
        estimates, fractions, constraint, grid_resolution=args.grid)
    solved = solve_thresholds(estimates, fractions, constraint)
    print(json.dumps({
        "brute_force": {"thresholds": brute, "loss": brute_loss},
        "solver": {"thresholds": solved},
    }))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="debiasim",
        description="Bounded-exploration debiasing simulator for threshold "
                    "classification under censored feedback.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured experiment")
    p_run.add_argument("--config", required=True, help="path to a run-config JSON")
    p_run.add_argument("--out", help="output directory (overrides config out_dir)")
    p_run.add_argument("--seeds", help="comma-separated seed list (overrides config)")
    p_run.set_defaults(func=_cmd_run)

    p_score = sub.add_parser("score", help="reduce raw features to a 1-D score")
    p_score.add_argument("--data", required=True, help="raw CSV with features/label/group")
    p_score.add_argument("--label-col", default="y")
    p_score.add_argument("--group-col", default="g")
    p_score.add_argument("--features", required=True, help="comma-separated feature columns")
    p_score.add_argument("--fit-frac", type=float, default=0.025,
                         help="fraction of rows used to fit the scorer (default 0.025)")
    p_score.add_argument("--lr", type=float, default=0.1)
    p_score.add_argument("--iters", type=int, default=2000)
    p_score.add_argument("--out", required=True, help="output scored CSV path")
    p_score.set_defaults(func=_cmd_score)

    p_fit = sub.add_parser("fitdist", help="fit the unknown parameter from scores")
    p_fit.add_argument("--scores", required=True, help="CSV containing a score column")
    p_fit.add_argument("--column", default="x")
    p_fit.add_argument("--filter", action="append",
                       help="col=value row filter (repeatable)")
    p_fit.add_argument("--family", choices=[f.value for f in Family], required=True)
    p_fit.add_argument("--known", type=float, required=True,
                       help="value of the known parameter")
    p_fit.add_argument("--unknown-index", type=int, default=0, choices=[0, 1])
    p_fit.add_argument("--ref-level", type=float, default=50.0)
    p_fit.add_argument("--support", help="lo,hi for beta (default 0,1)")
    p_fit.add_argument("--out", help="write the fitted estimate JSON here")
    p_fit.set_defaults(func=_cmd_fitdist)

    p_oracle = sub.add_parser("oracle", help="independent reference computations")
    o_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)

    p_md = o_sub.add_parser("median-density", help="sample-median density on a window")
    p_md.add_argument("--family", choices=[f.value for f in Family], default="gaussian")
    p_md.add_argument("--params", required=True, help="two comma-separated parameters")
    p_md.add_argument("--ref-level", type=float, default=50.0)
    p_md.add_argument("--support", help="lo,hi for beta")
    p_md.add_argument("--window", required=True, help="lo,hi truncation window")
    p_md.add_argument("--m", type=int, required=True, help="batch holds 2m+1 points")
    p_md.add_argument("--grid", type=int, default=101)
    p_md.set_defaults(func=_cmd_oracle_median_density)

    p_dr = o_sub.add_parser("drift", help="Monte-Carlo one-step drift of the update rule")
    p_dr.add_argument("--family", choices=[f.value for f in Family], default="gaussian")
    p_dr.add_argument("--true-params", required=True)
    p_dr.add_argument("--est-params", required=True)
    p_dr.add_argument("--ref-level", type=float, default=50.0)
    p_dr.add_argument("--support", help="lo,hi for beta")
    p_dr.add_argument("--theta", type=float, required=True)
    p_dr.add_argument("--lb", type=float, help="override the derived lower bound")
    p_dr.add_argument("--batch", type=int, default=50)
    p_dr.add_argument("--reps", type=int, default=500)
    p_dr.add_argument("--seed", type=int, default=0)
    p_dr.add_argument("--update-mode", choices=[m.value for m in UpdateMode],
                      default="portion")
    p_dr.set_defaults(func=_cmd_oracle_drift)

    p_th = o_sub.add_parser("threshold", help="brute-force threshold search")
    p_th.add_argument("--spec", required=True,
                      help="JSON with estimates, fractions, optional fairness")
    p_th.add_argument("--grid", type=int, default=4096)
    p_th.set_defaults(func=_cmd_oracle_threshold)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DebiasimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
