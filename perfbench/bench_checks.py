"""Output checks on one job's trace CSV.

A job is ``ok``; ``stalled``, when it made zero estimate updates;
``not_debiased``, when it missed its bias check; or ``failed``, when it
raised or broke a trace invariant. Only ``ok`` jobs count as completed.
Stalled and not-debiased jobs are the program's results, reported by
preset and seed; failed jobs make the run's output incorrect.

Trace invariants, checked on every row: ``samples_seen`` strictly
increasing, ``lb <= theta``, ``eps_min <= eps <= 1`` and a finite
``omega_hat``.

Bias checks use the acceptance suite's tolerance on the final
reference-point bias (0.15). Presets whose single runs sit well inside it
(pure exploration, the Beta and two-parameter presets, the Beta replay,
which the acceptance suite also checks run by run) must end every run under
it. The active Gaussian presets reach it only as a mean over many seeds:
single runs end at up to 0.57 (20 seeds each), so for them every pair's
final bias must instead be below its initial bias. The exploitation-only
baseline drifts by design and has no bias check.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

TOLERANCE = 0.15
WITHIN_TOLERANCE = {"explore_gaussian_under", "beta_debias", "two_param_gaussian", "beta_replay"}
MUST_SHRINK = {
    "active_gaussian_over", "active_gaussian_under", "active_gaussian_under_depth50",
    "fairness_equal_opportunity", "fairness_same_rule", "fairness_unconstrained",
}


@dataclass
class Outcome:
    status: str
    reasons: List[str] = field(default_factory=list)
    arrivals: int = 0
    updates: int = 0
    rows: int = 0
    final_bias: Dict[str, float] = field(default_factory=dict)


def read_trace(path: Path):
    """Column names and float rows of a trace CSV (its comment line skipped)."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(lines)
    cols = next(reader)
    rows = [[float(v) for v in r] for r in reader]
    return cols, rows


def trace_body_sha256(path: Path) -> str:
    """SHA-256 of the trace without its first line, which embeds the config
    hash and with it the replay CSV's location."""
    data = Path(path).read_bytes()
    return hashlib.sha256(data[data.index(b"\n") + 1:]).hexdigest()


def check_trace(path: Path, kind: str, eps_min: float) -> Outcome:
    cols, rows = read_trace(path)
    idx = {c: i for i, c in enumerate(cols)}
    groups = [c[len("theta_"):] for c in cols if c.startswith("theta_")]
    pairs = [c[len("omega_hat_"):] for c in cols if c.startswith("omega_hat_")]
    out = Outcome("ok", rows=len(rows))
    if not rows:
        return Outcome("failed", ["trace has no rows"])

    prev_seen = -1.0
    for n, row in enumerate(rows):
        seen = row[idx["samples_seen"]]
        if not seen > prev_seen:
            out.reasons.append(f"row {n}: samples_seen {seen:g} not above {prev_seen:g}")
        prev_seen = seen
        for g in groups:
            theta, lb, eps = row[idx[f"theta_{g}"]], row[idx[f"lb_{g}"]], row[idx[f"eps_{g}"]]
            if not lb <= theta:
                out.reasons.append(f"row {n}: lb_{g} {lb!r} > theta_{g} {theta!r}")
            if not eps_min <= eps <= 1.0:
                out.reasons.append(f"row {n}: eps_{g} {eps!r} outside [{eps_min}, 1]")
        for p in pairs:
            if not math.isfinite(row[idx[f"omega_hat_{p}"]]):
                out.reasons.append(f"row {n}: omega_hat_{p} not finite")
        if len(out.reasons) > 5:
            break

    first, last = rows[0], rows[-1]
    out.arrivals = int(last[idx["samples_seen"]])
    out.updates = int(last[idx["t"]])
    out.final_bias = {p: last[idx[f"bias_{p}"]] for p in pairs}
    if out.reasons:
        out.status = "failed"
        return out
    if out.updates == 0:
        out.status = "stalled"
        return out
    if kind in WITHIN_TOLERANCE:
        worst = max(out.final_bias.values())
        if not worst < TOLERANCE:
            out.reasons.append(f"final bias {worst:.4f} not under {TOLERANCE}")
    elif kind in MUST_SHRINK:
        for p in pairs:
            b0, b1 = first[idx[f"bias_{p}"]], last[idx[f"bias_{p}"]]
            if not b1 < b0:
                out.reasons.append(f"bias_{p} {b1:.4f} did not shrink from {b0:.4f}")
    if out.reasons:
        out.status = "not_debiased"
    return out
