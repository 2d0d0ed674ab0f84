"""Measurement harness: ground-truth metrics, verdicts, and report files.

evaluate_mixture prices a mixture exactly on the true kernel: the (reward,
cost) values of each component policy, weighted by the mixing weights.
Policies are priced into a memo by _price_new, PRICE_CHUNK at a time in one
stacked evaluate_policy sweep each; every row of that sweep rounds like a
sweep of its policy alone, so the prices carry the same bits either way.
compute_metrics replays a learner run against the exact solution: it first
prices every new component policy of the run's distinct mixtures (so each
distinct policy is swept once, in ceil(new / PRICE_CHUNK) sweeps), then
gives cumulative regret sum(V* - V_r) and constraint violation
max(0, sum(V_c - b)). Verdicts apply the relaxed / strict acceptance
predicates to the final averaged policy.

emit_report writes a deterministic run.csv (17 significant digits, so parsing
reproduces every float bit-for-bit), a summary.json, and small static SVG
line charts of the regret and violation curves.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .core import (PRICE_CHUNK, MixturePolicy, TabularCmdp, evaluate_policy,
                   instance_hash, slater_constant)
from .learner import RELAXED, STRICT, LearnerConfig
from .solver import ExactSolution

CSV_COLUMNS = ("k", "v_r_true", "v_c_true", "regret_cum", "cv_cum",
               "lambda_mean", "model_updates_cum", "wall_ms")

# Absolute tolerance for the strict-mode cost check (pure float hygiene).
STRICT_COST_TOL = 1e-9


@dataclass(frozen=True)
class Row:
    """One episode's metrics."""

    k: int
    v_r_true: float
    v_c_true: float
    regret_cum: float
    cv_cum: float
    lambda_mean: float
    model_updates_cum: int
    wall_ms: float


@dataclass(frozen=True)
class RunRecord:
    """Header (config snapshot, seed, instance hash, zeta, V*, budget) plus
    one Row per episode."""

    config: dict
    seed: int
    instance_hash: str
    zeta: float
    v_star: float
    budget: float
    rows: tuple


@dataclass(frozen=True)
class Verdict:
    """Outcome of a final-policy check: the achieved exact values against the
    reward floor V* - epsilon and the mode's cost cap."""

    mode: str
    epsilon: float
    passed: bool
    v_r: float
    v_c: float
    reward_floor: float
    cost_cap: float


def _price_new(m: TabularCmdp, policies, memo: dict) -> None:
    """Price each policy of the iterable that memo lacks into memo as its
    [V_r, V_c] at s1: once each, in first-seen order, PRICE_CHUNK per stacked
    sweep. No new policy means no sweep."""
    new = [p for p in dict.fromkeys(policies) if p not in memo]
    for i in range(0, len(new), PRICE_CHUNK):
        chunk = new[i:i + PRICE_CHUNK]
        values = evaluate_policy(m.transition, m.stages, chunk)[:, :, 0, m.initial_state]
        memo.update(zip(chunk, values.tolist()))


def _new_mixtures(episodes):
    """The mixture of each episode that is not a replay: a replay shares its
    mixture object with the episode before it."""
    mixture = None
    for log in episodes:
        if log.mixture is not mixture:
            mixture = log.mixture
            yield mixture


def evaluate_mixture(m: TabularCmdp, mix: MixturePolicy, memo: dict | None = None):
    """Exact (V_r, V_c) of a mixture at s1: the weighted sums of its component
    values. memo maps a Policy to its [V_r, V_c] and is filled as policies are
    priced; the first miss prices all of the mixture's new policies in
    stacked sweeps. Sharing one memo across calls skips repeated sweeps, and
    the result is the same bits with or without it."""
    memo = {} if memo is None else memo
    r_total = c_total = 0.0
    for w, p in mix.components:
        got = memo.get(p)
        if got is None:
            _price_new(m, (q for _, q in mix.components), memo)
            got = memo[p]
        r_total += w * got[0]
        c_total += w * got[1]
    return r_total, c_total


def compute_metrics(m: TabularCmdp, exact: ExactSolution, episodes,
                    config: LearnerConfig | None = None, seed: int = 0,
                    memo: dict | None = None) -> RunRecord:
    """Build the RunRecord for a stream (any iterable) of EpisodeLog entries.

    Every episode's mixture is priced exactly. A first pass over the run's
    distinct mixtures prices each new component policy once, in stacked
    sweeps, and the per-episode pass then reads the memo; an episode whose
    mixture is the previous episode's object (a replay) reuses that
    episode's pair outright. Pass a memo (as for evaluate_mixture) to share
    those prices with later calls. Likewise each distinct dual walk's mean
    multiplier is taken once.
    """
    zeta, _ = slater_constant(m)
    header_cfg = config.snapshot() if config is not None else {}
    memo = {} if memo is None else memo
    episodes = list(episodes)  # read twice
    _price_new(m, (p for mix in _new_mixtures(episodes) for _, p in mix.components), memo)
    lambda_means: dict = {}  # DualWalk -> mean multiplier; replays share a walk
    rows = []
    regret = 0.0
    violation_sum = 0.0
    mixture = None  # the last priced mixture; a replay shares its object
    for log in episodes:
        if log.mixture is not mixture:
            mixture = log.mixture
            v_r, v_c = evaluate_mixture(m, mixture, memo)
        regret += exact.optimal_value - v_r
        violation_sum += v_c - m.budget
        walk = log.walk
        lam_mean = lambda_means.get(walk)
        if lam_mean is None:
            lam_mean = lambda_means[walk] = float(np.mean(walk.trace(walk.lam)))
        rows.append(Row(
            k=log.episode,
            v_r_true=float(v_r),
            v_c_true=float(v_c),
            regret_cum=float(regret),
            cv_cum=float(max(0.0, violation_sum)),
            lambda_mean=lam_mean,
            model_updates_cum=int(log.model_updates_cum),
            wall_ms=float(log.wall_ms),
        ))
    return RunRecord(header_cfg, seed, instance_hash(m), zeta,
                     exact.optimal_value, m.budget, tuple(rows))


def check_final_policy(m: TabularCmdp, exact: ExactSolution, pi_bar: MixturePolicy,
                       epsilon: float, mode: str, memo: dict | None = None) -> Verdict:
    """Relaxed: V_r >= V* - eps and V_c <= b + eps.
    Strict: V_r >= V* - eps and V_c <= b (+ 1e-9 float tolerance).
    memo is evaluate_mixture's: pass compute_metrics' to price no policy twice."""
    if mode not in (RELAXED, STRICT):
        raise ValueError(f"mode must be {RELAXED!r} or {STRICT!r}, got {mode!r}")
    v_r, v_c = evaluate_mixture(m, pi_bar, memo)
    reward_floor = exact.optimal_value - epsilon
    cost_cap = m.budget + (epsilon if mode == RELAXED else STRICT_COST_TOL)
    return Verdict(mode, epsilon, bool(v_r >= reward_floor and v_c <= cost_cap),
                   v_r, v_c, reward_floor, cost_cap)


# ---------------------------------------------------------------------------
# Files.


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_run_csv(record: RunRecord, path) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for r in record.rows:
        lines.append(",".join([
            str(r.k), _fmt(r.v_r_true), _fmt(r.v_c_true), _fmt(r.regret_cum),
            _fmt(r.cv_cum), _fmt(r.lambda_mean), str(r.model_updates_cum),
            _fmt(r.wall_ms)]))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_run_csv(path) -> list[Row]:
    """Parse a run.csv back into rows (floats reproduce exactly). Columns past
    the eighth, such as the `interpolated` flag of older files, are ignored.
    An empty file, a wrong header, a short or unparsable row, a NaN or
    infinite cell, or no rows at all raise a ValueError naming the file and
    line."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or tuple(lines[0].split(",")[:8]) != CSV_COLUMNS:
        raise ValueError(f"{path} line 1: expected the header {','.join(CSV_COLUMNS)}")
    rows = []
    for n, c in ((n, ln.split(",")) for n, ln in enumerate(lines[1:], start=2) if ln):
        try:
            if len(c) < 8:
                raise ValueError(f"{len(c)} cells, expected at least 8")
            row = Row(int(c[0]), float(c[1]), float(c[2]), float(c[3]),
                      float(c[4]), float(c[5]), int(c[6]), float(c[7]))
            bad = [name for name in CSV_COLUMNS if not math.isfinite(getattr(row, name))]
            if bad:
                raise ValueError(f"non-finite {', '.join(bad)}")
            rows.append(row)
        except ValueError as e:
            raise ValueError(f"{path} line {n}: {e}") from e
    if not rows:
        raise ValueError(f"{path}: no rows after the header")
    return rows


def _line_chart(xs, ys, title: str, path) -> None:
    """Minimal static SVG line chart (deterministic output, no dependencies)."""
    width, height, pad = 640, 400, 50
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    sx = (width - 2 * pad) / (x_hi - x_lo)
    sy = (height - 2 * pad) / (y_hi - y_lo)
    pts = " ".join(
        f"{pad + (x - x_lo) * sx:.2f},{height - pad - (y - y_lo) * sy:.2f}"
        for x, y in zip(xs, ys))
    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{pad}" y="{height - pad + 20}" font-family="sans-serif" '
        f'font-size="12">{x_lo:.6g}</text>',
        f'<text x="{width - pad}" y="{height - pad + 20}" text-anchor="end" '
        f'font-family="sans-serif" font-size="12">{x_hi:.6g}</text>',
        f'<text x="{pad - 6}" y="{height - pad}" text-anchor="end" '
        f'font-family="sans-serif" font-size="12">{y_lo:.6g}</text>',
        f'<text x="{pad - 6}" y="{pad + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="12">{y_hi:.6g}</text>',
        f'<polyline points="{pts}" fill="none" stroke="#1f6feb" stroke-width="1.5"/>',
        "</svg>",
    ]
    with open(path, "w") as f:
        f.write("\n".join(svg) + "\n")


def render_charts(rows, out_dir) -> dict:
    """Write regret.svg and cv.svg for a sequence of rows; returns {name: path}."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    ks = [r.k for r in rows]
    for name, ys in (("regret.svg", [r.regret_cum for r in rows]),
                     ("cv.svg", [r.cv_cum for r in rows])):
        chart_path = os.path.join(out_dir, name)
        _line_chart(ks, ys, name.removesuffix(".svg"), chart_path)
        paths[name] = chart_path
    return paths


def emit_report(record: RunRecord, out_dir, verdicts=(), charts: bool = True) -> dict:
    """Write run.csv, summary.json, and (optionally) regret/violation charts.

    Returns {name: path} for everything written. Output depends only on the
    record and verdicts, so identical runs emit byte-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    csv_path = os.path.join(out_dir, "run.csv")
    write_run_csv(record, csv_path)
    paths["run.csv"] = csv_path

    last = record.rows[-1] if record.rows else None
    summary = {
        "config": record.config,
        "seed": record.seed,
        "instance_hash": record.instance_hash,
        "zeta": record.zeta,
        "v_star": record.v_star,
        "budget": record.budget,
        "totals": {
            "episodes": len(record.rows),
            "regret": last.regret_cum if last else 0.0,
            "cv": last.cv_cum if last else 0.0,
            "model_updates": last.model_updates_cum if last else 0,
        },
        "verdicts": [asdict(v) for v in verdicts],
    }
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    paths["summary.json"] = summary_path

    if charts and record.rows:
        paths.update(render_charts(record.rows, out_dir))
    return paths
