"""Measurement harness: ground-truth metrics, verdicts, and report files.

evaluate_mixture prices a mixture exactly on the true kernel: the (reward,
cost) values of each component policy, weighted by the mixing weights.
Policies are priced into the instance's own TabularCmdp.prices by _price_new,
PRICE_CHUNK at a time in one stacked evaluate_policy sweep each; every row of
that sweep rounds like a sweep of its policy alone, so the prices carry the
same bits either way.
compute_metrics replays a learner run against the exact solution: it first
prices every new component policy of the run's distinct mixtures (so each
distinct policy is swept once, in ceil(new / PRICE_CHUNK) sweeps), then
collects each episode's (V_r, V_c) and mean multiplier and builds the run's
columns with numpy: cumulative regret sum(V* - V_r) and constraint
violation max(0, sum(V_c - b)) are sequential cumulative sums from 0.0, the
bits of a running total. Verdicts apply the relaxed / strict acceptance
predicates to the final averaged policy.

emit_report writes a deterministic run.csv, whose columns and their types are
Row's fields (floats with 17 significant digits, so parsing reproduces every
float bit-for-bit), a summary.json, and small static SVG line charts of the
regret and violation curves.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple, get_type_hints

import numpy as np

from .core import (PRICE_CHUNK, MixturePolicy, TabularCmdp, _integer, evaluate_policy,
                   instance_hash, slater_constant)
from .learner import RELAXED, STRICT, LearnerConfig
from .solver import INFEASIBLE, ExactSolution

# Absolute tolerance for the strict-mode cost check (pure float hygiene).
STRICT_COST_TOL = 1e-9


class Row(NamedTuple):
    """One episode's metrics: a line of run.csv, whose header is CSV_COLUMNS
    and whose cells are parsed with these types."""

    k: int
    v_r_true: float
    v_c_true: float
    regret_cum: float
    cv_cum: float
    lambda_mean: float
    model_updates_cum: int
    wall_ms: float


CSV_COLUMNS = Row._fields
_COLUMN_TYPES = tuple(get_type_hints(Row)[name] for name in CSV_COLUMNS)
# 17 significant digits parse back to the same double
_ROW_TEMPLATE = ",".join("%d" if t is int else "%.17g" for t in _COLUMN_TYPES) + "\n"


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

    def totals(self) -> dict:
        """The run's totals: its episode count and the last row's cumulative
        regret, violation and model updates (zeros for a run of no rows)."""
        last = self.rows[-1] if self.rows else Row._make(t() for t in _COLUMN_TYPES)
        return {"episodes": len(self.rows), "regret": last.regret_cum,
                "cv": last.cv_cum, "model_updates": last.model_updates_cum}


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


def _price_new(m: TabularCmdp, policies) -> None:
    """Price each policy of the iterable that m.prices lacks into it as its
    [V_r, V_c] at s1: once each, in first-seen order, PRICE_CHUNK per stacked
    sweep. No new policy means no sweep."""
    new = [p for p in dict.fromkeys(policies) if p not in m.prices]
    for i in range(0, len(new), PRICE_CHUNK):
        chunk = new[i:i + PRICE_CHUNK]
        values = evaluate_policy(m.transition, m.stages, chunk)[:, :, 0, m.initial_state]
        m.prices.update(zip(chunk, values.tolist()))


def _new_mixtures(episodes):
    """The mixture of each episode that is not a replay: a replay shares its
    mixture object with the episode before it."""
    mixture = None
    for log in episodes:
        if log.mixture is not mixture:
            mixture = log.mixture
            yield mixture


def evaluate_mixture(m: TabularCmdp, mix: MixturePolicy):
    """Exact (V_r, V_c) of a mixture at s1: the weighted sums of its component
    values, each read from m.prices after the components m has not priced yet
    are swept there."""
    _price_new(m, (p for _, p in mix.components))
    r_total = c_total = 0.0
    for w, p in mix.components:
        v_r, v_c = m.prices[p]
        r_total += w * v_r
        c_total += w * v_c
    return r_total, c_total


def require_feasible(m: TabularCmdp, exact: ExactSolution) -> None:
    """Raise a ValueError if exact is the solution of an infeasible instance:
    no regret or verdict is defined against a V* that does not exist."""
    if exact.status == INFEASIBLE:
        zeta, _ = slater_constant(m)
        raise ValueError(f"infeasible instance: the min-cost policy has V_c = "
                         f"{m.budget - zeta:.6g} > b = {m.budget:.6g}")


def compute_metrics(m: TabularCmdp, exact: ExactSolution, episodes,
                    config: LearnerConfig | None = None, seed: int = 0) -> RunRecord:
    """Build the RunRecord for a stream (any iterable) of EpisodeLog entries.

    Every episode's mixture is priced exactly. A first pass over the run's
    distinct mixtures prices each new component policy once, in stacked
    sweeps, and the per-episode pass then reads m.prices; an episode whose
    mixture is the previous episode's object (a replay) reuses that
    episode's pair outright. Likewise each distinct dual walk's mean
    multiplier is taken once. seed is stored as an int (core._integer, any
    sign and size). An infeasible exact raises a ValueError.
    """
    seed = _integer("seed", seed, None)
    require_feasible(m, exact)
    zeta, _ = slater_constant(m)
    header_cfg = config.snapshot() if config is not None else {}
    episodes = list(episodes)  # read twice
    _price_new(m, (p for mix in _new_mixtures(episodes) for _, p in mix.components))
    lambda_means: dict = {}  # DualWalk -> mean multiplier; replays share a walk
    v_rs, v_cs, lam_means = [], [], []
    mixture = walk = None  # the last episode's; a replay shares both objects
    for log in episodes:
        if log.mixture is not mixture:
            mixture = log.mixture
            v_r, v_c = evaluate_mixture(m, mixture)
        if log.walk is not walk:
            walk = log.walk
            lam_mean = lambda_means.get(walk)
            if lam_mean is None:
                lam_mean = lambda_means[walk] = float(np.mean(walk.trace(walk.lam)))
        v_rs.append(v_r)
        v_cs.append(v_c)
        lam_means.append(lam_mean)
    regret = np.cumsum(np.concatenate(([0.0], exact.optimal_value - np.array(v_rs))))[1:]
    violation = np.cumsum(np.concatenate(([0.0], np.array(v_cs) - m.budget)))[1:]
    rows = tuple(map(Row._make, zip(
        (log.episode for log in episodes), v_rs, v_cs, regret.tolist(),
        np.where(violation > 0.0, violation, 0.0).tolist(), lam_means,
        (int(log.model_updates_cum) for log in episodes),
        (float(log.wall_ms) for log in episodes))))
    return RunRecord(header_cfg, seed, instance_hash(m), zeta,
                     exact.optimal_value, m.budget, rows)


def check_final_policy(m: TabularCmdp, exact: ExactSolution, pi_bar: MixturePolicy,
                       epsilon: float, mode: str) -> Verdict:
    """Relaxed: V_r >= V* - eps and V_c <= b + eps.
    Strict: V_r >= V* - eps and V_c <= b (+ 1e-9 float tolerance).
    An infeasible exact raises a ValueError."""
    if mode not in (RELAXED, STRICT):
        raise ValueError(f"mode must be {RELAXED!r} or {STRICT!r}, got {mode!r}")
    require_feasible(m, exact)
    v_r, v_c = evaluate_mixture(m, pi_bar)
    reward_floor = exact.optimal_value - epsilon
    cost_cap = m.budget + (epsilon if mode == RELAXED else STRICT_COST_TOL)
    return Verdict(mode, epsilon, bool(v_r >= reward_floor and v_c <= cost_cap),
                   v_r, v_c, reward_floor, cost_cap)


# ---------------------------------------------------------------------------
# Files.


def write_run_csv(record: RunRecord, path) -> None:
    with open(path, "w") as f:
        f.write(",".join(CSV_COLUMNS) + "\n")
        f.write("".join(map(_ROW_TEMPLATE.__mod__, record.rows)))


def read_run_csv(path) -> list[Row]:
    """Parse a run.csv back into rows (floats reproduce exactly). Columns past
    Row's eight, such as the `interpolated` flag of older files, are ignored.
    An empty file, a wrong header, a short or unparsable row, a NaN or
    infinite cell, or no rows at all raise a ValueError naming the file and
    line."""
    with open(path) as f:
        lines = f.read().splitlines()
    width = len(CSV_COLUMNS)
    if not lines or tuple(lines[0].split(",")[:width]) != CSV_COLUMNS:
        raise ValueError(f"{path} line 1: expected the header {','.join(CSV_COLUMNS)}")
    rows = []
    for n, c in ((n, ln.split(",")) for n, ln in enumerate(lines[1:], start=2) if ln):
        try:
            if len(c) < width:
                raise ValueError(f"{len(c)} cells, expected at least {width}")
            row = Row._make(t(x) for t, x in zip(_COLUMN_TYPES, c))
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
    points = np.column_stack((pad + (xs - x_lo) * sx, height - pad - (ys - y_lo) * sy))
    pts = " ".join(["%.2f,%.2f"] * len(points)) % tuple(points.ravel().tolist())
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
    for name, column in (("regret.svg", "regret_cum"), ("cv.svg", "cv_cum")):
        chart_path = os.path.join(out_dir, name)
        ys = [getattr(r, column) for r in rows]
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

    summary = {f.name: getattr(record, f.name) for f in fields(record) if f.name != "rows"}
    summary.update(totals=record.totals(), verdicts=[asdict(v) for v in verdicts])
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    paths["summary.json"] = summary_path

    if charts and record.rows:
        paths.update(render_charts(record.rows, out_dir))
    return paths
