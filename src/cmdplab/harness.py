"""Measurement harness: ground-truth metrics, verdicts, and report files.

evaluate_mixture prices a mixture exactly on the true kernel: the (reward,
cost) values of each component policy, weighted by the mixing weights.
Policies are priced into the instance's own TabularCmdp.prices by _price_new,
PRICE_CHUNK at a time in one stacked evaluate_policy sweep each; every row of
that sweep rounds like a sweep of its policy alone, so the prices carry the
same bits either way.
compute_metrics replays a learner run against the exact solution into one
Stretch per log (the episodes that play one replan's mixture) and the
per-episode cumulative regret sum(V* - V_r) and violation max(0, sum(V_c - b)),
sequential sums from 0.0 with the bits of a running total. Verdicts apply the
relaxed / strict acceptance predicates to the final averaged policy.

emit_report writes run.csv (one line per episode; its columns and their
types are Row's fields, floats with 17 significant digits so that parsing
reproduces every bit), a summary.json and SVG charts of the two curves.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from dataclasses import asdict, dataclass, fields
from itertools import accumulate, chain, islice, repeat
from operator import attrgetter
from typing import NamedTuple, get_type_hints

import numpy as np

from .core import (PRICE_CHUNK, MixturePolicy, TabularCmdp, _integer, _real, evaluate_policy,
                   instance_hash, slater_constant)
from .learner import RELAXED, STRICT, LearnerConfig
from .simulate import _BLOCK
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
_FORMATS = ["%d" if t is int else "%.17g" for t in _COLUMN_TYPES]
_ROW_TEMPLATE = ",".join(_FORMATS) + "\n"
# A stretch's line template is _STRETCH_TEMPLATE % _SHARED(stretch): its shared
# cells formatted, and the cells that differ per episode left as formats.
_PER_EPISODE = ("k", "regret_cum", "cv_cum")
_SHARED = attrgetter(*(name for name in CSV_COLUMNS if name not in _PER_EPISODE))
_STRETCH_TEMPLATE = ",".join("%" + f if name in _PER_EPISODE else f
                             for name, f in zip(CSV_COLUMNS, _FORMATS)) + "\n"


class Stretch(NamedTuple):
    """One log's episodes k .. k + count - 1: the Row cells they share, and
    model_updates_cum before their last episode and at it."""

    k: int
    count: int
    v_r_true: float
    v_c_true: float
    lambda_mean: float
    wall_ms: float
    updates_before: int
    model_updates_cum: int


@dataclass(frozen=True)
class RunRecord:
    """Header (config snapshot, seed, instance hash, zeta, V*, budget), one
    Stretch per log, and the per-episode float64 arrays regret_cum and cv_cum."""

    config: dict
    seed: int
    instance_hash: str
    zeta: float
    v_star: float
    budget: float
    stretches: tuple
    regret_cum: array
    cv_cum: array

    def ks(self):
        """Each episode's k, in order: a stretch's k .. k + count - 1."""
        return chain.from_iterable(range(s.k, s.k + s.count) for s in self.stretches)

    def totals(self) -> dict:
        """The run's totals: its episode count and the last episode's cumulative
        regret, violation and model updates (zeros for a run of no episodes)."""
        if not self.stretches:
            return {"episodes": 0, "regret": 0.0, "cv": 0.0, "model_updates": 0}
        return {"episodes": len(self.regret_cum), "regret": self.regret_cum[-1],
                "cv": self.cv_cum[-1], "model_updates": self.stretches[-1].model_updates_cum}


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
    """The RunRecord of a stream (any iterable) of EpisodeLog entries that
    tile the episodes from 0: each count an integer >= 1 (core._integer) and
    each episode the sum of the counts before it, or a ValueError names the
    log. Each new component policy is priced once, in stacked sweeps, then
    each log's mixture and each distinct walk's mean multiplier once. seed is
    stored as an int (core._integer, any sign and size). An infeasible exact
    raises a ValueError."""
    seed = _integer("seed", seed, None)
    require_feasible(m, exact)
    zeta, _ = slater_constant(m)
    header_cfg = config.snapshot() if config is not None else {}
    episodes = list(episodes)  # read twice
    counts = [_integer(f"log {i}: count", log.count) for i, log in enumerate(episodes)]
    ks = list(accumulate(counts[:-1], initial=0))
    for i, (log, k) in enumerate(zip(episodes, ks)):
        if log.episode != k:
            raise ValueError(f"log {i}: episode must be {k}, the sum of the counts "
                             f"before it, got {log.episode!r}")
    _price_new(m, (p for log in episodes for _, p in log.mixture.components))
    lam_means = {w: float(np.mean(w.trace(w.lam))) for w in {log.walk for log in episodes}}
    prices = np.array([evaluate_mixture(m, log.mixture) for log in episodes]).reshape(-1, 2)
    regret = np.cumsum(np.repeat(np.append(0.0, exact.optimal_value - prices[:, 0]), [1] + counts))
    violation = np.cumsum(np.repeat(np.append(0.0, prices[:, 1] - m.budget), [1] + counts))
    updates = [int(log.model_updates_cum) for log in episodes]
    stretches = tuple(map(Stretch._make, zip(
        ks, counts, *prices.T.tolist(), [lam_means[log.walk] for log in episodes],
        [float(log.wall_ms) for log in episodes], [0] + updates[:-1], updates)))
    return RunRecord(header_cfg, seed, instance_hash(m), zeta, exact.optimal_value, m.budget,
                     stretches, array("d", regret[1:].tobytes()),
                     array("d", np.where(violation > 0.0, violation, 0.0)[1:].tobytes()))


def check_final_policy(m: TabularCmdp, exact: ExactSolution, pi_bar: MixturePolicy,
                       epsilon: float, mode: str) -> Verdict:
    """Relaxed: V_r >= V* - eps and V_c <= b + eps.
    Strict: V_r >= V* - eps and V_c <= b (+ 1e-9 float tolerance).
    epsilon is a real (core._real) with 0 <= epsilon < inf. An infeasible
    exact raises a ValueError."""
    if mode not in (RELAXED, STRICT):
        raise ValueError(f"mode must be {RELAXED!r} or {STRICT!r}, got {mode!r}")
    epsilon = _real("epsilon", epsilon)
    if not 0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be in [0, inf), got {epsilon!r}")
    require_feasible(m, exact)
    v_r, v_c = evaluate_mixture(m, pi_bar)
    reward_floor = exact.optimal_value - epsilon
    cost_cap = m.budget + (epsilon if mode == RELAXED else STRICT_COST_TOL)
    return Verdict(mode, epsilon, bool(v_r >= reward_floor and v_c <= cost_cap),
                   v_r, v_c, reward_floor, cost_cap)


# ---------------------------------------------------------------------------
# Files.


def _templates(stretches):
    """Each episode's line template: a stretch's shared cells formatted once."""
    for s in stretches:
        if s.count > 1:
            before = s._replace(model_updates_cum=s.updates_before)
            yield from repeat(_STRETCH_TEMPLATE % _SHARED(before), s.count - 1)
        yield _STRETCH_TEMPLATE % _SHARED(s)


def write_run_csv(record: RunRecord, path) -> None:
    """Write the header and one line per episode, at most _BLOCK lines a write:
    an episode formats only its k, regret_cum and cv_cum into its stretch's
    _STRETCH_TEMPLATE line (_ROW_TEMPLATE is test_harness.py's per-row reference)."""
    templates, ks = _templates(record.stretches), record.ks()
    with open(path, "w") as f:
        f.write(",".join(CSV_COLUMNS) + "\n")
        for i in range(0, len(record.regret_cum), _BLOCK):
            cells = zip(islice(ks, _BLOCK), record.regret_cum[i:i + _BLOCK].tolist(),
                        record.cv_cum[i:i + _BLOCK].tolist())
            f.write("".join(map(str.__mod__, islice(templates, _BLOCK), cells)))


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
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
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
    end = ' text-anchor="end"'
    labels = ((pad, height - pad + 20, "", x_lo), (width - pad, height - pad + 20, end, x_hi),
              (pad - 6, height - pad, end, y_lo), (pad - 6, pad + 4, end, y_hi))
    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        *(f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" font-size="12">{v:.6g}</text>'
          for x, y, anchor, v in labels),
        f'<polyline points="{pts}" fill="none" stroke="#1f6feb" stroke-width="1.5"/>',
        "</svg>",
    ]
    with open(path, "w") as f:
        f.write("\n".join(svg) + "\n")


def render_charts(ks, regret_cum, cv_cum, out_dir) -> dict:
    """Write regret.svg and cv.svg of the k, regret_cum and cv_cum columns: {name: path}."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, ys in (("regret.svg", regret_cum), ("cv.svg", cv_cum)):
        paths[name] = os.path.join(out_dir, name)
        _line_chart(ks, ys, name.removesuffix(".svg"), paths[name])
    return paths


def emit_report(record: RunRecord, out_dir, verdicts=(), charts: bool = True) -> dict:
    """Write run.csv, summary.json, and (optionally) regret/violation charts.

    Returns {name: path} for everything written. Output depends only on the
    record and verdicts, so identical runs emit byte-identical files.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name) for name in ("run.csv", "summary.json")}
    write_run_csv(record, paths["run.csv"])

    summary = {f.name: getattr(record, f.name) for f in fields(record)
               if f.name not in ("stretches", "regret_cum", "cv_cum")}
    summary.update(totals=record.totals(), verdicts=[asdict(v) for v in verdicts])
    with open(paths["summary.json"], "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    if charts and record.stretches:
        paths.update(render_charts(np.fromiter(record.ks(), float), record.regret_cum,
                                   record.cv_cum, out_dir))
    return paths
