"""Metrics, verdicts, and the on-disk run format.

Episode streams are built by hand from two_state_chain policies whose values
are known exactly (paths: safe 0.3/cost 0, engage 0.8/cost 1, budget 0.6,
optimum 0.6 at weights 0.4/0.6), so every cumulative column is checkable by
mental arithmetic.
"""

import dataclasses
import filecmp
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cmdplab import (DualWalk, EpisodeLog, GenSpec, MixturePolicy, Policy, Row, RunRecord,
                     TabularCmdp, check_final_policy, compute_metrics,
                     derive_config, emit_report, evaluate_mixture, generate,
                     evaluate_policy, preset, read_run_csv, render_charts,
                     run_learner, solve_cmdp_exact, write_run_csv)
import cmdplab.harness as harness
from cmdplab.cli import main
from cmdplab.harness import CSV_COLUMNS
from conftest import per_episode, updates_per_episode


@pytest.fixture(scope="module")
def chain():
    m = preset("two_state_chain")
    return m, solve_cmdp_exact(m)


def fresh(m):
    """A copy of m with no prices yet: the reference for any check of cached
    prices, which must not read the instance's own."""
    return dataclasses.replace(m)


def log_stream(policies, lam=0.0):
    return [EpisodeLog(episode=i, mixture=MixturePolicy.single(p),
                       walk=DualWalk((lam,), (0.0,), (2,), 0, (int(lam > 0),)),  # grid step lam
                       model_updates_cum=i + 1, wall_ms=0.0)
            for i, p in enumerate(policies)]


def safe_policy():
    return Policy.from_actions([[1, 1], [0, 0]], 2)  # path reward 0.3, cost 0


def engage_policy():
    return Policy.from_actions([[1, 1], [1, 1]], 2)  # path reward 0.8, cost 1


# ---------------------------------------------------------------------------
# compute_metrics.


def test_optimal_mixture_has_zero_regret_and_violation(chain):
    m, exact = chain
    logs = [EpisodeLog(i, exact.policy, DualWalk((0.5,), (0.6,), (1,), 0, (1,)), 0, 0.0)
            for i in range(6)]
    rec = compute_metrics(m, exact, logs)
    assert len(rec.rows) == 6
    assert abs(rec.rows[-1].regret_cum) < 1e-9
    assert rec.rows[-1].cv_cum == 0.0
    assert rec.rows[0].v_r_true == pytest.approx(0.6, abs=1e-12)
    assert rec.rows[0].v_c_true == pytest.approx(0.6, abs=1e-12)
    assert rec.v_star == pytest.approx(0.6, abs=1e-9)
    assert rec.zeta == pytest.approx(0.6)
    assert rec.budget == 0.6


def test_safe_policy_accumulates_linear_regret(chain):
    m, exact = chain
    rec = compute_metrics(m, exact, log_stream([safe_policy()] * 5))
    # regret grows by V* - 0.3 = 0.3 per episode; cost 0 never violates
    for i, row in enumerate(rec.rows):
        assert row.regret_cum == pytest.approx(0.3 * (i + 1), abs=1e-9)
        assert row.cv_cum == 0.0
        assert row.v_c_true == 0.0


def test_violation_uses_positive_part_of_running_sum(chain):
    m, exact = chain
    policies = [engage_policy(), safe_policy(), engage_policy()]
    rec = compute_metrics(m, exact, log_stream(policies))
    # sums of (v_c - b): 0.4, -0.2, 0.2 -> positive parts 0.4, 0, 0.2
    assert [round(r.cv_cum, 9) for r in rec.rows] == [0.4, 0.0, 0.2]
    # regret can be negative when the learner overspends: 0.6 - 0.8 = -0.2
    assert rec.rows[0].regret_cum == pytest.approx(-0.2, abs=1e-12)


def test_lambda_mean_and_update_columns(chain):
    m, exact = chain
    logs = [EpisodeLog(0, MixturePolicy.single(safe_policy()),
                       DualWalk((0.0, 0.5, 1.0), (0.0, 0.0, 0.0), (1, 1, 1), 3, (0, 1, 2)),
                       7, 3.25)]
    rec = compute_metrics(m, exact, logs)
    assert rec.rows[0].lambda_mean == 0.5
    assert rec.rows[0].model_updates_cum == 7
    assert rec.rows[0].wall_ms == 3.25


def test_lambda_mean_is_taken_once_per_distinct_walk(chain, monkeypatch):
    # replayed episodes share their log's walk, and equal walks share one
    # mean, so a run with few distinct walks builds few length-T traces, and
    # each row keeps the bits of its own mean
    m, exact = chain
    cfg = derive_config("relaxed", 0.1, 0.1, m, bonus_scale=0.0, episodes=300,
                        iters=100, dual_cap=4.0, grid_step=0.00390625)
    logs = run_learner(m, cfg, seed=1).episodes
    want = [float(np.mean(log.walk.trace(log.walk.lam))) for _, log in per_episode(logs)]
    original, traced = DualWalk.trace, []
    monkeypatch.setattr(DualWalk, "trace",
                        lambda walk, values: traced.append(walk) or original(walk, values))
    rec = compute_metrics(m, exact, logs)
    assert [row.lambda_mean for row in rec.rows] == want
    distinct = {log.walk for log in logs}
    assert len(traced) == len(set(traced)) == len(distinct) < len(want)


def test_rows_of_a_block_drawn_run_encode_as_json(chain):
    # k and model_updates_cum are Python ints on every row, also on the rows
    # after the learner folds a block of replays
    m, exact = chain
    cfg = derive_config("relaxed", 0.1, 0.1, m, bonus_scale=0.0, episodes=2000,
                        iters=100, dual_cap=4.0, grid_step=0.00390625)
    rows = compute_metrics(m, exact, run_learner(m, cfg, seed=1).episodes).rows
    assert len(rows) == cfg.episodes
    for row in rows:
        assert type(row.k) is type(row.model_updates_cum) is int
        assert json.loads(json.dumps(row._asdict())) == row._asdict()


def test_empty_stream_has_no_rows(chain):
    m, exact = chain
    rec = compute_metrics(m, exact, [])
    assert rec.rows == ()
    assert json.dumps(rec.totals()) == (
        '{"episodes": 0, "regret": 0.0, "cv": 0.0, "model_updates": 0}')


def test_learner_run_values_match_uncached_evaluation(chain):
    # a real run replays unchanged episodes and plays the same policies again,
    # so most episodes are priced from the per-policy cache
    m, exact = chain
    cfg = derive_config("relaxed", 0.1, 0.1, m, bonus_scale=0.0,
                        episodes=200, iters=100)
    logs = run_learner(m, cfg, seed=1).episodes
    episodes = per_episode(logs)
    assert len({p for log in logs for _, p in log.mixture.components}) < len(episodes)
    rec = compute_metrics(m, exact, logs)
    for row, (k, log) in zip(rec.rows, episodes, strict=True):
        assert row.k == k
        assert (row.v_r_true, row.v_c_true) == evaluate_mixture(fresh(m), log.mixture)


@pytest.mark.filterwarnings("error")
def test_numpy_integer_seeds_write_the_python_seeds_report(chain, tmp_path):
    # the learner draws the Python seed's stream from a numpy seed and the
    # metrics store it as its int, so the run and its report are byte for
    # byte the Python seed's
    m, exact = chain
    cfg = derive_config("relaxed", 0.1, 0.1, m, bonus_scale=0.0, episodes=50, iters=20)
    for seed in (3, np.int64(3), np.uint64(3)):
        res = run_learner(m, cfg, seed=seed)
        rec = compute_metrics(m, exact, res.episodes, config=cfg, seed=seed)
        assert type(rec.seed) is int
        emit_report(rec, tmp_path / type(seed).__name__, charts=False)
    for name in ("run.csv", "summary.json"):
        want = (tmp_path / "int" / name).read_bytes()
        for kind in ("int64", "uint64"):
            assert (tmp_path / kind / name).read_bytes() == want, (kind, name)
    for seed in (3.0, 1.5, True, "3", None):
        with pytest.raises(ValueError, match=r"^seed must be an integer, got "):
            run_learner(m, cfg, seed=seed)
        with pytest.raises(ValueError, match=r"^seed must be an integer, got "):
            compute_metrics(m, exact, res.episodes, seed=seed)
    assert compute_metrics(m, exact, res.episodes, seed=-2**70).seed == -2**70


def test_replayed_episodes_are_priced_once(chain, monkeypatch):
    # a replay belongs to its stretch's log, and compute_metrics prices each
    # log once; every row keeps the bits of a loop that prices each episode
    # on its own
    m, exact = chain
    cfg = derive_config("relaxed", 0.1, 0.1, m, bonus_scale=0.0, episodes=2000,
                        iters=100, dual_cap=4.0, grid_step=0.00390625)
    logs = run_learner(m, cfg, seed=1).episodes
    replans = len(logs)
    assert replans < cfg.episodes // 10
    want, regret, violation_sum = [], 0.0, 0.0
    for _, log in per_episode(logs):
        v_r, v_c = evaluate_mixture(fresh(m), log.mixture)
        regret += exact.optimal_value - v_r
        violation_sum += v_c - m.budget
        want.append((v_r, v_c, regret, max(0.0, violation_sum)))
    original, priced = harness.evaluate_mixture, []
    monkeypatch.setattr(harness, "evaluate_mixture",
                        lambda *args: priced.append(1) or original(*args))
    rec = compute_metrics(m, exact, logs)
    assert [(r.v_r_true, r.v_c_true, r.regret_cum, r.cv_cum) for r in rec.rows] == want
    assert len(priced) == replans


@pytest.mark.parametrize("chunk", [harness.PRICE_CHUNK, 2])
def test_metrics_prepass_sweeps_each_policy_once(chain, chunk, monkeypatch):
    # on a replaying run, the pre-pass sweeps each distinct component policy
    # exactly once, first seen first, in ceil(new / chunk) stacked calls; the
    # per-episode pass then sweeps nothing, and the record keeps its bits
    m, exact = fresh(chain[0]), chain[1]
    cfg = derive_config("relaxed", 0.1, 0.1, m, bonus_scale=0.0, episodes=2000,
                        iters=100, dual_cap=4.0, grid_step=0.00390625)
    logs = run_learner(m, cfg, seed=1).episodes
    want = compute_metrics(fresh(m), exact, logs)
    original, calls = harness.evaluate_policy, []
    monkeypatch.setattr(harness, "evaluate_policy",
                        lambda kernel, stages, ps: calls.append(list(ps))
                        or original(kernel, stages, ps))
    monkeypatch.setattr(harness, "PRICE_CHUNK", chunk)
    assert compute_metrics(m, exact, logs) == want
    swept = [p for call in calls for p in call]
    distinct = list(dict.fromkeys(p for log in logs for _, p in log.mixture.components))
    assert 2 < len(distinct) < len(logs)
    assert swept == distinct
    assert len(calls) == -(-len(distinct) // chunk)
    assert all(len(call) == chunk for call in calls[:-1])


def test_metrics_read_a_one_shot_stream_and_sweep_only_new_policies(chain, monkeypatch):
    # the pre-pass must not use up an iterator; an empty stream, or a run
    # whose policies the instance has all priced already, makes no sweep
    m, exact = fresh(chain[0]), chain[1]
    cfg = derive_config("relaxed", 0.1, 0.1, m, bonus_scale=0.0,
                        episodes=200, iters=100)
    logs = run_learner(m, cfg, seed=1).episodes
    record = compute_metrics(m, exact, logs)
    assert compute_metrics(fresh(m), exact, iter(logs)) == record
    original, calls = harness.evaluate_policy, []
    monkeypatch.setattr(harness, "evaluate_policy",
                        lambda kernel, stages, ps: calls.append(ps)
                        or original(kernel, stages, ps))
    assert compute_metrics(m, exact, iter(logs)) == record
    assert compute_metrics(fresh(m), exact, []).rows == ()
    assert calls == []


def test_shared_memo_prices_each_policy_once(chain, monkeypatch):
    # over a run whose episodes replay policies, the instance's prices sweep
    # each distinct policy once, and every result keeps the bits of a call on
    # an instance that has priced nothing
    m = fresh(chain[0])
    cfg = derive_config("relaxed", 0.1, 0.1, m, bonus_scale=0.0,
                        episodes=200, iters=100)
    logs = run_learner(m, cfg, seed=1).episodes
    unshared = [evaluate_mixture(fresh(m), log.mixture) for log in logs]
    original, priced = harness.evaluate_policy, []
    monkeypatch.setattr(harness, "evaluate_policy",
                        lambda kernel, stages, ps: priced.extend(ps)
                        or original(kernel, stages, ps))
    shared = [evaluate_mixture(m, log.mixture) for log in logs]
    distinct = {p for log in logs for _, p in log.mixture.components}
    assert len(priced) == len(set(priced)) == len(distinct) == len(m.prices) < len(logs)
    assert shared == unshared


def test_verdict_reuses_the_metrics_memo(chain, monkeypatch):
    # the final mixture holds only policies that some episode played, so once
    # compute_metrics has priced them on the instance the verdict sweeps no
    # policy again
    m, exact = fresh(chain[0]), chain[1]
    cfg = derive_config("relaxed", 0.1, 0.1, m, bonus_scale=0.0,
                        episodes=200, iters=100)
    res = run_learner(m, cfg, seed=1)
    fresh_record = compute_metrics(fresh(m), exact, res.episodes)
    unshared = check_final_policy(fresh(m), exact, res.final_policy, 0.1, "relaxed")
    assert compute_metrics(m, exact, res.episodes) == fresh_record
    original, priced = harness.evaluate_policy, []
    monkeypatch.setattr(harness, "evaluate_policy",
                        lambda kernel, stages, p: priced.append(p) or original(kernel, stages, p))
    shared = check_final_policy(m, exact, res.final_policy, 0.1, "relaxed")
    assert priced == []
    assert repr(shared) == repr(unshared)  # float reprs round-trip, so bit for bit


def test_each_instance_prices_its_own_policies():
    # the same Policy objects priced on an instance and on its action-reversed
    # copy get each instance's own values, each equal to a direct sweep there
    m = preset("two_state_chain")
    flipped = TabularCmdp(m.num_states, m.num_actions, m.horizon,
                          m.transition[:, :, ::-1], m.reward[:, :, ::-1],
                          m.cost[:, :, ::-1], m.budget, m.initial_state)
    exact = solve_cmdp_exact(m)
    policies = [safe_policy(), engage_policy(), *(p for _, p in exact.policy.components)]
    for inst in (m, flipped, m):
        for p in policies:
            direct = evaluate_policy(inst.transition, inst.stages, p)[:, 0, inst.initial_state]
            assert evaluate_mixture(inst, MixturePolicy.single(p)) == tuple(direct.tolist())
    assert m.prices.keys() == flipped.prices.keys() == set(policies)
    assert evaluate_mixture(m, exact.policy) == pytest.approx((0.6, 0.6), abs=1e-12)
    assert evaluate_mixture(flipped, exact.policy) == pytest.approx((0.4, 1.0), abs=1e-12)


# ---------------------------------------------------------------------------
# Verdicts.


def test_relaxed_verdict_boundaries(chain):
    m, exact = chain
    good = check_final_policy(m, exact, exact.policy, epsilon=0.1, mode="relaxed")
    assert good.passed
    assert good.reward_floor == pytest.approx(0.5, abs=1e-9)
    assert good.cost_cap == pytest.approx(0.7, abs=1e-12)
    # all-engage overshoots the cost cap but not the reward floor
    bad = check_final_policy(m, exact, MixturePolicy.single(engage_policy()),
                             epsilon=0.1, mode="relaxed")
    assert not bad.passed
    assert bad.v_c == pytest.approx(1.0, abs=1e-12)
    assert bad.v_r == pytest.approx(0.8, abs=1e-12)


def test_strict_verdict_requires_feasibility(chain):
    m, exact = chain
    good = check_final_policy(m, exact, exact.policy, epsilon=0.35, mode="strict")
    assert good.passed  # optimal mixture sits exactly on the budget
    assert good.cost_cap == pytest.approx(m.budget, abs=1e-8)
    low = check_final_policy(m, exact, MixturePolicy.single(safe_policy()),
                             epsilon=0.1, mode="strict")
    assert not low.passed  # feasible but 0.3 < reward floor 0.5
    assert low.v_r == pytest.approx(0.3, abs=1e-12)


def test_verdict_rejects_a_bad_epsilon(chain):
    # a NaN epsilon made a NaN floor and cap, and a negative one a floor
    # above V*; zero is the tightest check and is accepted
    m, exact = chain
    for eps in (math.nan, -5.0, -1e-300, math.inf):
        with pytest.raises(ValueError, match=r"^epsilon must be in \[0, inf\), got "):
            check_final_policy(m, exact, exact.policy, eps, "relaxed")
    for eps in (True, "0.1", None):
        with pytest.raises(ValueError, match=r"^epsilon must be a number, got "):
            check_final_policy(m, exact, exact.policy, eps, "strict")
    verdict = check_final_policy(m, exact, exact.policy, 0, "strict")
    assert type(verdict.epsilon) is float and verdict.reward_floor == exact.optimal_value


def test_verdict_rejects_unknown_mode(chain):
    m, exact = chain
    with pytest.raises(ValueError):
        check_final_policy(m, exact, exact.policy, 0.1, "loose")


def test_metrics_and_verdict_reject_an_infeasible_solution():
    m = preset("two_state_chain")
    m = TabularCmdp(m.num_states, m.num_actions, m.horizon, m.transition,
                    m.reward, np.maximum(m.cost, 0.5), m.budget, m.initial_state)
    exact = solve_cmdp_exact(m)
    assert exact.status == "infeasible"
    match = r"^infeasible instance: the min-cost policy has V_c = 1 > b = 0\.6$"
    with pytest.raises(ValueError, match=match):
        compute_metrics(m, exact, log_stream([safe_policy()]))
    with pytest.raises(ValueError, match=match):
        check_final_policy(m, exact, MixturePolicy.single(safe_policy()), 1.0,
                           "relaxed")


# ---------------------------------------------------------------------------
# Files.


def test_csv_round_trip_is_exact(chain, tmp_path):
    m, exact = chain
    policies = [engage_policy(), safe_policy(), engage_policy(), safe_policy()]
    rec = compute_metrics(m, exact, log_stream(policies, lam=1.0 / 3.0))
    path = tmp_path / "run.csv"
    write_run_csv(rec, path)
    rows = read_run_csv(path)
    assert len(rows) == 4
    for a, b in zip(rec.rows, rows):
        assert a == b  # %.17g round-trips doubles exactly
    header = path.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def per_field_run_csv(record, path):
    """The reference writer: str() for each int cell and f"{x:.17g}" for each
    float cell, one call per field, as run.csv was first written."""
    def _fmt(x):
        return f"{x:.17g}"

    lines = [",".join(CSV_COLUMNS)]
    for r in record.rows:
        lines.append(",".join([
            str(r.k), _fmt(r.v_r_true), _fmt(r.v_c_true), _fmt(r.regret_cum),
            _fmt(r.cv_cum), _fmt(r.lambda_mean), str(r.model_updates_cum),
            _fmt(r.wall_ms)]))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


# signed zeros, the smallest subnormal and normal, the largest finite, 0.1
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1]
counts = st.integers(0, 2**62)
cells = st.one_of(st.sampled_from(EDGE_FLOATS),
                  st.floats(allow_nan=False, allow_infinity=False))
rows = st.builds(Row, counts, cells, cells, cells, cells, cells, counts, cells)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(rows, min_size=1, max_size=6))
def test_template_writer_keeps_the_per_field_bytes(tmp_path, rows):
    rec = RunRecord({}, 0, "", 0.5, 0.6, 0.6, tuple(rows))
    write_run_csv(rec, tmp_path / "run.csv")
    per_field_run_csv(rec, tmp_path / "reference.csv")
    assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    back = read_run_csv(tmp_path / "run.csv")
    assert len(back) == len(rows)
    for want, got in zip(rows, back):
        for name, x, y in zip(CSV_COLUMNS, want, got):
            if isinstance(x, float):  # hex tells -0.0 from 0.0
                assert type(y) is float and y.hex() == x.hex(), name
            else:
                assert type(y) is int and y == x, name


def test_nine_column_csv_of_older_runs_still_loads(tmp_path, capsys):
    # runs with evaluation subsampling wrote a ninth `interpolated` flag column
    (tmp_path / "run.csv").write_text(
        ",".join(CSV_COLUMNS) + ",interpolated\n"
        "0,0.29999999999999999,0,0.30000000000000004,0,0,1,0,0\n"
        "1,0.29999999999999999,0,0.60000000000000009,0,0.5,2,0,1\n")
    rows = read_run_csv(tmp_path / "run.csv")
    assert [r.k for r in rows] == [0, 1]
    assert rows[1].regret_cum == 0.60000000000000009
    assert rows[1].lambda_mean == 0.5
    assert rows[1].model_updates_cum == 2
    assert main(["report", "--run-dir", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == 2
    for name in ("regret.svg", "cv.svg"):
        assert "<svg" in (tmp_path / name).read_text()


def test_emit_report_writes_everything(chain, tmp_path):
    m, exact = chain
    rec = compute_metrics(m, exact, log_stream([safe_policy()] * 3))
    verdict = check_final_policy(m, exact, exact.policy, 0.1, "relaxed")
    out = emit_report(rec, tmp_path / "r1", verdicts=[verdict])
    summary = json.loads((tmp_path / "r1" / "summary.json").read_text())
    assert summary["totals"]["episodes"] == 3
    assert summary["totals"]["regret"] == pytest.approx(0.9, abs=1e-9)
    assert summary["instance_hash"] == rec.instance_hash
    assert summary["verdicts"][0]["passed"] is True
    assert (tmp_path / "r1" / "run.csv").exists()
    assert (tmp_path / "r1" / "regret.svg").exists()
    assert (tmp_path / "r1" / "cv.svg").exists()
    assert set(out) == {"run.csv", "summary.json", "regret.svg", "cv.svg"}


def test_emit_report_is_byte_deterministic(chain, tmp_path):
    m, exact = chain
    rec = compute_metrics(m, exact, log_stream([safe_policy(), engage_policy()]))
    emit_report(rec, tmp_path / "a")
    emit_report(rec, tmp_path / "b")
    for name in ("run.csv", "summary.json", "regret.svg", "cv.svg"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False), name


def test_emit_report_can_skip_charts(chain, tmp_path):
    m, exact = chain
    rec = compute_metrics(m, exact, log_stream([safe_policy()]))
    emit_report(rec, tmp_path / "nc", charts=False)
    assert not (tmp_path / "nc" / "regret.svg").exists()
    assert (tmp_path / "nc" / "run.csv").exists()


def test_render_charts_from_read_back_rows(chain, tmp_path):
    m, exact = chain
    rec = compute_metrics(m, exact, log_stream([safe_policy()] * 4))
    path = tmp_path / "run.csv"
    write_run_csv(rec, path)
    out = render_charts(read_run_csv(path), tmp_path)
    assert sorted(out) == ["cv.svg", "regret.svg"]
    for p in out.values():
        assert "<svg" in Path(p).read_text()


def per_episode_rows(m, exact, episodes):
    """Rows from running totals updated episode by episode: the reference
    for compute_metrics' column-wise build. It prices on a copy of m, so it
    reads none of the prices compute_metrics left on m."""
    rows, regret, violation_sum, ref = [], 0.0, 0.0, fresh(m)
    for (k, log), updates in zip(per_episode(episodes), updates_per_episode(episodes)):
        v_r, v_c = evaluate_mixture(ref, log.mixture)
        regret += exact.optimal_value - v_r
        violation_sum += v_c - m.budget
        rows.append(Row(
            k=k,
            v_r_true=float(v_r),
            v_c_true=float(v_c),
            regret_cum=float(regret),
            cv_cum=float(max(0.0, violation_sum)),
            lambda_mean=float(np.mean(log.walk.trace(log.walk.lam))),
            model_updates_cum=int(updates),
            wall_ms=float(log.wall_ms),
        ))
    return rows


def per_point_polyline(xs, ys):
    """A chart's polyline points formatted one point at a time: the
    reference for _line_chart's array arithmetic and single % call."""
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
    return " ".join(
        f"{pad + (x - x_lo) * sx:.2f},{height - pad - (y - y_lo) * sy:.2f}"
        for x, y in zip(xs, ys))


@pytest.mark.parametrize("case", ["two_state_chain", "bonus0_10x4x8", "constant",
                                  "violation_hits_zero"])
def test_columns_and_charts_match_per_episode_reference(chain, case, tmp_path):
    if case == "two_state_chain":
        m, exact = chain
        cfg = derive_config("relaxed", 0.1, 0.1, m, bonus_scale=0.0, episodes=2000,
                            iters=100, dual_cap=4.0, grid_step=0.00390625)
        logs = run_learner(m, cfg, seed=1).episodes
    elif case == "bonus0_10x4x8":
        m = generate(GenSpec(10, 4, 8, zeta_target=0.5, seed=17))
        exact = solve_cmdp_exact(m)
        cfg = derive_config("relaxed", 1.0, 0.1, m, bonus_scale=0.0, episodes=300, iters=3)
        logs = run_learner(m, cfg, seed=1).episodes
    elif case == "constant":  # one episode: x_hi == x_lo and y_hi == y_lo
        (m, exact), logs = chain, log_stream([safe_policy()])
    else:  # the optimal mixture's cost is the budget: the sum is exactly 0.0
        m, exact = chain
        mixtures = [exact.policy, MixturePolicy.single(engage_policy()),
                    MixturePolicy.single(safe_policy()), exact.policy]
        logs = [EpisodeLog(k, mix, DualWalk((0.0,), (0.0,), (1,), 0, (0,)), k, 0.0)
                for k, mix in enumerate(mixtures)]
    rows = compute_metrics(m, exact, logs).rows
    want = per_episode_rows(m, exact, logs)
    assert rows == tuple(want)
    assert [list(map(repr, r)) for r in rows] == [list(map(repr, r)) for r in want]  # bits
    if case == "violation_hits_zero":
        assert [r.cv_cum for r in rows] == [0.0, 0.4, 0.0, 0.0]
    paths = render_charts(rows, tmp_path)
    for name, column in (("regret.svg", "regret_cum"), ("cv.svg", "cv_cum")):
        svg = Path(paths[name]).read_text()
        points = re.search(r'<polyline points="([^"]*)"', svg).group(1)
        assert points == per_point_polyline([r.k for r in want],
                                            [getattr(r, column) for r in want])


HEADER = ",".join(CSV_COLUMNS) + "\n"


@pytest.mark.parametrize("text, where", [
    ("", "line 1: expected the header"),
    ("k,v_r,v_c\n0,1,2\n", "line 1: expected the header"),
    (HEADER + "0,0.5,0,0.1,0,0,1,0\n1,0.5,0\n", "line 3: 3 cells, expected at least 8"),
    (HEADER + "0,0.5,zero,0.1,0,0,1,0\n", "line 2: could not convert string to float: 'zero'"),
    (HEADER, "no rows after the header"),
    (HEADER + "0,nan,0,inf,0,0,1,0\n", "line 2: non-finite v_r_true, regret_cum"),
], ids=["empty", "wrong-header", "short-row", "bad-cell", "no-rows", "non-finite"])
def test_malformed_run_csv_is_one_line_error(tmp_path, text, where):
    (tmp_path / "run.csv").write_text(text)
    with pytest.raises(ValueError, match=where):
        read_run_csv(tmp_path / "run.csv")
    with pytest.raises(SystemExit) as e:
        main(["report", "--run-dir", str(tmp_path)])
    msg = str(e.value)
    assert msg.startswith(f"cmdplab report: {tmp_path / 'run.csv'}") and "\n" not in msg
    assert not (tmp_path / "regret.svg").exists()
