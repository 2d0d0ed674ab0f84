"""End-to-end command-line flows using main() directly."""

import hashlib
import json
import re

import numpy as np
import pytest

from cmdplab import (MixturePolicy, Policy, instance_hash, load_instance,
                     load_policy, preset, save_instance, save_policy,
                     slater_constant)
import cmdplab.acceptance as acceptance
from cmdplab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def json_out(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# generate / solve.


def test_generate_preset_writes_instance(tmp_path, capsys):
    out = tmp_path / "chain.json"
    code, doc = json_out(capsys, "generate", "--preset", "two_state_chain",
                         "--out", str(out))
    assert code == 0
    m = load_instance(out)
    assert doc["hash"] == instance_hash(m)
    assert (doc["S"], doc["A"], doc["H"]) == (2, 2, 2)
    assert doc["budget"] == 0.6
    assert doc["zeta"] == 0.6


def test_generate_random_pins_zeta(tmp_path, capsys):
    out = tmp_path / "rand.json"
    code, doc = json_out(capsys, "generate", "--S", "3", "--A", "2", "--H", "3",
                         "--zeta", "0.25", "--seed", "5", "--out", str(out))
    assert code == 0
    assert doc["zeta"] == 0.25
    assert slater_constant(load_instance(out))[0] == 0.25


def test_solve_preset_reports_known_optimum(capsys):
    code, doc = json_out(capsys, "solve", "--preset", "single_state_tradeoff")
    assert code == 0
    assert doc["status"] == "optimal"
    assert doc["optimal_value"] == pytest.approx(0.5, abs=1e-9)
    assert doc["optimal_cost"] == pytest.approx(0.5, abs=1e-9)
    assert doc["lambda_star"] == pytest.approx(1.0, abs=1e-6)
    weights = [c["weight"] for c in doc["policy"]["components"]]
    assert np.allclose(weights, [0.5, 0.5])


def test_solve_infeasible_serializes_non_finite_as_null(tmp_path, capsys):
    # budget below the cheapest policy: c = 1 per step, b = 0.5
    doc = {"S": 1, "A": 1, "H": 1, "P": [[[[1.0]]]], "r": [[[1.0]]],
           "c": [[[1.0]]], "b": 0.5, "s1": 0}
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc))
    code, out = json_out(capsys, "solve", "--instance", str(path))
    assert code == 0
    assert out["status"] == "infeasible"
    assert out["optimal_value"] is None
    assert out["lambda_star"] is None
    assert out["policy"] is None


def test_env_source_is_exactly_one_of_preset_or_instance(capsys):
    with pytest.raises(SystemExit):
        main(["solve"])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["solve", "--preset", "two_state_chain", "--instance", "x.json"])


# ---------------------------------------------------------------------------
# train.


def test_train_writes_report_and_policy(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, doc = json_out(capsys, "train", "--preset", "two_state_chain",
                         "--epsilon", "0.5", "-K", "40", "-T", "10",
                         "--out", str(out_dir))
    assert code == 0  # relaxed verdict passes at this accuracy
    assert doc["verdict"]["passed"] is True
    assert doc["episodes"] == 40
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["config"]["episodes"] == 40
    assert (out_dir / "run.csv").exists()
    assert (out_dir / "policy.json").exists()
    m = preset("two_state_chain")
    mix = load_policy(out_dir / "policy.json", m)
    assert mix.weights().sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("instance", ["preset", "generated"])
def test_train_prints_the_totals_summary_json_records(tmp_path, capsys, instance):
    if instance == "preset":
        env = ["--preset", "two_state_chain"]
    else:
        path = tmp_path / "instance.json"
        json_out(capsys, "generate", "--S", "4", "--A", "3", "--H", "4",
                 "--seed", "2", "--out", str(path))
        env = ["--instance", str(path)]
    out_dir = tmp_path / "run"
    _, doc = json_out(capsys, "train", *env, "--epsilon", "0.5", "-K", "30", "-T", "6",
                      "--bonus-scale", "0.1", "--seed", "3", "--no-charts",
                      "--out", str(out_dir))
    summary = json.loads((out_dir / "summary.json").read_text())
    totals = summary["totals"]
    assert sorted(totals) == ["cv", "episodes", "model_updates", "regret"]
    assert totals["episodes"] == 30 and totals["regret"] != 0.0
    printed = {key: doc[key] for key in totals}
    assert [(type(x), x) for x in printed.values()] == [(type(x), x) for x in totals.values()]
    # the printed verdict is summary.json's, less the epsilon that was passed in
    (verdict,) = summary["verdicts"]
    assert verdict.pop("epsilon") == 0.5
    assert doc["verdict"] == verdict and sorted(doc["verdict"]) == [
        "cost_cap", "mode", "passed", "reward_floor", "v_c", "v_r"]


def test_train_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps({"epsilon": 0.5, "episodes": 100, "iters": 5.0,
                               "seed": 4, "timing": False}))
    out_dir = tmp_path / "run"
    code, doc = json_out(capsys, "train", "--preset", "two_state_chain",
                         "--config", str(cfg), "--episodes", "30",
                         "--no-charts", "--out", str(out_dir))
    assert doc["episodes"] == 30  # flag beats file
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["config"]["iters"] == 5  # file beats derived default
    assert summary["seed"] == 4
    assert not (out_dir / "regret.svg").exists()


def test_train_rejects_unknown_config_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"epsilon": 0.5, "learning_rate": 1.0}))
    with pytest.raises(SystemExit, match="unknown config keys"):
        main(["train", "--preset", "two_state_chain", "--config", str(cfg),
              "--out", "unused"])


@pytest.mark.parametrize("doc, match", [
    ({"epsilon": 0.5, "episodes": "5"}, "field 'episodes' must be an integer"),
    ({"epsilon": 0.5, "iters": True}, "field 'iters' must be an integer"),
    ({"epsilon": 0.5, "seed": 1.7}, "field 'seed' must be an integer"),
    ({"epsilon": 0.5, "eval_every": None}, "unknown config keys: ['eval_every']"),
    ({"epsilon": "0.5"}, "field 'epsilon' must be a number"),
    ({"epsilon": 0.5, "delta": None}, "field 'delta' must be a number"),
    ({"epsilon": 0.5, "dual_cap": [4]}, "field 'dual_cap' must be a number"),
    ({"epsilon": 0.5, "grid_step": True}, "field 'grid_step' must be a number"),
    ({"epsilon": 0.5, "bonus_scale": "0"}, "field 'bonus_scale' must be a number"),
    ({"epsilon": 0.5, "timing": "no"}, "field 'timing' must be a JSON boolean"),
    ({"epsilon": 0.5, "mode": 1}, "field 'mode' must be a JSON string"),
    ([0.5], "must hold a JSON object"),
])
def test_train_rejects_mistyped_config_values(tmp_path, doc, match):
    # "5" escaped as a TypeError, seed 1.7 ran as seed 1, and "no" turned
    # timing on
    cfg = tmp_path / "train.json"
    cfg.write_text(json.dumps(doc))
    with pytest.raises(SystemExit, match=f"^cmdplab train: .*{re.escape(match)}") as err:
        main(["train", "--preset", "two_state_chain", "--config", str(cfg),
              "--out", str(tmp_path / "run")])
    assert "\n" not in str(err.value)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("depth", [64, 100_000])
@pytest.mark.parametrize("kind", ["instance", "policy", "config"])
def test_deeply_nested_json_is_rejected_in_one_line(tmp_path, kind, depth):
    # 100,000 levels raised RecursionError from json; an instance or policy
    # table 33-64 levels deep raised RuntimeError from numpy's .flat, which
    # stops at 32 axes
    instance, path = tmp_path / "chain.json", tmp_path / f"{kind}.json"
    save_instance(preset("two_state_chain"), instance)
    doc = {"instance": {**json.loads(instance.read_text()), "P": "deep"},
           "policy": {"S": 2, "A": 2, "H": 2, "components": [{"weight": 1.0, "actions": "deep"}]},
           "config": "deep"}[kind]
    path.write_text(json.dumps(doc).replace('"deep"', "[" * depth + "0" + "]" * depth))
    argv = {"instance": ["solve", "--instance", str(path)],
            "policy": ["evaluate", "--instance", str(instance), "--policy", str(path)],
            "config": ["train", "--preset", "two_state_chain", "--config", str(path),
                       "--out", str(tmp_path / "run")]}[kind]
    with pytest.raises(SystemExit, match=f"^cmdplab {argv[0]}: ") as err:
        main(argv)
    assert "\n" not in str(err.value) and str(path) in str(err.value)


def test_train_rejects_infeasible_instance_before_learning(tmp_path, monkeypatch):
    # the cheapest policy pays 1.0 against b = 0.6: relaxed train used to run
    # the learner and write regret_cum = nan and bare NaN into summary.json
    path = tmp_path / "infeasible.json"
    save_instance(preset("two_state_chain"), path)
    doc = json.loads(path.read_text())
    doc["c"] = np.maximum(doc["c"], 0.5).tolist()
    path.write_text(json.dumps(doc))

    def no_learner(*args, **kwargs):
        raise AssertionError("the learner ran")

    monkeypatch.setattr("cmdplab.cli.run_learner", no_learner)
    out_dir = tmp_path / "run"
    with pytest.raises(SystemExit, match=r"^cmdplab train: infeasible instance: "
                                         r"the min-cost policy has V_c = 1 > b = 0\.6$"):
        main(["train", "--instance", str(path), "--epsilon", "1", "-K", "20",
              "-T", "5", "--out", str(out_dir)])
    assert not out_dir.exists()


def test_train_requires_epsilon(capsys):
    with pytest.raises(SystemExit, match="epsilon"):
        main(["train", "--preset", "two_state_chain", "--out", "unused"])


def test_train_failing_verdict_exits_nonzero(tmp_path, capsys):
    # one episode at a tiny accuracy target cannot reach the reward floor
    out_dir = tmp_path / "run"
    code, doc = json_out(capsys, "train", "--preset", "risky_shortcut",
                         "--epsilon", "0.01", "-K", "1", "-T", "1",
                         "--no-charts", "--out", str(out_dir))
    assert code == 1
    assert doc["verdict"]["passed"] is False


def test_train_reproducible_run_csv(tmp_path, capsys):
    args = ["train", "--preset", "two_state_chain", "--epsilon", "0.5",
            "-K", "20", "-T", "8", "--seed", "7", "--no-charts"]
    code1, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a"))
    code2, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b"))
    assert (tmp_path / "a" / "run.csv").read_bytes() == (
        tmp_path / "b" / "run.csv").read_bytes()


def test_train_run_csv_pinned_hash(tmp_path, capsys):
    # two_state_chain moves are deterministic, so this digest does not depend
    # on the order of floating-point sums; the dual is active from episode 4
    code, _ = run_cli(capsys, "train", "--preset", "two_state_chain",
                      "--epsilon", "0.1", "--bonus-scale", "0",
                      "--dual-cap", "4", "--grid-step", "0.00390625",
                      "-T", "20", "-K", "200", "--seed", "1", "--no-charts",
                      "--out", str(tmp_path))
    assert code == 0
    digest = hashlib.sha256((tmp_path / "run.csv").read_bytes()).hexdigest()
    assert digest == (
        "a0b56423622d56cf1628df8e5eb5eacdb25a977abbf07a7eae0dc09b600309f4")


def test_train_policy_json_pinned_hash(tmp_path, capsys):
    # the same run as test_train_run_csv_pinned_hash; pins the compact
    # policy.json format (sorted keys, no spaces, "actions" for one-hot
    # components), so any drift in the file's bytes shows here
    code, _ = run_cli(capsys, "train", "--preset", "two_state_chain",
                      "--epsilon", "0.1", "--bonus-scale", "0",
                      "--dual-cap", "4", "--grid-step", "0.00390625",
                      "-T", "20", "-K", "200", "--seed", "1", "--no-charts",
                      "--out", str(tmp_path))
    assert code == 0
    digest = hashlib.sha256((tmp_path / "policy.json").read_bytes()).hexdigest()
    assert digest == (
        "16ba864a2443704087306edcfef6000d27330ee0addc66bfad43a59ef01d201e")


# ---------------------------------------------------------------------------
# evaluate / report / suite.


def test_evaluate_agrees_with_dp_on_deterministic_instance(tmp_path, capsys):
    m = preset("two_state_chain")
    mix = MixturePolicy.single(Policy.from_actions([[1, 1], [1, 1]], 2))
    pol = tmp_path / "policy.json"
    save_policy(mix, m, pol)
    code, doc = json_out(capsys, "evaluate", "--preset", "two_state_chain",
                         "--policy", str(pol), "--episodes", "200")
    assert code == 0
    assert doc["dp_reward"] == pytest.approx(0.8, abs=1e-12)
    assert doc["mc"]["reward_mean"] == pytest.approx(0.8, abs=1e-12)
    assert abs(doc["z_reward"]) < 4.0
    assert abs(doc["z_cost"]) < 4.0


def test_policy_round_trip_and_dim_check(tmp_path):
    m = preset("risky_shortcut")
    mix = MixturePolicy(((0.25, Policy.uniform(3, 3, 2)),
                         (0.75, Policy.from_actions(np.ones((3, 3), int), 2))))
    path = tmp_path / "p.json"
    save_policy(mix, m, path)
    back = load_policy(path, m)
    assert np.allclose(back.weights(), [0.25, 0.75])
    for (w1, p1), (w2, p2) in zip(mix.components, back.components):
        assert np.array_equal(p1.rule, p2.rule)
    with pytest.raises(ValueError, match="dims"):
        load_policy(path, preset("two_state_chain"))  # wrong dimensions
    doc = json.loads(path.read_text())
    doc["components"][0]["rule"][1][2] = [0.5, 0.25]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"row \(h=1, s=2\) sums to 0.75"):
        load_policy(path, m)
    doc["components"][0]["rule"] = [[[1.0, 0.0]] * 3] * 2  # H = 2, not 3
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"rule shape \(2, 3, 2\)"):
        load_policy(path, m)


def test_report_rerenders_charts(tmp_path, capsys):
    out_dir = tmp_path / "run"
    run_cli(capsys, "train", "--preset", "two_state_chain", "--epsilon", "0.5",
            "-K", "10", "-T", "4", "--no-charts", "--out", str(out_dir))
    code, doc = json_out(capsys, "report", "--run-dir", str(out_dir))
    assert code == 0
    assert doc["rows"] == 10
    assert (out_dir / "regret.svg").exists()
    assert (out_dir / "cv.svg").exists()


def test_suite_subset_runs_fast_checks(capsys):
    code, out = run_cli(capsys, "suite", "--only", "grid-rounding",
                        "doubling-epochs")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert len(lines) == 2
    assert all(l.startswith("[PASS]") for l in lines)
    assert "all 2 checks passed" in out


def test_suite_runs_a_repeated_name_once(capsys):
    code, out = run_cli(capsys, "suite", "--only", "grid-rounding",
                        "grid-rounding")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert len(lines) == 1 and lines[0].startswith("[PASS] grid-rounding:")
    assert "all 1 checks passed" in out


def test_suite_runs_the_whole_battery_and_reports_failures(capsys, monkeypatch):
    # with no --only the suite runs every check in ALL_CHECKS; one failure
    # prints the count and names and exits 1
    monkeypatch.setattr(acceptance, "_REGISTRY", {})

    @acceptance._budget(60.0)
    def check_stub_pass():
        return True, "fine"

    @acceptance._budget(60.0)
    def check_stub_fail():
        return False, "broke"

    monkeypatch.setattr(acceptance, "ALL_CHECKS", (check_stub_pass, check_stub_fail))
    code, out = run_cli(capsys, "suite")
    assert code == 1
    assert out.splitlines() == ["[PASS] stub-pass: fine (0.0s)",
                                "[FAIL] stub-fail: broke (0.0s)",
                                "1 of 2 checks failed: stub-fail"]


def test_suite_unknown_check_name(capsys):
    with pytest.raises(SystemExit, match="unknown checks"):
        main(["suite", "--only", "no-such-check"])


def test_evaluate_rejects_nan_weight(tmp_path):
    # NaN passed both weight checks and printed "dp_reward: NaN" with exit 0
    m = preset("two_state_chain")
    path = tmp_path / "p.json"
    save_policy(MixturePolicy.single(Policy.uniform(2, 2, 2)), m, path)
    doc = json.loads(path.read_text())
    doc["components"][0]["weight"] = float("nan")
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit, match="mixture weights"):
        main(["evaluate", "--preset", "two_state_chain", "--policy", str(path),
              "--episodes", "10"])


def test_train_rejects_a_count_too_large_for_a_float(tmp_path):
    # float(count) raised OverflowError and escaped as a traceback
    huge = "1" + "0" * 400
    with pytest.raises(SystemExit, match=rf"^cmdplab train: episodes={huge} exceeds 2\*\*53$"):
        main(["train", "--preset", "two_state_chain", "--epsilon", "1", "-K", huge,
              "-T", "3", "--out", str(tmp_path / "run")])
    # the derived K = 8e154 squared overflowed the delta' formula
    with pytest.raises(SystemExit, match=r"^cmdplab train: episodes=\d+ exceeds 2\*\*53$"):
        main(["train", "--preset", "two_state_chain", "--epsilon", "2e-77",
              "--out", str(tmp_path / "run")])
    assert not (tmp_path / "run").exists()


def test_library_errors_exit_with_one_line(tmp_path):
    with pytest.raises(SystemExit, match=r"^cmdplab solve: .*No such file"):
        main(["solve", "--instance", str(tmp_path / "missing.json")])
    with pytest.raises(SystemExit, match=r"^cmdplab train: bonus_scale must be finite"):
        main(["train", "--preset", "two_state_chain", "--epsilon", "0.5",
              "--bonus-scale", "nan", "--out", str(tmp_path / "run")])
    with pytest.raises(SystemExit, match=r"^cmdplab train: dual_cap must be finite"):
        main(["train", "--preset", "two_state_chain", "--epsilon", "0.5",
              "--dual-cap", "inf", "--out", str(tmp_path / "run")])
    # epsilon**4 underflows to 0; this escaped as ZeroDivisionError
    with pytest.raises(SystemExit, match=r"^cmdplab train: epsilon=1e-100 puts a rate"):
        main(["train", "--preset", "two_state_chain", "--epsilon", "1e-100",
              "-K", "2", "-T", "2", "--out", str(tmp_path / "run")])
    # a tiny delta made delta' underflow: a NaN bonus or a ZeroDivisionError
    for delta in ("1e-308", "1e-320", "5e-324"):
        with pytest.raises(SystemExit,
                           match=rf"^cmdplab train: delta={float(delta)} is too small"):
            main(["train", "--preset", "two_state_chain", "--epsilon", "0.5",
                  "--delta", delta, "-K", "3", "-T", "2", "--out", str(tmp_path / "run")])
    # the derived T = 1.6e13 is refused before the learner runs
    with pytest.raises(SystemExit, match=r"^cmdplab train: iters=16000000000000 exceeds"):
        main(["train", "--preset", "two_state_chain", "--epsilon", "0.001",
              "-K", "2", "--out", str(tmp_path / "run")])
    # a GenerationError is a ValueError; it used to escape as a traceback
    for zeta in ("5", "inf"):
        with pytest.raises(SystemExit, match=rf"^cmdplab generate: no budget in \(0, 3\] "
                                             rf"realizes zeta_target={float(zeta)}$"):
            main(["generate", "--zeta", zeta, "--H", "3", "--out", str(tmp_path / "g.json")])
    # numpy's own message named no field
    with pytest.raises(SystemExit, match=r"^cmdplab generate: seed must be an integer >= 0, "
                                         r"got -5$"):
        main(["generate", "--seed", "-5", "--out", str(tmp_path / "g.json")])
    # these drew NaN kernel rows and blamed "P entry (0, 0, 0, 0)"
    with pytest.raises(SystemExit, match=r"^cmdplab generate: dirichlet_alpha must be "
                                         r"positive and finite, got inf$"):
        main(["generate", "--alpha", "inf", "--out", str(tmp_path / "g.json")])
    with pytest.raises(SystemExit, match=r"^cmdplab generate: dirichlet_alpha=1e\+308 is too "
                                         r"large: the Dirichlet draws overflow$"):
        main(["generate", "--alpha", "1e308", "--out", str(tmp_path / "g.json")])
    # each array is over 2**57 bytes, so the allocation fails before any
    # memory is touched; numpy's MemoryError escaped as a traceback
    with pytest.raises(SystemExit, match=r"^cmdplab generate: Unable to allocate "):
        main(["generate", "--S", "200000", "--A", "1000", "--H", "1000",
              "--out", str(tmp_path / "g.json")])
    save_policy(MixturePolicy.single(Policy.uniform(2, 2, 2)), preset("two_state_chain"),
                tmp_path / "p.json")
    with pytest.raises(SystemExit, match=r"^cmdplab evaluate: Unable to allocate "):
        main(["evaluate", "--preset", "two_state_chain", "--policy", str(tmp_path / "p.json"),
              "--episodes", "100000000000000000"])
    # a NaN tol skipped bisection and reported a suboptimal value as optimal
    with pytest.raises(SystemExit, match=r"^cmdplab solve: tol must be in \(0, inf\), got nan$"):
        main(["solve", "--preset", "risky_shortcut", "--tol", "nan"])
    # the CLI's own input errors carry the same prefix
    with pytest.raises(SystemExit, match=r"^cmdplab train: an instance is required"):
        main(["train", "--epsilon", "1", "--out", str(tmp_path / "run")])
    with pytest.raises(SystemExit, match=r"^cmdplab solve: pass either --preset"):
        main(["solve", "--preset", "two_state_chain", "--instance", "x.json"])
    with pytest.raises(SystemExit, match=r"^cmdplab train: --epsilon is required"):
        main(["train", "--preset", "two_state_chain", "--out", str(tmp_path / "run")])
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"epsilon": 0.5, "learning_rate": 1.0}))
    with pytest.raises(SystemExit, match=r"^cmdplab train: unknown config keys"):
        main(["train", "--preset", "two_state_chain", "--config", str(cfg),
              "--out", str(tmp_path / "run")])
    assert not (tmp_path / "run").exists()


def test_degenerate_instance_exits_with_one_line(tmp_path):
    # no dual point below the cap is feasible and 2**13 deterministic
    # policies are too many for brute force: the solver's
    # DegenerateInstanceError escaped as a traceback
    h = 13
    doc = {"S": 1, "A": 2, "H": h, "P": [[[[1.0], [1.0]]]] * h, "r": [[[0.0, 1.0]]] * h,
           "c": [[[0.0, 1e-12]]] * h, "b": 1e-300, "s1": 0}
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc))
    for command, *rest in (["solve"], ["train", "--epsilon", "1", "-K", "2", "-T", "2",
                                       "--out", str(tmp_path / "run")]):
        with pytest.raises(SystemExit, match=rf"^cmdplab {command}: no feasible dual point "
                                             r"below cap 5\.2e\+09 \(zeta=1e-300\)$"):
            main([command, "--instance", str(path), *rest])
    assert not (tmp_path / "run").exists()


def test_evaluate_rejects_bad_episode_counts(tmp_path):
    m = preset("two_state_chain")
    path = tmp_path / "p.json"
    save_policy(MixturePolicy.single(Policy.uniform(2, 2, 2)), m, path)
    for episodes in ("0", "-5"):
        with pytest.raises(SystemExit,
                           match="cmdplab evaluate: episodes must be an integer >= 1"):
            main(["evaluate", "--preset", "two_state_chain", "--policy", str(path),
                  "--episodes", episodes])
