"""Smoke runs of the experiment scripts, which read learner output directly,
and of the README's library sketch, which names the public API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("name, args", [
    ("dual_dynamics.py", ["--episodes", "6", "--iters", "20"]),
    ("regret_experiment.py", ["--budgets", "4", "8", "--iters", "3", "--out", "report"]),
])
def test_script_runs(tmp_path, name, args):
    proc = run_script(name, *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    if "--out" in args:
        assert (tmp_path / "report" / "run.csv").exists()
    else:
        assert "all dual iterates sit on the grid" in proc.stdout


def test_learner_timing_prints_one_line_per_run(tmp_path):
    proc = run_script("learner_timing.py", "--seeds", "1", "--bonus-scales", "0", "1",
                      "-K", "20", "-T", "5", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [(r[0], r[1], r[2], r[3]) for r in rows] == [("1", "0", "20", "5"),
                                                        ("1", "1", "20", "5")]
    assert proc.stdout.splitlines()[1].split()[5:13] == ["sweeps", "multipliers", "replans",
                                                         "one_at_a_time", "metrics_s",
                                                         "report_s", "mc_us", "peak_rss_mb"]
    for r in rows:  # every replan sweeps at least once; a sweep prices >= 1 multiplier
        assert len(r) == 13
        assert float(r[4]) >= 0 and int(r[6]) >= int(r[5]) >= int(r[7]) >= 1
        assert 20 >= int(r[8]) >= int(r[7])  # a replan's episode is drawn on its own
        assert float(r[9]) > 0 and float(r[10]) > 0  # metrics and report seconds
        assert float(r[11]) > 0 and float(r[12]) > 0  # Monte Carlo µs per episode, peak RSS


def test_output_digests_prints_one_line_per_output(tmp_path):
    proc = run_script("output_digests.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split(" ") for line in proc.stdout.splitlines()]
    for line in lines:
        assert len(line) == 3 and re.fullmatch(r"[0-9a-f]{64}", line[0]), line
    outputs = [(label, name) for _, label, name in lines]
    assert len(set(outputs)) == len(outputs)
    for output in [("train_dual_seed3", "run.csv"), ("train_plan_bonus0", "summary.json"),
                   ("train_plan_bonus1", "run.csv"), ("train_plan_bonus1", "policy.json"),
                   ("train_strict", "policy.json"), ("train_strict_bonus0", "run.csv"),
                   ("train_blocks", "run.csv"), ("train_blocks", "summary.json"),
                   ("generate", "instance.json"),
                   ("solve", "stdout"), ("solve_two_state_chain", "stdout"),
                   ("generate_3x2x3_alpha1_seed1", "instance.json"),
                   ("solve_3x2x3_alpha1_seed2", "stdout"),
                   ("solve_10x4x8_alpha1_seed1", "stdout"),
                   ("generate_10x4x8_alpha0.1_seed2", "instance.json"),
                   ("solve_10x4x8_alpha0.1_seed2", "stdout"),
                   ("solve_30x5x10_alpha1_seed2", "stdout"),
                   ("solve_3x2x3_alpha1_seed2_twins", "instance.json"),
                   ("solve_3x2x3_alpha1_seed2_twins", "stdout"),
                   ("evaluate", "stdout"), ("evaluate_train_plan_bonus0", "stdout"),
                   ("evaluate_train_blocks", "stdout"), ("evaluate_optimal", "stdout"),
                   ("evaluate_uniform", "policy.json"), ("evaluate_mixed", "policy.json"),
                   ("evaluate_mixed", "stdout"), ("evaluate_risky_actions", "policy.json"),
                   ("evaluate_risky_actions", "stdout"), ("evaluate_risky_rule", "policy.json"),
                   ("evaluate_risky_rule", "stdout"), ("report", "regret.svg"),
                   ("help", "cmdplab"), ("help", "suite")]:
        assert output in outputs
    assert not any(tmp_path.iterdir())  # every file went to a temporary directory


def test_readme_library_sketch_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert (tmp_path / "run_out" / "run.csv").exists()
