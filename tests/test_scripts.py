"""Smoke runs of the experiment scripts, which read learner output directly."""

import os
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
