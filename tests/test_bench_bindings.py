"""The benchmark's tracer patches cmdplab module attributes by name.

perfbench/tracing.py lists them in BINDINGS as "module.attr" paths; a
refactor that renames or moves one of those attributes would make every
traced benchmark run fail. One test reads the list (without changing
anything) and checks that each path still resolves; another runs the
benchmark's own smoke test, which calls every workload through those
bindings, so a changed signature fails here too.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def load_bindings():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BINDINGS


def test_every_traced_binding_resolves():
    bindings = load_bindings()
    assert bindings
    missing = []
    for path, _ in bindings:
        mod, attr = path.split(".")
        if not callable(getattr(importlib.import_module(f"cmdplab.{mod}"), attr, None)):
            missing.append(path)
    assert missing == []


def test_benchmark_selftest_passes():
    # every workload once untraced and once traced, at tiny sizes, run from
    # the repository root as perfbench/selftest.py expects
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.endswith("selftest passed\n")
