"""The benchmark's tracer patches cmdplab module attributes by name.

perfbench/tracing.py lists them in BINDINGS as "module.attr" paths; a
refactor that renames or moves one of those attributes would make every
traced benchmark run fail. This test reads the list (without changing
anything) and checks that each path still resolves.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
