"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it runs one untraced and one traced measurement in
process and asserts that each run is correct, that every metric named in
BENCHMARK.json is printed with its unit, and that traced and untraced rounds
wrote byte-identical run.csv files (the tracing wrappers change no output).
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# Small enough for seconds per workload; the 4x2x4 instance's dual still
# leaves 0 within K, which train_plan's self-check requires.
TINY = {"dims": (4, 2, 4), "plan_K": 60, "plan_T": 3, "plan_instances": 2,
        "dual_K": 40, "mc_episodes": 2000, "setup_repeats": 1}


def check_workload(name, spec, root):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        with contextlib.redirect_stdout(io.StringIO()):
            result, record, _ = run.run(name, seed=1, seconds=0, trace=trace,
                                        size=TINY, root=root)
        assert result["correct"] and result["failed"] == 0, (name, record)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        for metric in spec[section]:
            got = result["metrics"].get(metric["name"])
            assert got is not None, (name, metric["name"])
            assert got["unit"] == metric["unit"], (name, metric, got)
            assert isinstance(got["value"], (int, float)), (name, metric, got)
        assert set(result["metrics"]) == {m["name"] for m in spec[section]}
        if name.startswith("train_"):
            by_input = {}
            for r in record["round_list"]:
                by_input.setdefault(r["input_seed"], []).append(r)
            for seen in by_input.values():
                assert len({r["run_csv_sha256"] for r in seen}) == 1, seen
                if trace:
                    assert {r["traced"] for r in seen} == {False, True}, seen
        print(f"ok  {name} trace={trace}  "
              f"{result['attempted']} calls, {record['rounds']} rounds")


def main():
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        check_workload(workload["name"], spec, root)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
