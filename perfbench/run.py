"""cmdplab benchmark: three workloads driven through the user's entry point.

Run from the repository root (the directory that holds ``src/cmdplab``):

    python3 perfbench/run.py --workload train_plan --seed 1 --seconds 20 --trace 0

Each round of a workload calls ``cmdplab.cli.main([...])`` in this process
with the argv a user would type, checks every output, and times the calls.
Rounds repeat until ``--seconds`` have passed and every instance has had a
round; the first instance runs again right after the warm-up, so repeats are
compared byte for byte. Timings are medians over rounds; the gated ones are
in units of a fixed reference task timed between rounds. ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs each instance twice back
to back, traces the second round of each pair and prints the per-layer
metrics from the traced rounds. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. Metric and workload choices
are documented in README.md here.
"""

import os

# Single-threaded numpy: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import Tracer, percentile  # noqa: E402

WORKLOADS = ("train_plan", "train_dual", "evaluate_mc")

# Run length per workload. train_plan's K stays well past the episode where
# its dual leaves 0 (65-179 over 120 instances); its rounds take the
# plan_instances instances of a run in turn.
FULL = {"dims": (10, 4, 8), "plan_K": 300, "plan_T": 3, "plan_instances": 16,
        "dual_K": 2000, "mc_episodes": 20_000, "setup_repeats": 7}

END_TO_END_UNITS = {"wall_ref": "ref", "episodes_per_ref": "1/ref",
                    "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "learner.backup_calls": "count", "learner.backup_s": "s",
    "learner.backup_ms_p50": "ms", "learner.dual_iters": "count",
    "learner.cache_hit_frac": "frac", "learner.dual_loop_s": "s",
    "learner.record_transition_calls": "count",
    "learner.record_transition_s": "s", "learner.model_rebuilds": "count",
    "learner.final_components": "count",
    "learner.final_distinct_policies": "count",
    "learner.distinct_frac": "frac", "learner.episode_ms_p50": "ms",
    "learner.episode_ms_p95": "ms", "learner.backup_share": "frac",
    "learner.backups_per_episode": "count",
    "learner.first_dual_episode": "episode",
    "simulate.sample_calls": "count", "simulate.sample_s": "s",
    "simulate.mc_episodes": "count", "simulate.mc_s": "s",
    "simulate.mc_us_per_episode": "us", "simulate.mc_share": "frac",
    "solver.solve_calls": "count", "solver.solve_s": "s",
    "solver.dual_value_calls": "count",
    "core.evaluate_policy_calls": "count", "core.evaluate_policy_s": "s",
    "core.greedy_backup_calls": "count", "core.greedy_backup_s": "s",
    "core.load_instance_s": "s",
    "harness.compute_metrics_s": "s", "harness.verdict_s": "s",
    "harness.emit_report_s": "s", "harness.report_bytes": "bytes",
    "generate.s": "s", "cli.calls": "count", "cli.self_s": "s",
    "trace.spans": "count", "trace.overhead_s": "s",
    "trace.overhead_frac": "frac",
}

# Runs in a fresh interpreter: import the package and materialise the
# instance the workload uses. Prints its elapsed seconds and module path.
SETUP_CHILD = r"""
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cmdplab.cli as cli
if sys.argv[2] == "preset":
    cli.preset(sys.argv[3])
else:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(sys.argv[3:])
    cli.load_instance(sys.argv[-1])
print(time.perf_counter() - t0, cli.__file__)
"""


# The reference task's time on an idle core of the machine the benchmark was
# built on; setup_s is reported in seconds at that speed.
REFERENCE_S = 0.085


def reference_seconds():
    """Seconds for a fixed task that does not use cmdplab: backward induction
    over a 10x4x8 table with per-(s, a) Python loops and small numpy dot
    products, the mix of work in the program's hot paths."""
    rng = np.random.default_rng(0)
    kernel = rng.dirichlet(np.ones(10), size=(8, 10, 4))
    stage = rng.uniform(size=(8, 10, 4))
    t0 = time.perf_counter()
    for _ in range(80):
        v = np.zeros(10)
        for h in range(7, -1, -1):
            q = np.empty((10, 4))
            for s in range(10):
                for a in range(4):
                    p = kernel[h, s, a]
                    mean = float(p @ v)
                    var = max(float(p @ (v * v)) - mean * mean, 0.0)
                    q[s, a] = stage[h, s, a] + mean + var ** 0.5
            v = q.max(axis=1)
    return time.perf_counter() - t0


class CallFailed(Exception):
    """A CLI call raised, exited with an unexpected code or failed its check."""


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def import_cmdplab(src):
    """Import cmdplab from this checkout's sources and nowhere else."""
    pkg_dir = src / "cmdplab"
    if not (pkg_dir / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cmdplab sources at {pkg_dir}; "
                         "run from the repository root")
    sys.path.insert(0, str(src))
    import cmdplab
    import cmdplab.cli

    if Path(cmdplab.__file__).resolve().parent != pkg_dir.resolve():
        raise SystemExit(f"perfbench: imported cmdplab from {cmdplab.__file__}, "
                         f"not from {pkg_dir}")
    return cmdplab


class Calls:
    """Runs CLI calls in-process, times them and counts failures."""

    def __init__(self, cli_module):
        self.cli = cli_module
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, argv, check):
        """Run ``cmdplab <argv>``; returns (seconds, parsed stdout JSON).

        check(rc, out) returns a list of problems; any problem, an
        exception or unparsable output makes the call fail (CallFailed).
        """
        self.attempted += 1
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(argv)
            seconds = time.perf_counter() - t0
            out = json.loads(buf.getvalue())
            problems = check(rc, out)
        except (Exception, SystemExit) as e:  # the CLI reports bad input via SystemExit
            traceback.print_exc(file=sys.stderr)
            problems = [f"raised {e!r}"]
        if problems:
            self.failed += 1
            self.problems.append({"argv": argv, "problems": problems})
            raise CallFailed(problems)
        return seconds, out


def expect(cond, msg, problems):
    if not cond:
        problems.append(msg)


class Workload:
    """One workload's inputs (from the seed) and its round of CLI calls."""

    def __init__(self, name, seed, size, work):
        self.name = name
        self.seed = seed
        self.instances = size["plan_instances"] if name == "train_plan" else 1
        self.input_seed = seed * self.instances
        self.size = size
        self.work = work
        self.reference = {}  # fingerprints of the first round, per call
        self.outputs = {}  # recorded outputs of the last round

    # -- helpers shared by the rounds ------------------------------------

    def _same_as_first(self, key, value, problems):
        first = self.reference.setdefault((self.input_seed, key), value)
        expect(first == value, f"{key} differs from the first round", problems)

    def _generate_argv(self, path):
        s_, a_, h_ = self.size["dims"]
        return ["generate", "--S", str(s_), "--A", str(a_), "--H", str(h_),
                "--zeta", "0.5", "--seed", str(self.input_seed),
                "--out", str(path)]

    def _generate(self, calls):
        path = self.work / "instance.json"

        def check(rc, out):
            problems = []
            expect(rc == 0, f"exit code {rc}", problems)
            self._same_as_first("instance_sha256", sha256(path), problems)
            return problems

        seconds, out = calls.call(self._generate_argv(path), check)
        return seconds, path, out

    def _train(self, calls, env_args, episodes, iters, extra, plan):
        out_dir = self.work / "run"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = (["train"] + env_args + extra
                + ["-K", str(episodes), "-T", str(iters),
                   "--seed", str(self.input_seed), "--out", str(out_dir)])
        rec = {}

        def check(rc, out):
            problems = []
            verdict = out["verdict"]
            expect(rc == (0 if verdict["passed"] else 1),
                   f"exit code {rc} with verdict passed={verdict['passed']}",
                   problems)
            expect(out["episodes"] == episodes,
                   f"{out['episodes']} episodes, expected {episodes}", problems)
            with open(out_dir / "run.csv", newline="") as f:
                rows = list(csv.DictReader(f))
            expect(len(rows) == episodes, f"run.csv has {len(rows)} rows",
                   problems)
            with open(out_dir / "summary.json") as f:
                totals = json.load(f)["totals"]
            expect((totals["regret"], totals["cv"], totals["model_updates"])
                   == (out["regret"], out["cv"], out["model_updates"]),
                   "summary.json totals differ from the printed ones", problems)
            first_dual = next((int(r["k"]) for r in rows
                               if float(r["lambda_mean"]) > 0), -1)
            if plan:
                # Without an active dual, every episode runs one backup and
                # the workload no longer measures planning.
                expect(first_dual >= 0, "the dual never left 0: K too small",
                       problems)
            for name in ("run.csv", "summary.json", "policy.json"):
                self._same_as_first(f"{name}_sha256", sha256(out_dir / name),
                                    problems)
            rec.update({
                "run_csv_sha256": sha256(out_dir / "run.csv"),
                "regret": out["regret"], "cv": out["cv"],
                "model_updates": out["model_updates"],
                "verdict": verdict, "first_dual_episode": first_dual,
                "episodes": episodes, "dual_iters": episodes * iters,
                "report_bytes": sum(p.stat().st_size
                                    for p in out_dir.iterdir()),
            })
            return problems

        seconds, _ = calls.call(argv, check)
        self.outputs = rec
        return seconds

    # -- the three rounds -------------------------------------------------

    def round(self, calls, instance):
        """Run one round on the run's instance number `instance`; returns
        (wall seconds, episodes, episode seconds)."""
        self.input_seed = self.seed * self.instances + instance
        return getattr(self, f"_round_{self.name}")(calls)

    def _round_train_plan(self, calls):
        t_gen, path, _ = self._generate(calls)
        k = self.size["plan_K"]
        t_train = self._train(
            calls, ["--instance", str(path)], k, self.size["plan_T"],
            ["--epsilon", "1.0", "--bonus-scale", "0"], plan=True)
        return t_gen + t_train, k, t_train

    def _round_train_dual(self, calls):
        k = self.size["dual_K"]
        t_train = self._train(
            calls, ["--preset", "two_state_chain"], k, 100,
            ["--epsilon", "0.1", "--bonus-scale", "0", "--dual-cap", "4",
             "--grid-step", "0.00390625"], plan=False)
        return t_train, k, t_train

    def _round_evaluate_mc(self, calls):
        t_gen, path, gen = self._generate(calls)
        budget = gen["budget"]

        def check_solve(rc, out):
            problems = []
            expect(rc == 0, f"exit code {rc}", problems)
            expect(out["status"] == "optimal", f"status {out['status']}",
                   problems)
            expect(out["optimal_cost"] is not None
                   and out["optimal_cost"] <= budget + 1e-6,
                   f"optimal cost {out['optimal_cost']} above budget {budget}",
                   problems)
            return problems

        t_solve, sol = calls.call(["solve", "--instance", str(path)],
                                  check_solve)
        policy_path = self.work / "policy.json"
        with open(policy_path, "w") as f:
            json.dump(sol["policy"], f)
        n = self.size["mc_episodes"]

        def check_evaluate(rc, out):
            problems = []
            expect(rc == 0, f"exit code {rc}", problems)
            expect(out["mc"]["episodes"] == n, "wrong MC episode count",
                   problems)
            # The exact value of the solver's mixture is the solver's optimum.
            expect(abs(out["dp_reward"] - sol["optimal_value"]) <= 1e-6
                   and abs(out["dp_cost"] - sol["optimal_cost"]) <= 1e-6,
                   "DP value of the optimal mixture differs from solve",
                   problems)
            # Same gate as the mc-dp-agreement acceptance check: 4 SE.
            for z in ("z_reward", "z_cost"):
                expect(abs(out[z]) <= 4.0, f"|{z}| = {abs(out[z]):.3g} > 4",
                       problems)
            self._same_as_first("evaluate_stdout", json.dumps(out, sort_keys=True),
                                problems)
            return problems

        t_eval, ev = calls.call(
            ["evaluate", "--instance", str(path), "--policy", str(policy_path),
             "--episodes", str(n), "--seed", str(self.input_seed)],
            check_evaluate)
        self.outputs = {
            "solve": {k: sol[k] for k in ("status", "optimal_value",
                                          "optimal_cost", "lambda_star")},
            "components": len(sol["policy"]["components"]),
            "mc": ev["mc"], "z_reward": ev["z_reward"], "z_cost": ev["z_cost"],
        }
        return t_gen + t_solve + t_eval, n, t_eval

    # -- set-up -----------------------------------------------------------

    def setup_seconds(self, src):
        """Set-up time: import cmdplab in a fresh interpreter and materialise
        the instance. Returns (median seconds, median seconds at reference
        speed) over setup_repeats children after one unmeasured warm-up;
        each child is scaled by REFERENCE_S over the reference time measured
        just before it."""
        if self.name == "train_dual":
            args = ["preset", "two_state_chain"]
        else:
            args = ["cli"] + self._generate_argv(
                self.work / "setup_instance.json")
        times, scaled = [], []
        for i in range(1 + self.size["setup_repeats"]):
            ref_s = reference_seconds()
            done = subprocess.run(
                [sys.executable, "-c", SETUP_CHILD, str(src)] + args,
                capture_output=True, text=True, timeout=120, check=True)
            seconds, path = done.stdout.split()
            if Path(path).resolve().parent != (src / "cmdplab").resolve():
                raise RuntimeError(f"set-up child imported {path}")
            if i:
                times.append(float(seconds))
                scaled.append(float(seconds) * REFERENCE_S / ref_s)
        return statistics.median(times), statistics.median(scaled)


def layer_metrics(tracer, wall_s, workload, calls_per_round):
    """Per-layer metrics of one traced round."""
    tot = tracer.totals()

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0, []))[0]

    def secs(name):
        return tot.get(name, (0, 0.0, 0.0, []))[1]

    def self_secs(name):
        return tot.get(name, (0, 0.0, 0.0, []))[2]

    out = workload.outputs
    episodes = out.get("episodes", 0)
    dual_iters = out.get("dual_iters", 0)
    mc_episodes = out["mc"]["episodes"] if "mc" in out else 0
    backups = calls("learner.lagrangian_greedy_backup")
    backup_s = secs("learner.lagrangian_greedy_backup")
    mc_s = secs("simulate.monte_carlo_value")
    backup_durs = tot.get("learner.lagrangian_greedy_backup",
                          (0, 0.0, 0.0, []))[3]
    return {
        "learner.backup_calls": backups,
        "learner.backup_s": backup_s,
        "learner.backup_ms_p50": percentile(backup_durs, 50) * 1e3,
        "learner.dual_iters": dual_iters,
        "learner.cache_hit_frac": 1 - backups / dual_iters if dual_iters else 0.0,
        "learner.dual_loop_s": self_secs("learner.primal_dual_episode"),
        "learner.record_transition_calls": calls("learner.record_transition"),
        "learner.record_transition_s": secs("learner.record_transition"),
        "learner.model_rebuilds": out.get("model_updates", 0),
        "learner.final_components": tracer.final_components,
        "learner.final_distinct_policies": tracer.final_distinct,
        "learner.distinct_frac": (tracer.final_distinct / tracer.final_components
                                  if tracer.final_components else 0.0),
        "learner.episode_ms_p50": percentile(tracer.episode_ms, 50),
        "learner.episode_ms_p95": percentile(tracer.episode_ms, 95),
        "learner.backup_share": backup_s / wall_s,
        "learner.backups_per_episode": backups / episodes if episodes else 0.0,
        "learner.first_dual_episode": out.get("first_dual_episode", -1),
        "simulate.sample_calls": calls("simulate.sample_mixture_episode"),
        "simulate.sample_s": secs("simulate.sample_mixture_episode"),
        "simulate.mc_episodes": mc_episodes,
        "simulate.mc_s": mc_s,
        "simulate.mc_us_per_episode": mc_s / mc_episodes * 1e6 if mc_episodes else 0.0,
        "simulate.mc_share": mc_s / wall_s,
        "solver.solve_calls": calls("solver.solve_cmdp_exact"),
        "solver.solve_s": secs("solver.solve_cmdp_exact"),
        "solver.dual_value_calls": calls("solver.dual_value"),
        "core.evaluate_policy_calls": calls("core.evaluate_policy"),
        "core.evaluate_policy_s": secs("core.evaluate_policy"),
        "core.greedy_backup_calls": calls("core.greedy_backup"),
        "core.greedy_backup_s": secs("core.greedy_backup"),
        "core.load_instance_s": secs("core.load_instance"),
        "harness.compute_metrics_s": secs("harness.compute_metrics"),
        "harness.verdict_s": secs("harness.check_final_policy"),
        "harness.emit_report_s": secs("harness.emit_report"),
        "harness.report_bytes": out.get("report_bytes", 0),
        "generate.s": secs("generate.generate") + secs("generate.preset"),
        "cli.calls": calls_per_round,
        "cli.self_s": self_secs("cli.main"),
        "trace.spans": len(tracer.spans),
    }


def git_commit(root):
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as e:
        return f"unknown ({e})"
    return done.stdout.strip() or "unknown"


def run(workload_name, seed, seconds, trace, size=FULL, root=None):
    """Measure one workload; returns (result dict, record dict, spans)."""
    root = Path.cwd() if root is None else Path(root)
    src = root / "src"
    package = import_cmdplab(src)

    base = root / ".perfbench"
    base.mkdir(exist_ok=True)
    work = base / f"work-{workload_name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    wl = Workload(workload_name, seed, size, work)
    calls = Calls(package.cli)
    rounds = []  # one dict per round, None for a round that failed
    spans = []
    try:
        setup_raw_s, setup_s = (None, None) if trace else wl.setup_seconds(src)
        deadline = time.perf_counter() + seconds
        # Round 0 warms up (allocator, lazy imports) on instance 0 and is not
        # timed; round 1 repeats instance 0, so every run compares a repeat.
        # Untraced, the rounds then take the instances in turn, each once,
        # until every instance has had a round and the time is up. Traced,
        # each instance runs twice back to back and the second is traced,
        # which pairs every traced round with an untraced one on the same
        # input under the same load on the host.
        ref_before = reference_seconds()
        while (len(rounds) <= max(wl.instances, 2)
               or time.perf_counter() < deadline):
            i = len(rounds)
            step = (i - 1) // 2 if trace else i - 1
            instance = step % wl.instances if i else 0
            traced = bool(trace) and i > 0 and i % 2 == 0
            tracer = Tracer(package) if traced else None
            attempted = calls.attempted
            if tracer:
                tracer.install()
            try:
                wall_s, episodes, episode_s = wl.round(calls, instance)
            except CallFailed:
                rounds.append(None)
                continue
            finally:
                if tracer:
                    tracer.restore()
            ref_after = reference_seconds()
            ref_s = (ref_before + ref_after) / 2
            ref_before = ref_after
            entry = {"input_seed": wl.input_seed, "warmup": i == 0,
                     "traced": traced, "wall_s": wall_s, "ref_s": ref_s,
                     "wall_ref": wall_s / ref_s,
                     "episodes_per_s": episodes / episode_s,
                     "episodes_per_ref": episodes * ref_s / episode_s,
                     "run_csv_sha256": wl.outputs.get("run_csv_sha256")}
            if tracer:
                entry["layers"] = layer_metrics(tracer, wall_s, wl,
                                                calls.attempted - attempted)
                spans.append(tracer.spans)
            rounds.append(entry)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    done = [r for r in rounds if r is not None]
    plain = [r for r in done if not r["traced"] and not r["warmup"]]
    # (untraced, traced) rounds on the same instance, back to back.
    pairs = [(u, t) for u, t in zip(rounds[1::2], rounds[2::2])
             if trace and u and t]

    def median(rows, key):
        return statistics.median(r[key] for r in rows)

    metrics = {}
    info = {}
    if plain:
        info = {k: median(plain, k) for k in ("wall_s", "episodes_per_s", "ref_s")}
        info["timed_rounds"] = len(plain)
    if setup_raw_s is not None:
        info["setup_raw_s"] = setup_raw_s
    if not trace and plain:
        metrics = {
            "wall_ref": median(plain, "wall_ref"),
            "episodes_per_ref": median(plain, "episodes_per_ref"),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    elif pairs:
        for name in LAYER_UNITS:
            if not name.startswith("trace.overhead"):
                metrics[name] = median([t["layers"] for _, t in pairs], name)
        metrics["trace.overhead_frac"] = statistics.median(
            t["wall_ref"] / u["wall_ref"] - 1 for u, t in pairs)
        metrics["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in pairs)
        units = LAYER_UNITS
    correct = bool(metrics) and calls.failed == 0
    result = {
        "correct": correct,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()} if metrics else {},
    }
    record = {
        "workload": workload_name, "seed": seed, "trace": int(bool(trace)),
        "rounds": len(rounds), "failed_rounds": len(rounds) - len(done),
        "round_list": [{k: r[k] for k in ("input_seed", "warmup", "traced",
                                           "wall_s", "ref_s", "run_csv_sha256")}
                       for r in done],
        "medians": info, "outputs": wl.outputs, "problems": calls.problems,
        "env": {
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(root),
            "threads": {v: os.environ[v] for v in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }
    return result, record, spans


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    result, record, spans = run(args.workload, args.seed, args.seconds,
                                args.trace, root=root)
    if spans:
        path = root / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "call"],
                       "rounds": spans}, f)
        record["trace_file"] = str(path.relative_to(root))
    print("record " + json.dumps(record, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    units = {"wall_s": "s", "episodes_per_s": "1/s", "ref_s": "s",
             "timed_rounds": "count", "setup_raw_s": "s"}
    for name, value in record["medians"].items():
        print(f"measured {name} {value:.6g} {units[name]}")
    print(f"measured fail_frac {result['failed'] / result['attempted']:.6g} "
          f"frac ({result['failed']}/{result['attempted']} CLI calls)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
