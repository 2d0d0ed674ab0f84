"""Spans at cmdplab's module boundaries, recorded from outside the package.

A Tracer replaces a module attribute (the binding a caller actually looks
up, e.g. ``cmdplab.learner.lagrangian_greedy_backup`` for the learner's own
calls) with a wrapper that appends one span per call: name, start, end,
parent span index and the id of the CLI call it belongs to. Spans stay in
memory until the benchmark writes them out. ``restore`` puts every original
binding back, so untraced rounds run the unmodified program.
"""

from __future__ import annotations

import functools
import statistics
import time

# (module attribute path, span name). The span name is "<layer>.<function>";
# the same function reached through several bindings shares one name.
BINDINGS = (
    ("cli.main", "cli.main"),
    ("cli.generate", "generate.generate"),
    ("cli.preset", "generate.preset"),
    ("cli.load_instance", "core.load_instance"),
    ("cli.solve_cmdp_exact", "solver.solve_cmdp_exact"),
    ("cli.compute_metrics", "harness.compute_metrics"),
    ("cli.check_final_policy", "harness.check_final_policy"),
    ("cli.emit_report", "harness.emit_report"),
    ("cli.monte_carlo_value", "simulate.monte_carlo_value"),
    ("learner.primal_dual_episode", "learner.primal_dual_episode"),
    ("learner.lagrangian_greedy_backup", "learner.lagrangian_greedy_backup"),
    ("learner.record_transition", "learner.record_transition"),
    ("learner.sample_mixture_episode", "simulate.sample_mixture_episode"),
    ("solver.dual_value", "solver.dual_value"),
    ("solver.evaluate_policy", "core.evaluate_policy"),
    ("solver.greedy_backup", "core.greedy_backup"),
    ("core.evaluate_policy", "core.evaluate_policy"),
    ("core.greedy_backup", "core.greedy_backup"),
    ("harness.evaluate_policy", "core.evaluate_policy"),
)


class Tracer:
    """Install span-recording wrappers on cmdplab's module bindings."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start, end, parent index or -1, call id]
        self.episode_ms = []  # learner wall_ms of every traced episode
        self.final_components = 0
        self.final_distinct = 0
        self._stack = []
        self._call_id = 0
        self._saved = []

    def install(self):
        import importlib

        mods = {name: importlib.import_module(f"{self.package.__name__}.{name}")
                for name in ("cli", "core", "harness", "learner", "solver")}
        cli = mods["cli"]
        self._set(cli, "run_learner", self._timed_run_learner(cli.run_learner))
        self._wrap(cli, "run_learner", "learner.run_learner")
        for path, span_name in BINDINGS:
            mod, attr = path.split(".")
            self._wrap(mods[mod], attr, span_name)

    def restore(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _set(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _wrap(self, module, attr, name):
        original = getattr(module, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not stack:
                self._call_id += 1
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1, self._call_id])
            stack.append(idx)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        self._set(module, attr, traced)

    def _timed_run_learner(self, run_learner):
        """Run the learner with its own per-episode timer on, keep the
        timings here and zero them in the result unless the caller asked for
        them, so the report files stay byte-identical to an untraced run."""

        def timed(*args, measure_time=False, **kwargs):
            res = run_learner(*args, measure_time=True, **kwargs)
            self.episode_ms.extend(log.wall_ms for log in res.episodes)
            if not measure_time:
                for log in res.episodes:
                    log.wall_ms = 0.0
            comps = res.final_policy.components
            self.final_components = len(comps)
            self.final_distinct = len({p.rule.tobytes() for _, p in comps})
            return res

        return timed

    def totals(self):
        """{span name: (calls, total seconds, self seconds, [durations])}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, total, self_s, durs = out.get(name, (0, 0.0, 0.0, []))
            durs.append(end - start)
            out[name] = (calls + 1, total + end - start,
                         self_s + end - start - child[i], durs)
        return out


def percentile(values, q):
    """q-th percentile (0 < q < 100) by statistics.quantiles, 0.0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
