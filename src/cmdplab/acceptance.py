"""Battery of end-to-end checks covering the solver, learner, and harness.

Each check is declared once, as a ``@_budget`` check_* function; the CLI
``suite`` subcommand and the test suite both dispatch through ``run_checks``
so there is a single source of truth for what "working" means. Checks pin
their own seeds and instance sizes and enforce a wall-clock budget, so the
battery is deterministic and bounded end to end.
"""

import filecmp
import functools
import itertools
import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .core import MixturePolicy, Policy, evaluate_policy, slater_constant
from .generate import GenSpec, generate, preset
from .harness import (check_final_policy, compute_metrics, emit_report,
                      evaluate_mixture)
from .learner import (
    EmpiricalModel,
    LearnerConfig,
    derive_config,
    grid_index,
    lagrangian_greedy_backup,
    policy_value_bounds,
    record_transition,
    run_learner,
)
from .simulate import monte_carlo_value
from .solver import brute_force_cmdp, solve_cmdp_exact


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one acceptance check."""

    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: {self.detail} ({self.seconds:.1f}s)"


_REGISTRY = {}  # check name -> check, in definition order


def _budget(budget_s):
    """Make a check of fn, which returns (ok, detail): the check is named
    after fn (check_grid_rounding -> grid-rounding), fails when it takes
    budget_s or longer, and joins the battery."""

    def register(fn):
        name = fn.__name__.removeprefix("check_").replace("_", "-")

        @functools.wraps(fn)
        def check():
            t0 = time.perf_counter()
            ok, detail = fn()
            dt = time.perf_counter() - t0
            if dt >= budget_s:
                ok = False
                detail += f"; exceeded {budget_s:.0f}s budget"
            return CheckResult(name, ok, detail, dt)

        _REGISTRY[name] = check
        return check
    return register


def _small_instances(n, dims, zetas, seed0=0):
    """Deterministic stream of generated instances cycling dims and zeta."""
    return [generate(GenSpec(*dims[i % len(dims)], zeta_target=zetas[i % len(zetas)],
                             seed=seed0 + i)) for i in range(n)]


@_budget(10.0)
def check_solver_oracle_equivalence():
    """Bisection solver matches brute-force enumeration on small instances."""
    dims = [(1, 2, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2)]
    worst = 0.0
    for m in _small_instances(100, dims, (0.2, 0.35, 0.5)):
        ref = brute_force_cmdp(m)
        got = solve_cmdp_exact(m)
        gap = abs(got.optimal_value - ref.optimal_value)
        worst = max(worst, gap)
        if gap > 1e-6:
            return False, f"value gap {gap:.3e} > 1e-6"
        if got.optimal_cost > m.budget + 1e-6:
            return False, f"cost {got.optimal_cost} > b + 1e-6"
    return True, f"100 instances, worst value gap {worst:.2e}"


@_budget(60.0)
def check_mc_dp_agreement():
    """Monte-Carlo mixture returns agree with backward-induction values."""
    dims = [(2, 2, 2), (3, 2, 2), (2, 2, 3)]
    worst = 0.0
    for i, m in enumerate(_small_instances(20, dims, (0.3, 0.5), seed0=40)):
        acts = np.random.default_rng(1000 + i).integers(
            0, m.num_actions, size=(2, m.horizon, m.num_states))
        mix = MixturePolicy(((0.65, Policy.from_actions(acts[0], m.num_actions)),
                             (0.35, Policy.from_actions(acts[1], m.num_actions))))
        est = monte_carlo_value(m, mix, episodes=100_000, seed=2000 + i)
        for label, truth in zip(("reward", "cost"), evaluate_mixture(m, mix)):
            z = abs(est[f"{label}_mean"] - truth) / max(est[f"{label}_se"], 1e-12)
            worst = max(worst, z)
            if z > 4.0:
                return False, f"{label} off by {z:.2f} SE on instance {i}"
    return True, f"20 instances, worst deviation {worst:.2f} SE"


@_budget(60.0)
def check_dual_regret_bound():
    """Averaged dual regret stays under the deterministic ascent bound."""
    m = preset("two_state_chain")
    worst = -math.inf
    for mode in ("relaxed", "strict"):
        cfg = derive_config(mode, 0.5 * m.horizon, 0.1, m,
                            bonus_scale=0.0, episodes=200, iters=100)
        bound = (2.0 * cfg.grid_step * m.horizon * math.sqrt(cfg.iters)
                 + cfg.dual_cap * m.horizon / math.sqrt(cfg.iters))
        b_prime = cfg.b_prime(m.budget)
        res = run_learner(m, cfg, seed=17)
        for ep in res.episodes:
            lam, vc = ep.walk.trace(ep.walk.lam), ep.walk.trace(ep.walk.vc)
            for lam_ref in (0.0, cfg.dual_cap):
                val = float(np.mean((lam - lam_ref) * (b_prime - vc)))
                worst = max(worst, val - bound)
                if val > bound + 1e-12:
                    return False, (f"{mode} episode {ep.episode}: "
                                   f"{val:.4f} > bound {bound:.4f}")
    return True, f"both modes, max slack used {worst:.3f} (<= 0)"


@_budget(60.0)
def check_doubling_epochs():
    """Model rebuild count and batch growth follow the doubling schedule."""
    m = preset("two_state_chain")
    cfg = derive_config("relaxed", 0.5 * m.horizon, 0.1, m,
                        bonus_scale=0.1, episodes=1024, iters=10)
    res = run_learner(m, cfg, seed=5)
    cap = m.num_states * m.num_actions * m.horizon * 11
    total = res.episodes[-1].model_updates_cum
    if total > cap:
        return False, f"{total} model updates > bound {cap}"
    model = res.model
    for key in map(tuple, np.argwhere(model.total).tolist()):
        # replay the pair's visits on a one-pair model, reading the batch
        # behind its row after each rebuild
        replay = EmpiricalModel.empty(np.zeros((2, 1, 1, 1)), cfg)
        sizes = [int(replay.batch_size[0, 0, 0])
                 for _ in range(int(model.total[key]))
                 if record_transition(replay, 0, 0, 0, 0)]
        want = [1] + [2 ** i for i in range(len(sizes) - 1)]
        if sizes != want:
            return False, f"batch sizes {sizes} at {key} not doubling"
        if (model.epochs[key], model.batch_size[key]) != (len(sizes), sizes[-1]):
            return False, (f"{key}: {model.epochs[key]} rebuilds, last batch "
                           f"{model.batch_size[key]}; the replay gives "
                           f"{len(sizes)}, {sizes[-1]}")
    return True, f"{total} updates <= {cap}, all batches 1,1,2,4,..."


@_budget(300.0)
def check_optimism_frequency():
    """Bonus-padded values bracket the true ones in almost every trial."""
    m = generate(GenSpec(3, 2, 3, zeta_target=0.5, seed=7))
    cfg = LearnerConfig.make(
        num_states=3, num_actions=2, horizon=3, episodes=200, iters=1,
        dual_cap=1.0, grid_step=0.5, delta=0.1, mode="relaxed", shift=0.0)
    ref = Policy(np.random.default_rng(99).dirichlet(np.ones(2), size=(3, 3)))
    s1 = m.initial_state
    vr_true, vc_true = evaluate_policy(m.transition, m.stages, ref)[:, 0, s1]
    n = 512
    hits = 0
    for trial in range(200):
        # one multinomial batch of n per (h, s, a) row, drawn in row order
        draws = np.random.default_rng(3000 + trial).multinomial(n, m.transition)
        model = EmpiricalModel.from_kernel(draws / n, m.stages, cfg, batch_size=n)
        vr_hat, vc_hat = policy_value_bounds(model, ref)[:, 0, s1]
        if vr_hat >= vr_true - 1e-12 and vc_hat <= vc_true + 1e-12:
            hits += 1
    if hits < 198:
        return False, f"optimism held in only {hits}/200 trials"
    return True, f"optimism held in {hits}/200 trials"


@_budget(60.0)
def check_dual_variable_bounds():
    """Shadow prices stay under H/zeta and iterates never escape the grid."""
    worst = 0.0
    for i, m in enumerate(_small_instances(50, [(3, 2, 3)], (0.5,), seed0=500)):
        zeta, _ = slater_constant(m)
        sol = solve_cmdp_exact(m)
        cap = m.horizon / zeta
        worst = max(worst, sol.lambda_star)
        if sol.lambda_star > cap + 1e-8:
            return False, f"lambda* {sol.lambda_star:.4f} > H/zeta {cap}"
        cfg = derive_config("relaxed", 0.5 * m.horizon, 0.1, m,
                            bonus_scale=0.0, episodes=20, iters=20)
        res = run_learner(m, cfg, seed=i)
        for ep in res.episodes:
            lam = np.asarray(ep.walk.lam)  # the distinct iterates
            if np.any(lam < -1e-15) or np.any(lam > cfg.dual_cap + 1e-15):
                return False, f"dual iterate escaped [0, U] on seed {i}"
            steps = lam / cfg.grid_step
            if np.max(np.abs(steps - np.round(steps))) > 1e-9:
                return False, f"dual iterate off the grid on seed {i}"
    return True, f"50 instances, max lambda* {worst:.3f} <= 6"


@_budget(60.0)
def check_greedy_backup_exactness():
    """Stagewise greedy planning matches exhaustive policy enumeration."""
    worst = 0.0
    cfg = LearnerConfig.make(
        num_states=2, num_actions=2, horizon=2, episodes=10, iters=10,
        dual_cap=2.0, grid_step=0.5, delta=0.1, mode="relaxed",
        shift=0.0, bonus_scale=0.0)
    for i, m in enumerate(_small_instances(50, [(2, 2, 2)], (0.3, 0.5), seed0=700)):
        model = EmpiricalModel.from_kernel(m.transition, m.stages, cfg, batch_size=4)
        for lam in (0.0, 0.5, cfg.dual_cap):
            _, v = lagrangian_greedy_backup(model, [lam])
            vr, vc = v[0, :, 0, m.initial_state]
            got = vr - lam * vc
            best = -math.inf
            for acts in itertools.product(
                    range(m.num_actions),
                    repeat=m.horizon * m.num_states):
                table = np.asarray(acts).reshape(m.horizon, m.num_states)
                pol = Policy.from_actions(table, m.num_actions)
                evr, evc = policy_value_bounds(model, pol)[:, 0, m.initial_state]
                best = max(best, evr - lam * evc)
            gap = abs(got - best)
            worst = max(worst, gap)
            if gap > 1e-9:
                return False, (f"greedy vs enumeration gap {gap:.2e} "
                               f"at lambda={lam} seed={700 + i}")
    return True, f"50 instances x 3 lambdas, worst gap {worst:.1e}"


@_budget(600.0)
def check_convergence_trend():
    """Scaled end-to-end run: regret falls and both verdicts hold."""
    m = preset("two_state_chain")
    exact = solve_cmdp_exact(m)
    eps = 0.5 * m.horizon
    k = 5000
    tenth = k // 10

    cfg = derive_config("relaxed", eps, 0.1, m,
                        bonus_scale=0.1, episodes=k, iters=50)
    res = run_learner(m, cfg, seed=11)
    rec = compute_metrics(m, exact, res.episodes, config=cfg, seed=11)
    reg = np.array([row.regret_cum for row in rec.rows])
    per = np.diff(np.concatenate([[0.0], reg]))
    first, last = per[:tenth].mean(), per[-tenth:].mean()
    if not last < 0.5 * first:
        return False, f"regret trend {first:.3f} -> {last:.3f} not halved"
    verdict = check_final_policy(m, exact, res.final_policy, eps,
                                 "relaxed")
    if not verdict.passed:
        return False, (f"relaxed verdict failed: V_r={verdict.v_r:.4f} "
                       f"V_c={verdict.v_c:.4f}")

    cfg_s = derive_config("strict", eps, 0.1, m,
                          bonus_scale=0.1, episodes=k, iters=50)
    res_s = run_learner(m, cfg_s, seed=11)
    _, vc_final = evaluate_mixture(m, res_s.final_policy)
    cap = m.budget + 0.05 * m.horizon
    if vc_final > cap:
        return False, f"strict final V_c {vc_final:.4f} > {cap:.4f}"
    return True, (f"regret/ep {first:.3f} -> {last:.3f}, relaxed verdict "
                  f"ok, strict V_c {vc_final:.4f} <= {cap:.4f}")


@_budget(5.0)
def check_grid_rounding():
    """Exhaustive scan of the dual projection: half-step error, hard clamps."""
    step, cap = 1.0 / 64.0, 2.0
    rng = np.random.default_rng(0)
    lam = rng.uniform(-0.5, cap + 0.5, size=100_000)
    worst = 0.0
    for x in lam:
        r = grid_index(float(x), step, cap) * step
        if x < 0.0:
            ok = r == 0.0
        elif x > cap:
            ok = r == cap
        else:
            err = abs(r - x)
            worst = max(worst, err)
            ok = err <= step / 2.0 + 1e-15
        if not ok:
            return False, f"rounding violated at lambda={x!r} -> {r!r}"
    return True, f"100000 points, worst in-range error {worst:.6f}"


@_budget(60.0)
def check_reproducibility():
    """Identical instance, config, and seed give byte-identical run.csv."""
    m = preset("two_state_chain")
    exact = solve_cmdp_exact(m)
    cfg = derive_config("relaxed", 1.0, 0.1, m,
                        bonus_scale=0.1, episodes=200, iters=20)
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for rep in ("a", "b"):
            res = run_learner(m, cfg, seed=42)
            rec = compute_metrics(m, exact, res.episodes, config=cfg,
                                  seed=42)
            out = os.path.join(tmp, rep)
            emit_report(rec, out, charts=False)
            paths.append(os.path.join(out, "run.csv"))
        same = filecmp.cmp(paths[0], paths[1], shallow=False)
        size = os.path.getsize(paths[0])
    if not same:
        return False, "run.csv differs between identical runs"
    return True, f"byte-identical run.csv ({size} bytes)"


ALL_CHECKS = tuple(_REGISTRY.values())


def run_checks(names=None):
    """Run the battery, or each named check once in first-given order."""
    if names:
        missing = [n for n in names if n not in _REGISTRY]
        if missing:
            raise ValueError(f"unknown checks: {missing}; "
                             f"available: {sorted(_REGISTRY)}")
        picked = [_REGISTRY[n] for n in dict.fromkeys(names)]
    else:
        picked = ALL_CHECKS
    return [fn() for fn in picked]
