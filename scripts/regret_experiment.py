"""Regret and constraint-violation growth over increasing horizons K.

Runs the online learner on a preset (or a generated random instance with
--random) at several episode budgets and prints cumulative regret and
constraint violation per run together with the regret / sqrt(K) ratio
(which should fall for a sqrt-K method once the model resolves the value
gaps). The largest run is written out as a full report directory
(run.csv, summary.json, charts).

The default bonus scale is 0.1: at full scale the concentration constants
are so conservative that every Q-value clips at H until n is far beyond
demo-sized episode counts, and the planner cannot differentiate policies.
Scaling the bonus down preserves the algorithm and shows its behavior at
budgets a laptop can run.

Note the relaxed objective tolerates cost up to b + epsilon, so once the
learner starts exploiting reward the cv column can grow while the final
verdict still passes; strict mode (not run here) shifts the budget down
to keep the averaged policy at or below b itself.

Usage: python3 scripts/regret_experiment.py [--out runs/regret_demo]
"""

import argparse
import math

from cmdplab import (GenSpec, check_final_policy, compute_metrics,
                     derive_config, emit_report, generate, preset,
                     run_learner, slater_constant, solve_cmdp_exact)


def one_run(m, exact, epsilon, episodes, iters, scale, seed):
    cfg = derive_config("relaxed", epsilon, 0.1, m, episodes=episodes,
                        iters=iters, bonus_scale=scale)
    res = run_learner(m, cfg, seed=seed)
    rec = compute_metrics(m, exact, res.episodes, config=cfg, seed=seed)
    return cfg, res, rec, rec.totals()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--preset", default="two_state_chain")
    ap.add_argument("--random", action="store_true",
                    help="generate a random instance instead of the preset")
    ap.add_argument("--S", type=int, default=3)
    ap.add_argument("--A", type=int, default=2)
    ap.add_argument("--H", type=int, default=3)
    ap.add_argument("--zeta", type=float, default=0.5)
    ap.add_argument("--epsilon", type=float, default=1.0)
    ap.add_argument("--iters", type=int, default=50)
    ap.add_argument("--bonus-scale", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budgets", type=int, nargs="*",
                    default=[500, 1000, 2000, 4000, 8000])
    ap.add_argument("--out", default="runs/regret_demo")
    args = ap.parse_args()

    if args.random:
        m = generate(GenSpec(args.S, args.A, args.H, zeta_target=args.zeta,
                             seed=args.seed))
        name = f"random(S={args.S}, A={args.A}, H={args.H})"
    else:
        m = preset(args.preset)
        name = args.preset
    exact = solve_cmdp_exact(m)
    zeta, _ = slater_constant(m)
    print(f"instance: {name} zeta={zeta:.4f} "
          f"V*={exact.optimal_value:.4f} b={m.budget}")
    print(f"{'K':>6} {'regret':>10} {'cv':>10} {'regret/sqrt(K)':>15} "
          f"{'updates':>8}")

    final = None
    for k in args.budgets:
        cfg, res, rec, totals = one_run(m, exact, args.epsilon, k, args.iters,
                                        args.bonus_scale, args.seed)
        print(f"{k:>6} {totals['regret']:>10.3f} {totals['cv']:>10.3f} "
              f"{totals['regret'] / math.sqrt(k):>15.3f} "
              f"{totals['model_updates']:>8}")
        final = (cfg, res, rec)

    cfg, res, rec = final
    verdict = check_final_policy(m, exact, res.final_policy, args.epsilon,
                                 "relaxed")
    paths = emit_report(rec, args.out, verdicts=[verdict])
    tag = "PASS" if verdict.passed else "FAIL"
    print(f"\n[{tag}] final mixture: V_r={verdict.v_r:.4f} "
          f"(floor {verdict.reward_floor:.4f}), V_c={verdict.v_c:.4f} "
          f"(cap {verdict.cost_cap:.4f})")
    print("report written to:")
    for name in sorted(paths):
        print(f"  {paths[name]}")


if __name__ == "__main__":
    main()
