"""Watch the dual variable find the shadow price.

Runs the primal-dual learner on the two_state_chain preset with the
exploration bonus turned off, so once the (deterministic) transitions have
been observed the planner is exact and the only moving part is the dual
ascent. The episode-mean lambda should settle near the exact multiplier
lambda* = 0.5 and the averaged mixture's cost near the budget 0.6.

Usage: python3 scripts/dual_dynamics.py [--episodes 60] [--iters 400]
"""

import argparse

import numpy as np

from cmdplab import (LearnerConfig, evaluate_mixture, preset,
                     run_learner, solve_cmdp_exact)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--episodes", type=int, default=60)
    ap.add_argument("--iters", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    m = preset("two_state_chain")
    exact = solve_cmdp_exact(m)
    cfg = LearnerConfig.make(
        num_states=m.num_states, num_actions=m.num_actions, horizon=m.horizon,
        episodes=args.episodes, iters=args.iters, dual_cap=4.0,
        grid_step=1.0 / 256, delta=0.1, mode="relaxed", shift=0.0,
        bonus_scale=0.0)
    res = run_learner(m, cfg, seed=args.seed)

    print(f"instance: two_state_chain  V* = {exact.optimal_value:.4f}  "
          f"b = {m.budget}  lambda* = {exact.lambda_star:.4f}")
    print(f"{'episode':>8} {'mean lambda':>12} {'last lambda':>12} "
          f"{'mix cost':>10} {'mix reward':>11}")
    step = max(1, args.episodes // 12)
    for log in res.episodes:  # one per replan, played by episodes k of its range
        shown = [k for k in range(log.episode, log.episode + log.count)
                 if k % step == 0 or k == args.episodes - 1]
        if not shown:
            continue
        v_r, v_c = evaluate_mixture(m, log.mixture)
        lam = log.walk.trace(log.walk.lam)
        for k in shown:
            print(f"{k:>8} {lam.mean():>12.4f} "
                  f"{lam[-1]:>12.4f} {v_c:>10.4f} {v_r:>11.4f}")

    last = res.episodes[-1].walk
    lam_final = last.trace(last.lam).mean()
    v_r, v_c = evaluate_mixture(m, res.final_policy)
    print(f"\nfinal averaged mixture: V_r = {v_r:.4f} (V* = "
          f"{exact.optimal_value:.4f}), V_c = {v_c:.4f} (b = {m.budget})")
    print(f"episode-mean lambda = {lam_final:.4f} vs exact lambda* = "
          f"{exact.lambda_star:.4f} (gap {abs(lam_final - exact.lambda_star):.4f})")
    lam = np.array([x for log in res.episodes for x in log.walk.lam])
    grid = np.round(lam / cfg.grid_step)
    assert np.allclose(grid * cfg.grid_step, lam)
    print("all dual iterates sit on the grid, as they should")


if __name__ == "__main__":
    main()
