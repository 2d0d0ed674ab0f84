"""Time the learner on generated instances at derived K and T.

Each run generates a 10 x 4 x 8 instance (budget slack zeta = 0.5) from one
instance seed, derives K and T for relaxed mode at epsilon = 1 and
delta = 0.1 with derive_config (or takes -K / -T), and runs run_learner with
learner seed 0 once in a fresh process. It prints one line per run: wall
seconds of run_learner, the backward sweeps of its Lagrangian backups and
the multipliers they priced (a batched sweep prices several), the episodes
that replanned, the episodes drawn one at a time (sample_mixture_episode
calls; the others were drawn in replay blocks), the metrics seconds
(compute_metrics plus the final verdict, starting from the instance's empty
prices, after an untimed exact solve), and the process's peak resident
memory (ru_maxrss, which includes the interpreter and numpy). Runs go one
after another, so their times do not compete.

Usage: python3 scripts/learner_timing.py [--seeds 1 4] [--bonus-scales 0 1]
           [-K episodes] [-T iters]
"""

import argparse
import multiprocessing
import resource
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

import cmdplab.learner as learner
from cmdplab import (GenSpec, check_final_policy, compute_metrics, derive_config,
                     generate, run_learner, solve_cmdp_exact)

DIMS, ZETA = (10, 4, 8), 0.5
MODE, EPSILON, DELTA = "relaxed", 1.0, 0.1
LEARNER_SEED = 0


def one_run(instance_seed, bonus_scale, episodes, iters):
    """One timed run_learner call; meant for a fresh process of its own."""
    m = generate(GenSpec(*DIMS, zeta_target=ZETA, seed=instance_seed))
    cfg = derive_config(MODE, EPSILON, DELTA, m, bonus_scale=bonus_scale,
                        episodes=episodes, iters=iters)
    backup, sizes = learner.lagrangian_greedy_backup, []
    sample, samples = learner.sample_mixture_episode, []

    def counted(*args):
        sizes.append(np.size(args[1]))  # the multipliers of this sweep
        return backup(*args)

    def counted_sample(*args):
        samples.append(1)
        return sample(*args)

    learner.lagrangian_greedy_backup = counted
    learner.sample_mixture_episode = counted_sample
    t0 = time.perf_counter()
    res = run_learner(m, cfg, LEARNER_SEED)
    seconds = time.perf_counter() - t0
    replans = len(res.episodes)  # one log per replan
    exact = solve_cmdp_exact(m)
    t0 = time.perf_counter()
    compute_metrics(m, exact, res.episodes, cfg, LEARNER_SEED)
    check_final_policy(m, exact, res.final_policy, EPSILON, MODE)
    metrics_s = time.perf_counter() - t0
    return {"K": cfg.episodes, "T": cfg.iters, "seconds": seconds,
            "sweeps": len(sizes), "multipliers": sum(sizes), "replans": replans,
            "one_at_a_time": len(samples), "metrics_s": metrics_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 4],
                    help="instance seeds")
    ap.add_argument("--bonus-scales", type=float, nargs="+", default=[0.0, 1.0])
    ap.add_argument("--episodes", "-K", type=int, default=None,
                    help="override the derived K")
    ap.add_argument("--iters", "-T", type=int, default=None,
                    help="override the derived T")
    args = ap.parse_args()

    print(f"{MODE} eps={EPSILON:g} {'x'.join(map(str, DIMS))} "
          f"zeta={ZETA} learner seed {LEARNER_SEED}")
    print(f"{'seed':>5} {'bonus':>6} {'K':>7} {'T':>8} {'seconds':>8} "
          f"{'sweeps':>8} {'multipliers':>11} {'replans':>8} {'one_at_a_time':>13} "
          f"{'metrics_s':>9} {'peak_rss_mb':>11}")
    spawn = multiprocessing.get_context("spawn")
    for seed in args.seeds:
        for bonus in args.bonus_scales:
            with ProcessPoolExecutor(1, mp_context=spawn) as pool:
                r = pool.submit(one_run, seed, bonus, args.episodes,
                                args.iters).result()
            print(f"{seed:>5} {bonus:>6g} {r['K']:>7} {r['T']:>8} "
                  f"{r['seconds']:>8.2f} {r['sweeps']:>8} {r['multipliers']:>11} "
                  f"{r['replans']:>8} {r['one_at_a_time']:>13} {r['metrics_s']:>9.3f} "
                  f"{r['peak_rss_mb']:>11.1f}",
                  flush=True)


if __name__ == "__main__":
    main()
