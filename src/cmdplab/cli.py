"""Command-line front end.

Subcommands: ``generate`` (instance files), ``solve`` (ground truth),
``train`` (online run + report), ``evaluate`` (Monte-Carlo vs exact values of
a saved policy), ``report`` (re-render charts from a run directory), and
``suite`` (the full acceptance battery). Train options may come from a JSON
config file; explicit flags override file values. Exit code is nonzero iff a
requested verdict or check fails; a subcommand that fails on bad input, an
unreadable file, an allocation it cannot make or a degenerate instance
exits with one line, ``cmdplab <command>: <message>``.
"""

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict

from .acceptance import run_checks
from .core import (
    _float_field,
    _int_field,
    _mixture_json,
    load_instance,
    load_policy,
    save_instance,
    save_policy,
    slater_constant,
)
from .generate import GenSpec, generate, preset, preset_names
from .harness import (
    check_final_policy,
    compute_metrics,
    emit_report,
    evaluate_mixture,
    read_run_csv,
    render_charts,
    require_feasible,
)
from .learner import RELAXED, STRICT, derive_config, run_learner
from .simulate import monte_carlo_value
from .solver import DegenerateInstanceError, solve_cmdp_exact


def _finite(x):
    x = float(x)
    return x if math.isfinite(x) else None


def _emit(obj):
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _load_env(args):
    if args.preset and args.instance:
        raise ValueError("pass either --preset or --instance, not both")
    if args.preset:
        return preset(args.preset)
    if args.instance:
        return load_instance(args.instance)
    raise ValueError("an instance is required: --preset NAME or --instance FILE")


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_generate(args) -> int:
    if args.preset:
        m = preset(args.preset)
    else:
        m = generate(GenSpec(args.S, args.A, args.H, zeta_target=args.zeta,
                             dirichlet_alpha=args.alpha, seed=args.seed))
    digest = save_instance(m, args.out)
    zeta, _ = slater_constant(m)
    _emit({
        "path": args.out,
        "hash": digest,
        "S": m.num_states, "A": m.num_actions, "H": m.horizon,
        "budget": m.budget,
        "zeta": zeta,
    })
    return 0


def cmd_solve(args) -> int:
    m = _load_env(args)
    sol = solve_cmdp_exact(m, tol=args.tol)
    out = {
        "status": sol.status,
        "optimal_value": _finite(sol.optimal_value),
        "optimal_cost": _finite(sol.optimal_cost),
        "lambda_star": _finite(sol.lambda_star),
        "policy": _mixture_json(sol.policy, m) if sol.policy else None,
    }
    _emit(out)
    return 0


# long option name -> (type of a config-file value, default)
_TRAIN_OPTIONS = {
    "mode": (str, RELAXED), "epsilon": (float, None), "delta": (float, 0.1),
    "episodes": (int, None), "iters": (int, None), "dual_cap": (float, None),
    "grid_step": (float, None), "bonus_scale": (float, 1.0), "seed": (int, 0),
    "timing": (bool, False),
}


def _merge_train_options(args):
    """Flag > config-file > default, keyed by the long option names. The file
    holds a JSON object; integers and numbers are read like instance fields,
    and a string or boolean option takes only a JSON string or boolean."""
    from_file = {}
    if args.config:
        with open(args.config) as f:
            try:
                doc = json.load(f)
            except (ValueError, RecursionError) as e:  # RecursionError: nested too deep
                raise ValueError(f"malformed config file {args.config}: {e}") from e
        if not isinstance(doc, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = set(doc) - set(_TRAIN_OPTIONS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, x in doc.items():
            kind = _TRAIN_OPTIONS[key][0]
            if kind in (int, float):
                from_file[key] = (_int_field if kind is int else _float_field)(doc, key)
            elif type(x) is kind:
                from_file[key] = x
            else:
                raise ValueError(f"field {key!r} must be a JSON "
                                 f"{'boolean' if kind is bool else 'string'}, got {x!r}")
    merged = {}
    for key, (_, default) in _TRAIN_OPTIONS.items():
        flag = getattr(args, key)
        merged[key] = flag if flag is not None else from_file.get(key, default)
    return merged


def cmd_train(args) -> int:
    m = _load_env(args)
    opt = _merge_train_options(args)
    if opt["epsilon"] is None:
        raise ValueError("--epsilon is required (flag or config file)")
    cfg = derive_config(
        opt["mode"], opt["epsilon"], opt["delta"], m, bonus_scale=opt["bonus_scale"],
        episodes=opt["episodes"], iters=opt["iters"],
        dual_cap=opt["dual_cap"], grid_step=opt["grid_step"])
    exact = solve_cmdp_exact(m)
    require_feasible(m, exact)  # before the learner runs or a file is written
    res = run_learner(m, cfg, seed=opt["seed"], measure_time=opt["timing"])
    record = compute_metrics(m, exact, res.episodes, config=cfg, seed=opt["seed"])
    verdict = check_final_policy(m, exact, res.final_policy,
                                 opt["epsilon"], opt["mode"])
    paths = emit_report(record, args.out, verdicts=[verdict],
                        charts=not args.no_charts)
    policy_path = os.path.join(args.out, "policy.json")
    save_policy(res.final_policy, m, policy_path)
    paths["policy.json"] = policy_path
    _emit({
        "paths": paths,
        **record.totals(),
        "verdict": {k: v for k, v in asdict(verdict).items() if k != "epsilon"},
    })
    return 0 if verdict.passed else 1


def cmd_evaluate(args) -> int:
    m = _load_env(args)
    mix = load_policy(args.policy, m)
    est = monte_carlo_value(m, mix, episodes=args.episodes, seed=args.seed)
    dp_r, dp_c = evaluate_mixture(m, mix)
    _emit({
        "dp_reward": dp_r,
        "dp_cost": dp_c,
        "mc": est,
        "z_reward": (est["reward_mean"] - dp_r) / max(est["reward_se"], 1e-12),
        "z_cost": (est["cost_mean"] - dp_c) / max(est["cost_se"], 1e-12),
        "episodes": args.episodes,
    })
    return 0


def cmd_report(args) -> int:
    rows = read_run_csv(os.path.join(args.run_dir, "run.csv"))
    paths = render_charts(*zip(*((r.k, r.regret_cum, r.cv_cum) for r in rows)), args.run_dir)
    _emit({"paths": paths, "rows": len(rows)})
    return 0


def cmd_suite(args) -> int:
    results = run_checks(args.only or None)
    for r in results:
        print(r.line())
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed: "
              f"{', '.join(failed)}")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


# ---------------------------------------------------------------------------
# Parser.


@functools.cache  # built once per process, however often main runs
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cmdplab",
        description="Tabular constrained-MDP laboratory: generate, solve, "
                    "train, evaluate, report, suite.")
    sub = p.add_subparsers(dest="command", required=True)

    names = sorted(preset_names())
    env = argparse.ArgumentParser(add_help=False)  # the instance of solve, train, evaluate
    env.add_argument("--instance")
    env.add_argument("--preset", choices=names)

    g = sub.add_parser("generate", help="write an instance JSON file")
    g.add_argument("--preset", choices=names)
    g.add_argument("--S", type=int, default=3)
    g.add_argument("--A", type=int, default=2)
    g.add_argument("--H", type=int, default=3)
    g.add_argument("--zeta", type=float, default=0.5,
                   help="exact Slater constant to pin")
    g.add_argument("--alpha", type=float, default=1.0,
                   help="Dirichlet concentration for kernel rows")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="instance.json")
    g.set_defaults(fn=cmd_generate)

    s = sub.add_parser("solve", parents=[env], help="exact solve; prints JSON")
    s.add_argument("--tol", type=float, default=1e-8)
    s.set_defaults(fn=cmd_solve)

    t = sub.add_parser("train", parents=[env], help="online primal-dual run plus report")
    t.add_argument("--config", help="JSON file with train options; "
                                    "flags override file values")
    t.add_argument("--mode", choices=(RELAXED, STRICT), default=None)
    t.add_argument("--epsilon", type=float, default=None)
    t.add_argument("--delta", type=float, default=None)
    t.add_argument("--episodes", "-K", type=int, default=None)
    t.add_argument("--iters", "-T", type=int, default=None)
    t.add_argument("--dual-cap", type=float, default=None)
    t.add_argument("--grid-step", type=float, default=None)
    t.add_argument("--bonus-scale", type=float, default=None)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--timing", action="store_true", default=None,
                   help="record wall times (breaks byte-reproducibility)")
    t.add_argument("--out", default="run_out")
    t.add_argument("--no-charts", action="store_true")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("evaluate", parents=[env], help="Monte-Carlo check of a saved policy")
    e.add_argument("--policy", required=True)
    e.add_argument("--episodes", type=int, default=20_000)
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(fn=cmd_evaluate)

    r = sub.add_parser("report", help="re-render charts from run.csv")
    r.add_argument("--run-dir", required=True)
    r.set_defaults(fn=cmd_report)

    u = sub.add_parser("suite", help="run the acceptance battery")
    u.add_argument("--only", nargs="*", metavar="CHECK",
                   help="subset of check names (default: all)")
    u.set_defaults(fn=cmd_suite)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, MemoryError, DegenerateInstanceError) as e:
        raise SystemExit(f"cmdplab {args.command}: {e}") from e


if __name__ == "__main__":
    sys.exit(main())
