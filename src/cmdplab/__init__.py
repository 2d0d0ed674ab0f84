"""Tabular constrained-MDP laboratory.

Exact solving, model-based primal-dual online learning, and a measurement
harness for finite-horizon CMDPs with a single cost constraint.
"""

from .acceptance import CheckResult, run_checks
from .core import (MixturePolicy, Policy, TabularCmdp, Violation,
                   evaluate_policy, greedy_backup, instance_hash,
                   load_instance, load_policy, normalize_transition_rows,
                   save_instance, save_policy, slater_constant, validate_cmdp)
from .generate import GenSpec, GenerationError, generate, preset, preset_names
from .harness import (RunRecord, Row, Stretch, Verdict, check_final_policy,
                      compute_metrics, emit_report, evaluate_mixture,
                      read_run_csv, render_charts, write_run_csv)
from .learner import (RELAXED, STRICT, DualWalk, EmpiricalModel, EpisodeLog,
                      LearnerConfig, LearnerResult, compute_bonus,
                      derive_config, grid_index, lagrangian_greedy_backup,
                      policy_value_bounds, primal_dual_episode,
                      record_transition, run_learner)
from .simulate import monte_carlo_value, sample_mixture_episode
from .solver import (INFEASIBLE, OPTIMAL, ExactSolution, brute_force_cmdp,
                     dual_value, solve_cmdp_exact)

__version__ = "0.1.0"
