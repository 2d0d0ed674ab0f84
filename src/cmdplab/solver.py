"""Exact CMDP solving on the true model.

Two independent routes to the constrained optimum
max V_r(s1) subject to V_c(s1) <= b:

* solve_cmdp_exact: bisection on the scalar dual. The Lagrangian dual
  g(lambda) = max_pi [V_r - lambda (V_c - b)] is convex piecewise-linear with
  subgradient b - V_c(pi_lambda); the primal optimum is recovered by mixing
  the two deterministic policies bracketing the sign change of the
  subgradient so the mixture cost hits b exactly.
* brute_force_cmdp: exhaustive enumeration of all A**(S*H) deterministic
  policies plus every feasible/infeasible two-policy mixing, exact up to
  floating point. Used as the ground-truth oracle for small instances.

Each dual point is one greedy_backup sweep of the (r, c) stack, scored like
the learner's: argmax Q_r - lambda Q_c at each (h, s), ties to the lowest
action. Its rows are the greedy policy's (V_r, V_c); g = V_r - lambda V_c +
lambda b. By induction down from the zero row H, a sweep at lambda returns
pi, with the same bits, exactly when pi's own Q-tables scored at lambda pick
pi's actions at every step: a bisection point keeps a bracket end that
passes this re-score (ties and NaN included) and sweeps otherwise.
The enumeration prices policies with evaluate_policy over m.stages, one
stacked sweep per PRICE_CHUNK policies, rows again bit-equal to single sweeps.

Both return an ExactSolution; the mixture-of-two form is fully general here
because the achievable (V_r, V_c) set is the convex hull of the deterministic
policies' value pairs and a single linear constraint cuts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (PRICE_CHUNK, MixturePolicy, Policy, TabularCmdp, _real,
                   evaluate_policy, greedy_backup, slater_constant)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

# Slack for calling a float-valued cost feasible in the enumeration oracle.
_FEAS_SLACK = 1e-12

# Bound on the dual doublings: 2.0**1024 overflows, so by then lambda has
# passed any finite cap; only a NaN or infinite cap could need more.
_MAX_DOUBLINGS = 1100

# Most deterministic policies brute_force_cmdp enumerates by default, and so
# the largest degenerate instance solve_cmdp_exact hands to it.
_BRUTE_FORCE_CAP = 4096


class InstanceTooLargeError(ValueError):
    """Deterministic-policy count exceeds the enumeration budget."""


class DegenerateInstanceError(RuntimeError):
    """Dual bisection found no feasible bracket below the lambda cap."""


@dataclass(frozen=True)
class ExactSolution:
    """Solved CMDP: optimal value/cost at s1, an optimal mixture, and the dual point.

    status is "optimal" or "infeasible"; infeasible solutions carry NaN
    values, policy None, and lambda_star = inf (the dual is unbounded).
    """

    status: str
    optimal_value: float
    optimal_cost: float
    policy: MixturePolicy | None
    lambda_star: float


def dual_value(m: TabularCmdp, lam: float):
    """Evaluate the dual: g(lambda) = max_pi [V_{r - lambda c}] + lambda*b.

    Returns (g(lambda), maximizing deterministic policy pi, [V_r, V_c] of pi
    at s1) from one sweep. b - V_c is a subgradient of g at lambda.
    """
    lam = _real("lambda", lam)
    if not 0 <= lam < math.inf:
        raise ValueError(f"dual variable lambda must be finite and >= 0, got {lam}")
    _, pi, (v_r, v_c), _ = _dual_point(m, lam)
    return v_r - lam * v_c + lam * m.budget, pi, [v_r, v_c]


def _dual_point(m, lam):
    """dual_value's sweep at a checked lam: its actions, their Policy, its
    [V_r, V_c] at s1 and its (2, H, S, A) Q-tables, rebuilt from its values
    with the sweep's own matvec, so bit-equal to the tables it scored."""
    actions, v = greedy_backup(m.transition, m.stages, lambda q: q[0] - lam * q[1])
    q = m.stages + (m.transition @ v[:, 1:, None, :, None])[..., 0]
    pi = Policy.from_actions(actions, m.num_actions)
    return actions, pi, v[:, 0, m.initial_state].tolist(), q


def _keeps(end, lam):
    """Would a sweep at lam return this _dual_point's policy (see the module docstring)?"""
    actions, _, _, q = end
    return ((q[0] - lam * q[1]).argmax(-1) == actions).all()


def _mix_two(m, feas, inf, lambda_star):
    """Mix the bracket ends, each (policy, (V_r, V_c)) with cost_feas <= b <
    cost_inf, so the mixture cost equals b exactly."""
    (pi_feas, (r_feas, cost_feas)), (pi_inf, (r_inf, cost_inf)) = feas, inf
    if abs(cost_feas - cost_inf) < 1e-15:
        # Degenerate bracket of equal costs: the higher-reward end alone.
        r, c, pi = max((r_feas, cost_feas, pi_feas), (r_inf, cost_inf, pi_inf),
                       key=lambda t: t[0])
        return ExactSolution(OPTIMAL, r, c, MixturePolicy.single(pi), lambda_star)
    alpha = (m.budget - cost_inf) / (cost_feas - cost_inf)
    alpha = min(max(alpha, 0.0), 1.0)
    value = alpha * r_feas + (1 - alpha) * r_inf
    cost = alpha * cost_feas + (1 - alpha) * cost_inf
    comps = [(alpha, pi_feas), (1.0 - alpha, pi_inf)]
    mix = MixturePolicy(tuple((w, p) for w, p in comps if w > 0))
    return ExactSolution(OPTIMAL, value, cost, mix, lambda_star)


def solve_cmdp_exact(m: TabularCmdp, tol: float = 1e-8) -> ExactSolution:
    """Constrained optimum via dual bisection and two-policy mixing.

    The bracket [lam_lo, lam_hi] keeps cost(pi_lam_lo) > b >= cost(pi_lam_hi)
    and shrinks to width tol (0 < tol < inf), or until its midpoint is no
    longer strictly inside; lambda_star reports that midpoint. Each end
    keeps its sweep, so the mixing solves nothing again, and neither does a
    doubling or midpoint that keeps an end. If no feasible side appears
    below the cap 4H/max(zeta, tol) (or within _MAX_DOUBLINGS doublings, or
    the cap is NaN), the instance is numerically degenerate: fall back to
    brute force when small enough, otherwise raise DegenerateInstanceError.
    """
    tol = _real("tol", tol)
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be in (0, inf), got {tol}")
    zeta, _ = slater_constant(m)
    if zeta < 0:
        return ExactSolution(INFEASIBLE, math.nan, math.nan, None, math.inf)
    _, pi0, (r0, cost0), _ = lo = _dual_point(m, 0.0)
    if cost0 <= m.budget:
        return ExactSolution(OPTIMAL, r0, cost0, MixturePolicy.single(pi0), 0.0)

    cap = 4.0 * m.horizon / max(zeta, tol)
    lam_lo, lam_hi = 0.0, 1.0
    feasible = False
    for _ in range(_MAX_DOUBLINGS):
        hi = lo if _keeps(lo, lam_hi) else _dual_point(m, lam_hi)
        feasible = hi[2][1] <= m.budget
        if feasible or not lam_hi <= cap:  # a NaN cap also ends the search
            break
        lam_lo, lam_hi, lo = lam_hi, 2.0 * lam_hi, hi
    if not feasible:
        if m.num_actions ** (m.num_states * m.horizon) <= _BRUTE_FORCE_CAP:
            return brute_force_cmdp(m)
        raise DegenerateInstanceError(
            f"no feasible dual point below cap {cap:.3g} (zeta={zeta:.3g})")

    while lam_hi - lam_lo > tol:
        mid = 0.5 * (lam_lo + lam_hi)
        if not lam_lo < mid < lam_hi:  # the bracket is down to float spacing
            break
        got = lo if _keeps(lo, mid) else hi if _keeps(hi, mid) else _dual_point(m, mid)
        if got[2][1] <= m.budget:
            lam_hi, hi = mid, got
        else:
            lam_lo, lo = mid, got
    return _mix_two(m, hi[1:3], lo[1:3], 0.5 * (lam_lo + lam_hi))


def brute_force_cmdp(m: TabularCmdp, max_policies: int = _BRUTE_FORCE_CAP) -> ExactSolution:
    """Enumeration oracle: exact optimum over all deterministic policies and pairs.

    Requires A**(S*H) <= max_policies. Prices every deterministic policy's
    (reward, cost) pair, PRICE_CHUNK policies per stacked sweep, then scans
    every feasible/infeasible pair mixed to cost exactly b; with one linear
    constraint this search is exhaustive.
    lambda_star reports the reward/cost slope of the optimal mixing pair
    (the shadow price), or 0 when the unconstrained optimum is feasible.
    """
    count = m.num_actions ** (m.num_states * m.horizon)
    if count > max_policies:
        raise InstanceTooLargeError(
            f"{count} deterministic policies exceed the cap {max_policies}")
    s1 = m.initial_state
    a_, n = m.num_actions, m.horizon * m.num_states
    # Policy p's action table holds the base-A digits of p, most significant
    # first (itertools.product order); the (P, H, S, A) one-hot rules go to
    # evaluate_policy as they are, and only the winners become Policy objects.
    digits = np.arange(count)[:, None] // a_ ** np.arange(n - 1, -1, -1) % a_
    actions = digits.reshape(count, m.horizon, m.num_states)
    rules = (actions[..., None] == np.arange(a_)).astype(float)
    values = np.concatenate([
        evaluate_policy(m.transition, m.stages, rules[i:i + PRICE_CHUNK])[:, :, 0, s1]
        for i in range(0, count, PRICE_CHUNK)])

    def policy(i):
        return Policy.from_actions(actions[i], a_)
    r_vals, c_vals = values.T

    feas = c_vals <= m.budget + _FEAS_SLACK
    if not feas.any():
        return ExactSolution(INFEASIBLE, math.nan, math.nan, None, math.inf)

    fi = np.nonzero(feas)[0]
    best_f = fi[np.argmax(r_vals[fi])]
    best_value = r_vals[best_f]
    best = ExactSolution(OPTIMAL, float(best_value), float(c_vals[best_f]),
                         MixturePolicy.single(policy(best_f)), 0.0)
    if feas.all():
        return best

    ii = np.nonzero(~feas)[0]
    # Mixture of feasible i and infeasible j with cost pinned at b:
    # alpha on i solves alpha*c_i + (1-alpha)*c_j = b.
    denom = c_vals[fi][:, None] - c_vals[ii][None, :]
    alpha = np.clip((m.budget - c_vals[ii][None, :]) / denom, 0.0, 1.0)
    mix_r = alpha * r_vals[fi][:, None] + (1 - alpha) * r_vals[ii][None, :]
    pair_best = np.unravel_index(np.argmax(mix_r), mix_r.shape)
    i, j = fi[pair_best[0]], ii[pair_best[1]]  # c_i <= b + slack < c_j
    slope = max(float((r_vals[j] - r_vals[i]) / (c_vals[j] - c_vals[i])), 0.0)
    if mix_r[pair_best] <= best_value:
        # The best single policy wins; lambda_star = 0 only if it is the
        # unconstrained maximum, otherwise the constraint is active at a vertex
        # and the shadow price comes from the best straddling pair.
        if best_value >= r_vals.max() - _FEAS_SLACK:
            return best
        return replace(best, lambda_star=slope)
    a = float(alpha[pair_best])
    cost = a * c_vals[i] + (1 - a) * c_vals[j]
    comps = tuple((w, p) for w, p in ((a, policy(i)), (1 - a, policy(j))) if w > 0)
    return ExactSolution(OPTIMAL, float(mix_r[pair_best]), float(cost), MixturePolicy(comps),
                         slope)
