"""Exact constrained solver against enumeration and convex-duality identities."""

import json
import math
import os
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmdplab import core, solver
from cmdplab import (INFEASIBLE, OPTIMAL, ExactSolution, GenSpec, MixturePolicy,
                     Policy, TabularCmdp, brute_force_cmdp, dual_value,
                     evaluate_mixture, evaluate_policy, generate, greedy_backup,
                     load_instance, preset, preset_names, slater_constant,
                     solve_cmdp_exact)
from cmdplab.core import _expected_stage
from cmdplab.solver import DegenerateInstanceError, InstanceTooLargeError
from conftest import all_deterministic_policies, random_instance, tie_instances


def infeasible_instance():
    # every action costs 1 per step, budget 0.5 < 1 = min cost
    return TabularCmdp(1, 2, 1, np.ones((1, 1, 2, 1)),
                       np.array([[[1.0, 0.0]]]), np.ones((1, 1, 2)), 0.5, 0)


def near_tie_instance(num_states, horizon):
    """Reward 1 vs 0 at the first step, costs split by a hair around b = 0.5.

    The cheap action hits the budget exactly (zeta = 0) while the rewarding
    action overshoots by 1e-13, so no dual variable below the bisection cap
    separates them and the solver must fall back to enumeration.
    """
    k = np.zeros((horizon, num_states, 2, num_states))
    k[:, :, :, min(1, num_states - 1)] = 1.0  # everything funnels to state 1
    r = np.zeros((horizon, num_states, 2))
    c = np.zeros((horizon, num_states, 2))
    r[0, 0] = [1.0, 0.0]
    c[0, 0] = [0.5 + 1e-13, 0.5]
    return TabularCmdp(num_states, 2, horizon, k, r, c, 0.5, 0)


def adversarial_instance(rng):
    """A small instance drawn to corner the bisection's reuse of its ends:
    any of a deterministic kernel, half-integer tables (exact ties at dyadic
    lambda), a zero-reward action, action 1 a 1e-15 near-tie of action 0
    whose exact tie sits at lambda = 1/2, 1 or 2, and a last action
    duplicating action 0."""
    s_, a_, h_ = int(rng.integers(1, 4)), int(rng.integers(2, 5)), int(rng.integers(1, 5))
    shape = (h_, s_, a_)
    kernel = rng.dirichlet(np.ones(s_), size=shape)
    if rng.random() < 0.25:
        kernel = np.eye(s_)[rng.integers(0, s_, size=shape)]
    reward, cost = rng.uniform(size=shape), rng.uniform(size=shape)
    if rng.random() < 0.25:
        reward, cost = np.round(2 * reward) / 2, np.round(2 * cost) / 2
    if rng.random() < 0.3:
        reward[..., rng.integers(0, a_)] = 0.0
    if rng.random() < 0.4:
        dc = rng.uniform(0.0, 0.5, size=shape[:2])
        kernel[..., 1, :] = kernel[..., 0, :]
        cost[..., 1] = cost[..., 0] + dc
        reward[..., 1] = (reward[..., 0] + rng.choice([0.5, 1.0, 2.0]) * dc
                          + rng.choice([-2e-15, -1e-15, 0.0, 1e-15, 2e-15], size=shape[:2]))
    if rng.random() < 0.25:
        for table in (kernel, reward, cost):
            table[:, :, -1] = table[:, :, 0]
    m = TabularCmdp(s_, a_, h_, kernel, reward, cost, 0.0, 0)
    # mostly between the cheapest cost and the reward-greedy one, so the
    # bisection runs; the margins leave some infeasible and unconstrained
    cheapest, greedy = -slater_constant(m)[0], dual_value(m, 0.0)[2][1]
    return replace(m, budget=cheapest + rng.uniform(-0.1, 1.1) * (greedy - cheapest))


def _fingerprint(sol):
    """Every bit of a solution: status, value, cost, lambda*, and each
    component's weight and rule."""
    comps = [] if sol.policy is None else sol.policy.components
    return (sol.status, repr(sol.optimal_value), repr(sol.optimal_cost),
            repr(sol.lambda_star), [(repr(w), p.rule.tobytes()) for w, p in comps])


# ---------------------------------------------------------------------------
# Unconstrained backbone and the dual function.


def test_unconstrained_dominates_enumeration():
    m = random_instance(2, 2, 2, seed=31)
    _, v = greedy_backup(m.transition, m.reward[None])
    vals = [evaluate_policy(m.transition, m.reward[None], p)[0, 0, 0]
            for p in all_deterministic_policies(m)]
    assert v[0, 0, 0] == pytest.approx(max(vals), abs=1e-12)
    _, v_min = greedy_backup(m.transition, -m.reward[None])  # the minimum, negated
    assert -v_min[0, 0, 0] == pytest.approx(min(vals), abs=1e-12)


def test_dual_value_rejects_negative_lambda():
    with pytest.raises(ValueError):
        dual_value(preset("single_state_tradeoff"), -0.1)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -0.5, True, False, "1", None,
                                 np.float64("nan"), np.float64("inf"), 10**400])
def test_dual_value_rejects_lambda_that_is_not_a_finite_nonnegative_real(lam):
    # NaN and inf used to return g = nan with an arbitrary action table,
    # True ran as 1 and "1" raised a TypeError
    with pytest.raises(ValueError, match="lambda"):
        dual_value(preset("single_state_tradeoff"), lam)


def test_dual_value_takes_ints_and_numpy_reals_as_their_floats():
    m = preset("two_state_chain")
    for lam, as_float in ((1, 1.0), (np.float64(0.375), 0.375), (np.int64(2), 2.0),
                          (np.float32(0.25), 0.25)):
        assert dual_value(m, lam) == dual_value(m, as_float)


def test_dual_value_single_state_closed_form():
    # g(lam) = max(1 - lam, 0) + lam / 2; kink at the shadow price lam = 1
    m = preset("single_state_tradeoff")
    for lam, expect in [(0.0, 1.0), (0.5, 0.75), (1.0, 0.5), (2.0, 1.0)]:
        g, _, _ = dual_value(m, lam)
        assert g == pytest.approx(expect, abs=1e-12)


def _two_sweep_dual_value(m, lam):
    """dual_value as two sweeps: a one-table greedy_backup on r - lam*c, then
    evaluate_policy of its policy on (r, c)."""
    actions, v = greedy_backup(m.transition, (m.reward - lam * m.cost)[None])
    pi = Policy.from_actions(actions, m.num_actions)
    g = float(v[0, 0, m.initial_state]) + lam * m.budget
    return g, pi, evaluate_policy(m.transition, m.stages, pi)[:, 0, m.initial_state].tolist()


def test_dual_value_bits_match_two_sweeps():
    # one sweep of (r, c) scored by Q_r - lam Q_c picks the policy and reads
    # (V_r, V_c) with the bits of the two-sweep formula, which chooses on its
    # own r - lam c table, at exact ties (dyadic lam) and off them; g is
    # V_r - lam V_c + lam b, within rounding of the two-sweep g
    rng = np.random.default_rng(7)
    lams = [0.0, 0.5, 1.0, 2.0, *(np.arange(1, 64) / 16.0), *rng.uniform(0.0, 5.0, 8)]
    for m in tie_instances() + [random_instance(4, 3, 5, seed=s) for s in range(4)]:
        for lam in map(float, lams):
            g, pi, pair = dual_value(m, lam)
            want_g, want_pi, want_pair = _two_sweep_dual_value(m, lam)
            assert (pi, pair) == (want_pi, want_pair), (m, lam)
            assert g == pair[0] - lam * pair[1] + lam * m.budget
            assert g == pytest.approx(want_g, rel=1e-14, abs=1e-14)
            assert type(g) is float and all(type(x) is float for x in pair)


def test_dual_function_is_convex_along_grid():
    m = random_instance(3, 2, 3, seed=37)
    lams = np.linspace(0.0, 4.0, 17)
    g = np.array([dual_value(m, x)[0] for x in lams])
    chords = 0.5 * (g[:-2] + g[2:])
    assert np.all(g[1:-1] <= chords + 1e-9)


def test_weak_duality_against_enumeration():
    m = random_instance(2, 2, 2, seed=41, budget=1.2)
    best = brute_force_cmdp(m).optimal_value
    for lam in (0.0, 0.3, 1.0, 2.5):
        assert dual_value(m, lam)[0] >= best - 1e-9


# ---------------------------------------------------------------------------
# Preset optima (hand-derived frontiers).


def test_single_state_tradeoff_optimum():
    m = preset("single_state_tradeoff")
    sol = solve_cmdp_exact(m)
    assert sol.status == OPTIMAL
    assert sol.optimal_value == pytest.approx(0.5, abs=1e-9)
    assert sol.optimal_cost == pytest.approx(0.5, abs=1e-9)
    assert sol.lambda_star == pytest.approx(1.0, abs=1e-6)
    bf = brute_force_cmdp(m)
    assert bf.optimal_value == pytest.approx(0.5, abs=1e-12)
    assert bf.lambda_star == pytest.approx(1.0, abs=1e-12)  # slope (1-0)/(1-0)
    assert np.allclose(bf.policy.weights(), [0.5, 0.5])


def test_two_state_chain_optimum():
    # paths (0.3, cost 0) and (0.8, cost 1) mixed to the budget 0.6:
    # V* = 0.3 + 0.5 * 0.6 = 0.6 with weights (0.4, 0.6), shadow price 0.5
    m = preset("two_state_chain")
    for sol, lam_tol in ((solve_cmdp_exact(m), 1e-6), (brute_force_cmdp(m), 1e-12)):
        assert sol.status == OPTIMAL
        assert sol.optimal_value == pytest.approx(0.6, abs=1e-9)
        assert sol.optimal_cost == pytest.approx(0.6, abs=1e-9)
        assert sol.lambda_star == pytest.approx(0.5, abs=lam_tol)
    assert np.allclose(brute_force_cmdp(m).policy.weights(), [0.4, 0.6])


def test_risky_shortcut_optimum():
    m = preset("risky_shortcut")
    sol = solve_cmdp_exact(m)
    bf = brute_force_cmdp(m)
    assert sol.optimal_value == pytest.approx(bf.optimal_value, abs=1e-6)
    assert bf.optimal_value == pytest.approx(1.7714285714285714, abs=1e-12)
    assert bf.lambda_star == pytest.approx(26.0 / 21.0, abs=1e-12)
    assert sol.optimal_cost <= m.budget + 1e-9


# ---------------------------------------------------------------------------
# Bisection vs enumeration on random instances.


@pytest.mark.parametrize("seed", range(12))
def test_bisection_matches_brute_force(seed):
    dims = [(1, 2, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2)][seed % 4]
    s_, a_, h_ = dims
    m = random_instance(s_, a_, h_, seed=100 + seed, budget=0.4 * h_)
    sol = solve_cmdp_exact(m)
    bf = brute_force_cmdp(m)
    assert sol.status == bf.status
    if sol.status == OPTIMAL:
        assert sol.optimal_value == pytest.approx(bf.optimal_value, abs=1e-6)
        assert sol.optimal_cost <= m.budget + 1e-6
        assert sol.lambda_star >= 0.0
        assert sol.policy.weights().sum() == pytest.approx(1.0, abs=1e-12)
        # report values must be the mixture's own values
        v_r, v_c = evaluate_mixture(m, sol.policy)
        assert v_r == pytest.approx(sol.optimal_value, abs=1e-9)
        assert v_c == pytest.approx(sol.optimal_cost, abs=1e-9)


def _occupancy_lp_value(m, linprog, tolerance):
    """V* from the occupancy-measure LP: maximize r.x over x_h(s, a) >= 0 with
    one unit of mass at s1 at step 0, each step's mass flowing through P to
    the next, and c.x <= b; solved by HiGHS at the given feasibility tolerance."""
    h_, s_, a_ = m.horizon, m.num_states, m.num_actions
    n = h_ * s_ * a_
    flow = np.zeros((h_, s_, h_, s_, a_))  # row (h, s'): mass in at s' minus inflow
    for h in range(h_):
        flow[h, :, h] = np.eye(s_)[:, :, None]
        if h:
            flow[h, :, h - 1] = -m.transition[h - 1].transpose(2, 0, 1)
    start = np.zeros((h_, s_))
    start[0, m.initial_state] = 1.0
    res = linprog(-m.reward.ravel(), A_ub=m.cost.reshape(1, n), b_ub=[m.budget],
                  A_eq=flow.reshape(h_ * s_, n), b_eq=start.ravel(), bounds=(0, None),
                  method="highs", options={"primal_feasibility_tolerance": tolerance,
                                           "dual_feasibility_tolerance": tolerance})
    assert res.status == 0, res.message
    return -res.fun


@pytest.mark.parametrize("dims", [(10, 4, 8), (30, 5, 10)])
def test_bisection_matches_the_occupancy_lp(dims):
    # an oracle independent of the dual. HiGHS stops with its primal and
    # dual residuals within their feasibility tolerances (1e-7, its
    # defaults); the occupancy carries one unit of mass per step, H in all,
    # so V* agrees within H times the two tolerances
    linprog = pytest.importorskip("scipy.optimize").linprog
    tolerance = 1e-7
    for seed in range(1, 21):
        m = generate(GenSpec(*dims, zeta_target=0.5, seed=seed))
        sol = solve_cmdp_exact(m)
        assert sol.status == OPTIMAL
        lp = _occupancy_lp_value(m, linprog, tolerance)
        assert abs(sol.optimal_value - lp) <= m.horizon * 2 * tolerance, seed


def test_unconstrained_optimum_feasible_gives_zero_lambda():
    m = random_instance(2, 2, 2, seed=43, budget=2.0)  # budget = H, never binds
    sol = solve_cmdp_exact(m)
    bf = brute_force_cmdp(m)
    assert sol.lambda_star == 0.0
    assert bf.lambda_star == 0.0
    actions, _ = greedy_backup(m.transition, m.reward[None])
    best = Policy.from_actions(actions, m.num_actions)
    vr = evaluate_policy(m.transition, m.reward[None], best)[0, 0, 0]
    assert sol.optimal_value == pytest.approx(vr, abs=1e-12)


def test_infeasible_instance_both_solvers():
    m = infeasible_instance()
    for sol in (solve_cmdp_exact(m), brute_force_cmdp(m)):
        assert sol.status == INFEASIBLE
        assert np.isnan(sol.optimal_value)
        assert np.isnan(sol.optimal_cost)
        assert sol.policy is None
        assert sol.lambda_star == np.inf


def test_solver_tolerance_must_be_positive():
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol"):
            solve_cmdp_exact(preset("risky_shortcut"), tol=tol)
    for tol in ("1e-8", None, True):  # "1e-8" and None raised TypeError; True ran as 1.0
        with pytest.raises(ValueError, match=rf"^tol must be a number, got {tol!r}$"):
            solve_cmdp_exact(preset("risky_shortcut"), tol=tol)


def test_brute_force_size_guard():
    m = random_instance(2, 2, 2, seed=47)
    with pytest.raises(InstanceTooLargeError):
        brute_force_cmdp(m, max_policies=15)  # 2**4 = 16 policies needed


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 3), (2, 3, 2), (1, 4, 3)])
def test_brute_force_stacked_pricing_matches_a_per_policy_loop(dims, monkeypatch):
    # the oracle prices its enumeration in stacked chunks; routing every
    # policy through its own sweep must give the same solution, bit for bit
    # (3x2x3 has 512 policies, so several chunks)
    def per_policy(kernel, stages, policies):
        return np.stack([evaluate_policy(kernel, stages, p) for p in policies])

    for seed, share in enumerate((0.3, 0.4, 0.45, 0.5, 1.0)):
        budget = dims[2] * share  # infeasible, mixed pairs and unconstrained
        m = random_instance(*dims, seed=seed, budget=budget)
        stacked = brute_force_cmdp(m)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "evaluate_policy", per_policy)
            looped = brute_force_cmdp(m)
        assert _fingerprint(stacked) == _fingerprint(looped)


def test_degenerate_bracket_falls_back_to_enumeration():
    m = near_tie_instance(num_states=2, horizon=2)
    sol = solve_cmdp_exact(m)
    bf = brute_force_cmdp(m)
    assert sol.status == OPTIMAL
    assert sol.optimal_value == pytest.approx(bf.optimal_value, abs=1e-12)


def test_degenerate_bracket_raises_when_too_large():
    with pytest.raises(DegenerateInstanceError):
        solve_cmdp_exact(near_tie_instance(num_states=3, horizon=5))  # 2**15 policies


def test_equal_cost_bracket_returns_the_higher_reward_end():
    # bracket ends whose costs straddle b by less than 1e-15 are not mixed:
    # the higher-reward end comes back alone, on either side of b
    m = preset("single_state_tradeoff")
    cheap, dear = (Policy.from_actions(np.full((1, 1), a), 2) for a in (0, 1))
    above = float(np.nextafter(m.budget, np.inf))
    for r_feas, r_inf, want, cost in ((0.3, 0.7, dear, above), (0.7, 0.3, cheap, m.budget)):
        sol = solver._mix_two(m, (cheap, (r_feas, m.budget)), (dear, (r_inf, above)), 0.25)
        assert (sol.status, sol.optimal_value, sol.optimal_cost, sol.lambda_star) == (
            OPTIMAL, max(r_feas, r_inf), cost, 0.25)
        assert sol.policy == MixturePolicy.single(want)


def test_vertex_optimum_agrees_with_the_bisection_mixture():
    # one state, one step, actions (r, c) = (0, 0), (0.5, 0.5), (1, 1) and
    # b = 0.5. Brute force returns the action-1 vertex, priced by its best
    # straddling pair (actions 0 and 2, slope 1); bisection mixes actions 0
    # and 2 half and half to the same value and cost, lambda* within its tol
    stage = np.array([[[0.0, 0.5, 1.0]]])
    m = TabularCmdp(1, 3, 1, np.ones((1, 1, 3, 1)), stage, stage, 0.5, 0)
    bf = brute_force_cmdp(m)
    assert (bf.optimal_value, bf.optimal_cost, bf.lambda_star) == (0.5, 0.5, 1.0)
    assert bf.policy == MixturePolicy.single(Policy.from_actions(np.ones((1, 1), int), 3))
    sol = solve_cmdp_exact(m)
    assert (sol.status, sol.optimal_value, sol.optimal_cost) == (OPTIMAL, 0.5, 0.5)
    assert abs(sol.lambda_star - bf.lambda_star) <= 1e-8
    assert [(w, p.rule[0, 0].argmax()) for w, p in sol.policy.components] == [(0.5, 0),
                                                                              (0.5, 2)]


def test_mixture_cost_pinned_to_budget_when_binding():
    # when the constraint binds, the optimal mixture sits exactly on it
    m = preset("two_state_chain")
    bf = brute_force_cmdp(m)
    assert evaluate_mixture(m, bf.policy)[1] == pytest.approx(m.budget, abs=1e-12)


# ---------------------------------------------------------------------------
# Reuse in the bisection: a doubling or midpoint that a bracket end's
# re-scored Q-tables keep sweeps nothing, and the solution keeps every bit of
# one sweep per point.


def _sweep_per_midpoint(m, tol=1e-8):
    """solve_cmdp_exact with one dual_value sweep at every doubling and every
    midpoint, as the solver ran before it reused bracket ends."""
    zeta, _ = slater_constant(m)
    if zeta < 0:
        return ExactSolution(INFEASIBLE, math.nan, math.nan, None, math.inf)
    _, pi0, (r0, cost0) = lo = dual_value(m, 0.0)
    if cost0 <= m.budget:
        return ExactSolution(OPTIMAL, r0, cost0, MixturePolicy.single(pi0), 0.0)
    cap = 4.0 * m.horizon / max(zeta, tol)
    lam_lo, lam_hi = 0.0, 1.0
    for _ in range(solver._MAX_DOUBLINGS):
        hi = dual_value(m, lam_hi)
        feasible = hi[2][1] <= m.budget
        if feasible or not lam_hi <= cap:
            break
        lam_lo, lam_hi, lo = lam_hi, 2.0 * lam_hi, hi
    if not feasible:
        if m.num_actions ** (m.num_states * m.horizon) <= solver._BRUTE_FORCE_CAP:
            return brute_force_cmdp(m)
        raise DegenerateInstanceError("no feasible dual point below the cap")
    while lam_hi - lam_lo > tol:
        mid = 0.5 * (lam_lo + lam_hi)
        if not lam_lo < mid < lam_hi:
            break
        got = dual_value(m, mid)
        if got[2][1] <= m.budget:
            lam_hi, hi = mid, got
        else:
            lam_lo, lo = mid, got
    return solver._mix_two(m, hi[1:], lo[1:], 0.5 * (lam_lo + lam_hi))


def _solve_fingerprints(m):
    """(reusing, one sweep per midpoint) fingerprints; a degenerate
    instance too large for enumeration must raise in both."""
    out = []
    for solve in (solve_cmdp_exact, _sweep_per_midpoint):
        try:
            out.append(_fingerprint(solve(m)))
        except DegenerateInstanceError:
            out.append("degenerate")
    return out


_GENERATED_SIZES = [(2, 2, 2), (3, 2, 3), (2, 4, 5), (5, 3, 4), (10, 4, 8), (8, 6, 3),
                    (20, 3, 6), (30, 5, 10)]


@pytest.mark.parametrize("alpha", [1.0, 0.1])
@pytest.mark.parametrize("dims", _GENERATED_SIZES)
def test_certified_bisection_matches_one_sweep_per_midpoint_on_generated(dims, alpha):
    for seed in (1, 2):
        for zeta in (0.5, 0.2 * dims[2]):
            m = generate(GenSpec(*dims, zeta_target=zeta, dirichlet_alpha=alpha, seed=seed))
            reused, swept = _solve_fingerprints(m)
            assert reused == swept, (dims, alpha, seed, zeta)


def test_certified_bisection_matches_one_sweep_per_midpoint_on_ties():
    cases = [*tie_instances(), near_tie_instance(2, 2), near_tie_instance(3, 5),
             infeasible_instance()]
    cases += [replace(m, budget=b) for m in map(preset, preset_names())
              for b in (0.1, 0.25, 0.5, 0.75, 1.0)]
    for m in cases:
        reused, swept = _solve_fingerprints(m)
        assert reused == swept, m


@pytest.mark.parametrize("chunk", range(8))
def test_certified_bisection_matches_one_sweep_per_midpoint_on_near_ties(chunk):
    # 8 x 250 drawn instances with deterministic kernels, half-integer
    # tables, zero-reward actions, 1e-15 near-ties and duplicated actions
    rng = np.random.default_rng(5000 + chunk)
    for i in range(250):
        m = adversarial_instance(rng)
        reused, swept = _solve_fingerprints(m)
        assert reused == swept, (chunk, i)


def _check_reuse(m, end_lams, lams):
    """For each end _dual_point(m, x), x in end_lams, and each lam in lams:
    _keeps(end, lam) holds exactly when a sweep at lam returns end's policy,
    and then that sweep's pair and Q-tables are end's, byte for byte.
    Returns the number of (end, lam) checks and of those that kept the end."""
    ends = [solver._dual_point(m, x) for x in end_lams]
    checked = kept = 0
    for lam in lams:
        got = solver._dual_point(m, lam)
        for end in ends:
            keeps = solver._keeps(end, lam)
            assert keeps == (got[1] == end[1]), (m, lam)
            if keeps:
                assert np.array(got[2]).tobytes() == np.array(end[2]).tobytes()
                assert got[3].tobytes() == end[3].tobytes()
            checked, kept = checked + 1, kept + bool(keeps)
    return checked, kept


def _near(lams):
    """Each lambda with its neighbours one ulp below (if >= 0) and above."""
    return [float(x) for lam in lams
            for x in (np.nextafter(lam, -math.inf), lam, np.nextafter(lam, math.inf))
            if x >= 0.0]


@pytest.mark.parametrize("chunk", range(4))
def test_certificate_is_sound_up_to_one_ulp_inside_its_ends(chunk):
    # the bisection's certificate is _keeps, an end's own Q-tables re-scored
    # at lambda: on 4 x 150 drawn instances it is sound and complete at the
    # dyadic lambda where half-integer tables and near-tie twins tie, one
    # ulp either side of them, and at random lambda
    rng = np.random.default_rng(7000 + chunk)
    checked = kept = 0
    for _ in range(150):
        m = adversarial_instance(rng)
        ties = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0]
        lams = [*_near(ties), *rng.uniform(0.0, 3.0, 3)]
        got = _check_reuse(m, [0.0, 0.5, float(rng.uniform(0.0, 3.0))], lams)
        checked, kept = checked + got[0], kept + got[1]
    assert checked == 150 * 3 * 20 and kept >= checked // 4


def test_exact_ties_keep_the_end_a_sweep_returns():
    # at an exact tie a sweep picks the lowest tied action, and so does the
    # re-score: the presets' kinks and the duplicated-action twins (which
    # tie at every lambda) keep an end whenever a sweep would return it
    checked = kept = 0
    for m in tie_instances():
        got = _check_reuse(m, [0.0, 0.5, 1.0, 3.0], _near(np.arange(33) / 8.0))
        checked, kept = checked + got[0], kept + got[1]
    assert checked >= 5000 and kept >= checked // 5
    for name, tie in (("single_state_tradeoff", 1.0), ("two_state_chain", 0.5)):
        ends = [solver._dual_point(preset(name), x) for x in (tie - 0.25, tie + 0.25)]
        assert any(solver._keeps(end, tie) for end in ends), name


def test_dual_point_q_tables_are_the_ones_its_sweep_scored(monkeypatch):
    # _dual_point rebuilds its Q-tables from its values in one batched
    # matvec; each step's slice must hold the sweep's own bits
    scored = []

    def recording(kernel, stages):
        q_step = _expected_stage(kernel, stages)

        def step(h, v):
            q = q_step(h, v)
            scored.append((h, q.copy()))
            return q
        return step

    monkeypatch.setattr(core, "_expected_stage", recording)
    rng = np.random.default_rng(11)
    cases = [*tie_instances(), *(adversarial_instance(rng) for _ in range(200)),
             generate(GenSpec(10, 4, 8, zeta_target=0.5, seed=1)),
             generate(GenSpec(30, 5, 10, zeta_target=0.5, seed=1))]
    matched = 0
    for m in cases:
        for lam in (0.0, 0.5, 1.0, 2.0, *rng.uniform(0.0, 3.0, 2)):
            scored.clear()
            q = solver._dual_point(m, lam)[3]
            assert sorted(h for h, _ in scored) == list(range(m.horizon))
            for h, q_h in scored:
                assert q[:, h].tobytes() == q_h.tobytes(), (m, lam, h)
                matched += 1
    assert matched >= 3000


# what solving gave while the dual point chose on a separately swept
# r - lambda c table: (status, value, cost, lambda*, each component's weight
# and actions), or the operation whose invalid-value warning an entry of NaN
# or +-inf raises
_NON_FINITE_SOLVES = {
    ("transition", "nan"): ("infeasible", "nan", "nan", "inf", []),
    ("transition", "inf"): (RuntimeWarning, "matmul"),
    ("transition", "-inf"): (RuntimeWarning, "matmul"),
    ("reward", "nan"): ("optimal", "nan", "0.6", "0.4999999962747097",
                        [(0.4, [[1, 1], [0, 0]]), (0.6, [[1, 1], [0, 1]])]),
    ("reward", "inf"): ("optimal", "inf", "0.6", "0.4999999962747097",
                        [(0.4, [[1, 1], [0, 0]]), (0.6, [[1, 1], [0, 1]])]),
    ("reward", "-inf"): ("optimal", "0.32", "0.6", "0.19999999925494194",
                         [(0.4, [[0, 1], [0, 1]]), (0.6, [[0, 1], [1, 1]])]),
    ("cost", "nan"): ("infeasible", "nan", "nan", "inf", []),
    ("cost", "inf"): (RuntimeWarning, "multiply"),
    ("cost", "-inf"): (RuntimeWarning, "multiply"),
}


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["transition", "reward", "cost"])
def test_non_finite_tables_solve_as_before(where, bad):
    # built past the loader: scoring Q_r - lambda Q_c raises the same
    # warnings (as errors) and returns the same solutions as scoring a
    # separately swept r - lambda c did
    m = preset("two_state_chain")
    table = np.array(getattr(m, where))
    table[0, 0, 1] = float(bad)
    broken = replace(m, **{where: table})
    want = _NON_FINITE_SOLVES[where, bad]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if want[0] is RuntimeWarning:
            with pytest.raises(RuntimeWarning, match=f"^invalid value encountered in {want[1]}$"):
                solve_cmdp_exact(broken)
            return
        sol = solve_cmdp_exact(broken)
    comps = [] if sol.policy is None else sol.policy.components
    assert (sol.status, repr(sol.optimal_value), repr(sol.optimal_cost), repr(sol.lambda_star),
            [(w, p.actions) for w, p in comps]) == want


def test_bisection_sweeps_each_greedy_policy_about_once(monkeypatch):
    # 10x4x8, seeds 1-20: one sweep per midpoint took 29.8 sweeps per solve
    # to visit 7.6 distinct greedy policies; on the duplicated-action twins
    # the re-score keeps ends at their exact ties (the float margin it
    # replaced never did, at 5.7 sweeps a solve)
    sweeps = _count_sweeps(monkeypatch)
    for seed in range(1, 21):
        solve_cmdp_exact(generate(GenSpec(10, 4, 8, zeta_target=0.5, seed=seed)))
    assert len(sweeps) <= 12 * 20
    twins = [m for m in tie_instances() if m.num_actions == 4]  # actions 2, 3 copy 0, 1
    sweeps.clear()
    for m in twins:
        solve_cmdp_exact(m)
    assert len(twins) == 6 and len(sweeps) <= 2 * len(twins)


# ---------------------------------------------------------------------------
# Termination on non-finite and malformed input.


def _count_sweeps(monkeypatch, limit=2000):
    """Count the solver's greedy sweeps (one per dual point that keeps
    neither bracket end); fail fast instead of hanging if the dual search
    stops terminating."""
    calls = []
    original = solver.greedy_backup

    def counted(kernel, stages, score):
        calls.append(stages)
        assert len(calls) <= limit, "dual search does not terminate"
        return original(kernel, stages, score)

    monkeypatch.setattr(solver, "greedy_backup", counted)
    return calls


@pytest.mark.parametrize("where", ["cost", "transition"])
def test_solver_terminates_on_nan_entries(monkeypatch, where):
    # built directly, past the loader: a NaN zeta makes the lambda cap NaN,
    # which used to keep the doubling loop going forever
    calls = _count_sweeps(monkeypatch)
    m = preset("two_state_chain")
    table = np.array(getattr(m, where))
    table[0, 0, 1] = np.nan
    small = replace(m, **{where: table})
    sol = solve_cmdp_exact(small)  # 2**4 policies: brute-force fallback
    assert sol.status in (OPTIMAL, INFEASIBLE)
    big = near_tie_instance(num_states=3, horizon=5)
    cost = np.array(big.cost)
    cost[0, 0, 0] = np.nan
    with pytest.raises(DegenerateInstanceError):
        solve_cmdp_exact(replace(big, cost=cost))
    assert len(calls) < 10


@pytest.mark.parametrize("name", sorted(preset_names()))
def test_tolerance_below_float_spacing_terminates(monkeypatch, name):
    # at tol=1e-320 the bracket reaches the float spacing around lambda*
    # first; the midpoint then equals one end, which used to loop forever
    want = solve_cmdp_exact(preset(name))
    calls = _count_sweeps(monkeypatch)
    got = solve_cmdp_exact(preset(name), tol=1e-320)
    assert len(calls) < 100
    assert got.status == want.status == OPTIMAL
    assert got.optimal_value == pytest.approx(want.optimal_value, abs=1e-9)
    assert got.optimal_cost == pytest.approx(want.optimal_cost, abs=1e-9)


_BAD_VALUES = st.sampled_from([float("nan"), float("inf"), -float("inf")])


@st.composite
def malformed_instance_docs(draw):
    """A small valid instance document with at most one corruption applied."""
    s_, a_, h_ = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    doc = json.loads(json.dumps({
        "S": s_, "A": a_, "H": h_, "b": h_ / 2.0, "s1": 0,
        "P": np.full((h_, s_, a_, s_), 1.0 / s_).tolist(),
        "r": np.full((h_, s_, a_), 0.5).tolist(),
        "c": np.full((h_, s_, a_), 0.75).tolist()}))
    kind = draw(st.sampled_from(["none", "non_finite", "dimension", "shape"]))
    if kind == "non_finite":
        key = draw(st.sampled_from(["P", "r", "c", "b"]))
        if key == "b":
            doc["b"] = draw(_BAD_VALUES)
        else:
            row = doc[key][draw(st.integers(0, h_ - 1))][draw(st.integers(0, s_ - 1))]
            if key == "P":
                row = row[draw(st.integers(0, a_ - 1))]
            row[draw(st.integers(0, len(row) - 1))] = draw(_BAD_VALUES)
    elif kind == "dimension":
        doc[draw(st.sampled_from(["S", "A", "H", "s1"]))] = draw(st.one_of(
            st.booleans(), st.floats(allow_nan=True, allow_infinity=True),
            st.integers(-2, 4)))
    elif kind == "shape":
        key = draw(st.sampled_from(["P", "r", "c"]))
        if draw(st.booleans()):
            doc[key].append(doc[key][0])  # one step too many
        else:
            doc[key][0][0].pop()  # ragged, or one entry short
    return doc


@settings(max_examples=150, deadline=None)
@given(doc=malformed_instance_docs())
def test_malformed_instances_are_rejected_or_solved(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        try:
            m = load_instance(path)
        except ValueError:
            return
        sol = solve_cmdp_exact(m)
    assert sol.status in (OPTIMAL, INFEASIBLE)
