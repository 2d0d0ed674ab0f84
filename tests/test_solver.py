"""Exact constrained solver against enumeration and convex-duality identities."""

import json
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmdplab import solver
from cmdplab import (INFEASIBLE, OPTIMAL, MixturePolicy, Policy, TabularCmdp,
                     brute_force_cmdp, dual_value, evaluate_mixture,
                     evaluate_policy, greedy_backup, load_instance, preset,
                     preset_names, solve_cmdp_exact)
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
    # one stacked sweep of (r - lam c, r, c) reads g and (V_r, V_c) with the
    # bits of the two-sweep formula, at exact ties (dyadic lam) and off them
    rng = np.random.default_rng(7)
    lams = [0.0, 0.5, 1.0, 2.0, *(np.arange(1, 64) / 16.0), *rng.uniform(0.0, 5.0, 8)]
    for m in tie_instances() + [random_instance(4, 3, 5, seed=s) for s in range(4)]:
        for lam in lams:
            g, pi, pair = dual_value(m, float(lam))
            want_g, want_pi, want_pair = _two_sweep_dual_value(m, float(lam))
            assert (g, pi, pair) == (want_g, want_pi, want_pair), (m, lam)
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

    def fingerprint(sol):
        comps = [] if sol.policy is None else sol.policy.components
        return (sol.status, repr(sol.optimal_value), repr(sol.optimal_cost),
                repr(sol.lambda_star), [(repr(w), p.rule.tobytes()) for w, p in comps])

    for seed, share in enumerate((0.3, 0.4, 0.45, 0.5, 1.0)):
        budget = dims[2] * share  # infeasible, mixed pairs and unconstrained
        m = random_instance(*dims, seed=seed, budget=budget)
        stacked = brute_force_cmdp(m)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "evaluate_policy", per_policy)
            looped = brute_force_cmdp(m)
        assert fingerprint(stacked) == fingerprint(looped)


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
# Termination on non-finite and malformed input.


def _count_dual_values(monkeypatch, limit=2000):
    """Fail fast instead of hanging if the dual search stops terminating."""
    calls = []
    original = solver.dual_value

    def counted(m, lam):
        calls.append(lam)
        assert len(calls) <= limit, "dual search does not terminate"
        return original(m, lam)

    monkeypatch.setattr(solver, "dual_value", counted)
    return calls


@pytest.mark.parametrize("where", ["cost", "transition"])
def test_solver_terminates_on_nan_entries(monkeypatch, where):
    # built directly, past the loader: a NaN zeta makes the lambda cap NaN,
    # which used to keep the doubling loop going forever
    calls = _count_dual_values(monkeypatch)
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
    calls = _count_dual_values(monkeypatch)
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
