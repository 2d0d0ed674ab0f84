"""Instance containers, policy evaluation, and (de)serialization.

Expected numbers are hand-derived on instances small enough to enumerate;
each derivation is spelled out next to the assertion that uses it.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmdplab import (MixturePolicy, Policy, TabularCmdp,
                     evaluate_mixture, evaluate_policy, greedy_backup,
                     instance_hash, load_instance, load_policy,
                     normalize_transition_rows, preset, save_instance,
                     save_policy, slater_constant, validate_cmdp)
from cmdplab.core import PRICE_CHUNK, _backward_induction, _expected_stage, _instance_payload
from cmdplab.generate import GenSpec, generate, preset_names
from conftest import all_deterministic_policies, random_instance, tie_instances


def chain_kernel(horizon, num_states, num_actions):
    """Deterministic moves: next state = action index (requires A <= S)."""
    k = np.zeros((horizon, num_states, num_actions, num_states))
    for a in range(num_actions):
        k[:, :, a, a] = 1.0
    return k


# ---------------------------------------------------------------------------
# Policy evaluation against hand-computed backups.


def test_evaluate_single_step_stochastic_rule():
    # V = 0.25 * 0.3 + 0.75 * 0.9 = 0.75
    kernel = np.ones((1, 1, 2, 1))
    stage = np.array([[[0.3, 0.9]]])
    pi = Policy(np.array([[[0.25, 0.75]]]))
    v = evaluate_policy(kernel, stage[None], pi)
    assert v.shape == (1, 2, 1)
    assert v[0, 0, 0] == pytest.approx(0.75, abs=1e-15)
    assert v[0, 1, 0] == 0.0  # terminal row


def test_evaluate_two_step_deterministic_chain():
    # next state = action; policy h0: s0->a1, s1->a0; h1: s0->a0, s1->a1.
    # V1 = (0.5, 0.7); V0(s0) = 0.6 + V1(1) = 1.3; V0(s1) = 0.2 + V1(0) = 0.7.
    kernel = chain_kernel(2, 2, 2)
    stage = np.array([[[0.1, 0.6], [0.2, 1.0]],
                      [[0.5, 0.0], [0.3, 0.7]]])
    pi = Policy.from_actions([[1, 0], [0, 1]], 2)
    v = evaluate_policy(kernel, stage[None], pi)[0]
    assert v[1].tolist() == [0.5, 0.7]
    assert v[0, 0] == pytest.approx(1.3, abs=1e-15)
    assert v[0, 1] == pytest.approx(0.7, abs=1e-15)


def test_constant_stage_value_is_horizon():
    m = random_instance(3, 2, 4, seed=1)
    ones = np.ones((4, 3, 2))
    for pi in (Policy.uniform(4, 3, 2), Policy.from_actions(np.ones((4, 3), int), 2)):
        v = evaluate_policy(m.transition, ones[None], pi)
        assert np.allclose(v[0, 0], 4.0, atol=1e-12)


def test_evaluate_policy_shape_mismatch_raises():
    m = random_instance(2, 2, 3, seed=2)
    with pytest.raises(ValueError):
        evaluate_policy(m.transition, m.stages, Policy.uniform(3, 2, 3))
    with pytest.raises(ValueError):
        evaluate_policy(m.transition, m.stages[:, :2], Policy.uniform(3, 2, 2))
    with pytest.raises(ValueError):  # one (H, S, A) table, not a stack
        evaluate_policy(m.transition, m.reward, Policy.uniform(3, 2, 2))
    with pytest.raises(ValueError, match=r"policy stack \(2, \.\.\.\) of rule shapes "
                                         r"\[\(3, 2, 2\), \(3, 2, 3\)\]"):
        evaluate_policy(m.transition, m.stages, [Policy.uniform(3, 2, 2), Policy.uniform(3, 2, 3)])
    with pytest.raises(ValueError, match=r"policy \(3, 2, 3\)"):
        evaluate_policy(m.transition, m.stages, Policy.uniform(3, 2, 3).rule)
    with pytest.raises(ValueError, match=r"policy stack \(4, \.\.\.\) of rule shapes \[\(3, 2, 3\)\]"):
        evaluate_policy(m.transition, m.stages, np.zeros((4, 3, 2, 3)))


def test_evaluate_policy_rejects_an_empty_stack():
    m = random_instance(2, 2, 3, seed=2)
    with pytest.raises(ValueError, match="at least one policy, got an empty sequence"):
        evaluate_policy(m.transition, m.stages, [])
    with pytest.raises(ValueError, match="at least one policy, got an empty sequence"):
        evaluate_policy(m.transition, m.stages, np.zeros((0, 3, 2, 2)))


def test_stacked_evaluation_matches_single_table_sweeps():
    # one sweep over the (reward, cost) stack must reproduce two one-table
    # sweeps bit for bit: run.csv prints these values with 17 digits
    rng = np.random.default_rng(11)
    for i in range(120):
        s_, a_, h_ = (int(x) for x in rng.integers(1, (10, 5, 9)))
        m = random_instance(s_, a_, h_, seed=i)
        if i % 2:
            pi = Policy.from_actions(rng.integers(0, a_, size=(h_, s_)), a_)
        else:
            pi = Policy(rng.dirichlet(np.ones(a_), size=(h_, s_)))
        both = evaluate_policy(m.transition, m.stages, pi)
        assert both.shape == (2, h_ + 1, s_)
        assert np.array_equal(both[0], evaluate_policy(m.transition, m.reward[None], pi)[0])
        assert np.array_equal(both[1], evaluate_policy(m.transition, m.cost[None], pi)[0])


def dirichlet_rule_with_zeros(rng, shape):
    """Random (H, S, A) rule whose rows hold exact zeros (each keeps one nonzero)."""
    rule = rng.dirichlet(np.ones(shape[2]), size=shape[:2])
    rule[rng.uniform(size=shape) < 0.4] = 0.0
    rule[..., 0] += rule.sum(axis=2) == 0.0
    return rule / rule.sum(axis=2, keepdims=True)


@pytest.mark.parametrize("num_policies", [1, 2, PRICE_CHUNK + 1])
def test_policy_stack_matches_single_sweeps(num_policies):
    # a stack of P policies must give, slice for slice, the bits of P sweeps
    # of one policy each: stacked pricing feeds the same run.csv digits
    rng = np.random.default_rng(num_policies)
    for i in range(8 if num_policies > 2 else 40):
        s_, a_, h_ = (int(x) for x in rng.integers(1, (8, 5, 7)))
        m = random_instance(s_, a_, h_, seed=100 + i)
        policies = [Policy.from_actions(rng.integers(0, a_, size=(h_, s_)), a_) if j % 2
                    else Policy(dirichlet_rule_with_zeros(rng, (h_, s_, a_)))
                    for j in range(num_policies)]
        for stages in (m.reward[None], m.stages):  # k = 1 and 2
            got = evaluate_policy(m.transition, stages, policies)
            assert got.shape == (num_policies, len(stages), h_ + 1, s_)
            want = np.stack([evaluate_policy(m.transition, stages, p) for p in policies])
            assert np.array_equal(got, want)
            rules = np.stack([p.rule for p in policies])  # rule arrays stand in for policies
            assert np.array_equal(evaluate_policy(m.transition, stages, rules), want)
            assert np.array_equal(evaluate_policy(m.transition, stages, rules[0]), want[0])


def test_stages_are_reward_then_cost_and_read_only():
    m = random_instance(2, 3, 2, seed=5)
    assert m.stages.shape == (2, 2, 2, 3)
    assert m.stages is m.stages
    assert np.array_equal(m.stages[0], m.reward)
    assert np.array_equal(m.stages[1], m.cost)
    with pytest.raises(ValueError):
        m.stages[0, 0, 0, 0] = 0.5
    with pytest.raises(AttributeError):
        m.stages = m.stages


def test_copies_and_loaded_instances_start_with_no_prices(tmp_path):
    # prices belong to the instance they were taken on: a replace() copy and
    # a loaded instance (load_instance returns a replace() of what it
    # parsed) each start empty, and prices play no part in repr or hash
    m = preset("two_state_chain")
    evaluate_mixture(m, MixturePolicy.single(Policy.uniform(2, 2, 2)))
    assert len(m.prices) == 1
    copy = dataclasses.replace(m)
    assert copy.prices == {} and copy.prices is not m.prices
    path = tmp_path / "inst.json"
    save_instance(m, path)
    loaded = load_instance(path)
    assert loaded.prices == {}
    assert "prices" not in repr(m)
    assert instance_hash(copy) == instance_hash(loaded) == instance_hash(m)


def test_mixture_value_matches_hand_mix():
    # two_state_chain frontier: 0.4 * path(0.3, cost 0) + 0.6 * path(0.8, cost 1).
    m = preset("two_state_chain")
    safe = Policy.from_actions([[1, 1], [0, 0]], 2)
    risky = Policy.from_actions([[1, 1], [1, 1]], 2)
    mix = MixturePolicy(((0.4, safe), (0.6, risky)))
    v_r, v_c = evaluate_mixture(m, mix)
    assert v_r == pytest.approx(0.6, abs=1e-15)
    assert v_c == pytest.approx(0.6, abs=1e-15)


def test_mixture_is_weighted_average_of_components():
    m = random_instance(3, 2, 3, seed=7)
    rng = np.random.default_rng(3)
    comps = [Policy.from_actions(rng.integers(0, 2, size=(3, 3)), 2) for _ in range(3)]
    mix = MixturePolicy(((0.2, comps[0]), (0.3, comps[1]), (0.5, comps[2])))
    parts = [evaluate_policy(m.transition, m.reward[None], p)[0, 0, 0] for p in comps]
    expect = 0.2 * parts[0] + 0.3 * parts[1] + 0.5 * parts[2]
    assert evaluate_mixture(m, mix)[0] == pytest.approx(expect, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(num_states=st.integers(1, 4), num_actions=st.integers(1, 3),
       horizon=st.integers(1, 4), seed=st.integers(0, 10_000))
def test_values_bounded_by_remaining_steps(num_states, num_actions, horizon, seed):
    # stage costs in [0, 1] force V_h in [0, H - h] for every policy
    m = random_instance(num_states, num_actions, horizon, seed)
    rng = np.random.default_rng(seed + 1)
    pi = Policy.from_actions(rng.integers(0, num_actions, size=(horizon, num_states)),
                             num_actions)
    v = evaluate_policy(m.transition, m.reward[None], pi)[0]
    for h in range(horizon + 1):
        assert np.all(v[h] >= -1e-12)
        assert np.all(v[h] <= horizon - h + 1e-12)


# ---------------------------------------------------------------------------
# Greedy backup and the feasibility margin.


def test_greedy_backup_dominates_enumeration():
    m = random_instance(2, 2, 2, seed=11)
    _, v = greedy_backup(m.transition, m.reward[None])
    best = max(evaluate_policy(m.transition, m.reward[None], p)[0, 0, 0]
               for p in all_deterministic_policies(m))
    assert v[0, 0, 0] == pytest.approx(best, abs=1e-12)
    _, v_min = greedy_backup(m.transition, -m.cost[None])  # the minimum, negated
    worst = min(evaluate_policy(m.transition, m.cost[None], p)[0, 0, 0]
                for p in all_deterministic_policies(m))
    assert -v_min[0, 0, 0] == pytest.approx(worst, abs=1e-12)


def test_greedy_backup_breaks_ties_toward_lower_action():
    kernel = np.ones((1, 1, 3, 1))
    stage = np.array([[[0.4, 0.4, 0.4]]])
    actions, _ = greedy_backup(kernel, stage[None])
    assert actions[0, 0] == 0


def _two_gather_induction(q_step, shape, score):
    """The greedy sweep before one flat gather served every shape: q[:, rows,
    best] for (k, H, S), and q[problems, :, rows, best] for (L, k, H, S).
    Kept to pin the flat gather's bits."""
    *lead, horizon, num_states = shape
    v = np.zeros((*lead, horizon + 1, num_states))
    actions = np.zeros((horizon, *lead[:-1], num_states), dtype=int)
    rows = np.arange(num_states)
    problems = np.arange(lead[0])[:, None] if len(lead) == 2 else None
    for h in range(horizon - 1, -1, -1):
        q = q_step(h, v[..., h + 1, :])
        actions[h] = best = score(q).argmax(axis=-1)
        if problems is None:
            v[:, h] = q[:, rows, best]
        else:  # the advanced indices broadcast to (L, S) and lead the result
            v[:, :, h] = q[problems, :, rows, best].transpose(0, 2, 1)
    return actions, v


@pytest.mark.parametrize("lead", [(1,), (2,), (1, 2), (3, 2), (50, 2)],
                         ids=lambda lead: "x".join(map(str, lead)))
def test_flat_gather_matches_the_two_gathers_it_replaced(lead):
    # action 1 duplicates action 0 (an exact tie at every score, which action
    # 0 must win) and action 3 is one ulp above action 2 in every table
    m = random_instance(6, 5, 4, seed=17)
    base = _expected_stage(m.transition, m.stages[:lead[-1]])

    def q_step(h, v_next):
        q = base(h, v_next)
        q[..., 1] = q[..., 0]
        q[..., 3] = np.nextafter(q[..., 2], np.inf)
        return q

    lams = np.random.default_rng(len(lead) * lead[0]).uniform(0.0, 2.0, lead[0])
    lams[0] = 0.0
    lam_col = lams[:, None, None]
    score = {(1,): lambda q: q[0], (2,): lambda q: q[0] - lams[-1] * q[1]}.get(
        lead, lambda q: q[:, 0] - lam_col * q[:, 1])
    shape = (*lead, m.horizon, m.num_states)
    actions, v = _backward_induction(q_step, shape, score=score)
    want_actions, want_v = _two_gather_induction(q_step, shape, score)
    assert actions.shape == (m.horizon, *lead[:-1], m.num_states)
    assert np.array_equal(actions, want_actions)
    assert np.array_equal(v, want_v)
    assert not (actions == 1).any()
    assert (actions == 3).any()


def test_slater_constant_matches_enumerated_min_cost():
    m = random_instance(2, 2, 2, seed=13, budget=1.2)
    zeta, pi_min = slater_constant(m)
    best = min(evaluate_policy(m.transition, m.cost[None], p)[0, 0, 0]
               for p in all_deterministic_policies(m))
    assert zeta == pytest.approx(m.budget - best, abs=1e-12)
    got = evaluate_policy(m.transition, m.cost[None], pi_min)[0, 0, 0]
    assert got == pytest.approx(best, abs=1e-12)


def test_slater_constant_bits_match_minimizing_sweep():
    # maximizing -c is the minimizing sweep on c, negated exactly: the same
    # lowest-index argmin at ties, and zeta is b less the policy's own V_c
    for m in tie_instances() + [random_instance(4, 3, 5, seed=s) for s in range(4)]:
        zeta, pi_min = slater_constant(m)
        want_actions, want_v = _backward_induction(
            _expected_stage(m.transition, m.cost[None]), (1, m.horizon, m.num_states),
            score=lambda q: -q[0])
        assert pi_min == Policy.from_actions(want_actions, m.num_actions)
        s1 = m.initial_state
        assert zeta == m.budget - want_v[0, 0, s1]
        assert zeta == m.budget - evaluate_policy(m.transition, m.cost[None], pi_min)[0, 0, s1]
        assert type(zeta) is float


def test_slater_constant_invariant_under_state_relabeling():
    m = random_instance(3, 2, 3, seed=17)
    perm = np.array([2, 0, 1])  # new index of each old state
    kernel = np.zeros_like(m.transition)
    for s in range(3):
        for t in range(3):
            kernel[:, perm[s], :, perm[t]] = m.transition[:, s, :, t]
    reward = np.zeros_like(m.reward)
    cost = np.zeros_like(m.cost)
    reward[:, perm, :] = m.reward
    cost[:, perm, :] = m.cost
    m2 = TabularCmdp(3, 2, 3, kernel, reward, cost, m.budget, int(perm[m.initial_state]))
    assert slater_constant(m2)[0] == pytest.approx(slater_constant(m)[0], abs=1e-12)


def test_preset_slater_constants():
    assert slater_constant(preset("two_state_chain"))[0] == pytest.approx(0.6)
    assert slater_constant(preset("single_state_tradeoff"))[0] == pytest.approx(0.5)
    assert slater_constant(preset("risky_shortcut"))[0] == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# Containers.


def test_instance_arrays_are_frozen():
    m = random_instance(2, 2, 2, seed=19)
    with pytest.raises(ValueError):
        m.transition[0, 0, 0, 0] = 0.5
    with pytest.raises(ValueError):
        m.reward[0, 0, 0] = 0.5
    pi = Policy.uniform(2, 2, 2)
    with pytest.raises(ValueError):
        pi.rule[0, 0, 0] = 1.0


def test_policy_from_actions_is_one_hot():
    pi = Policy.from_actions([[2, 0]], 3)
    assert pi.rule.tolist() == [[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]]
    assert pi.validate() == []


def test_policy_from_actions_rejects_truncated_or_wrapped_actions():
    # int() truncated 1.7 to 1, and numpy's index wrapped -1 round to A - 1
    for actions in ([[1.7, 0], [0, 0]], np.zeros((2, 2)), [[True, False], [False, False]]):
        with pytest.raises(ValueError, match="^actions must be integers, got dtype "):
            Policy.from_actions(actions, 2)
    with pytest.raises(ValueError, match=r"^action -1 at \(h=0, s=0\) outside \[0, 2\)$"):
        Policy.from_actions([[-1, 0], [0, 0]], 2)
    with pytest.raises(ValueError, match=r"^action 2 at \(h=0, s=1\) outside \[0, 2\); "
                                         r"action -3 at \(h=1, s=0\) outside \[0, 2\)$"):
        Policy.from_actions(np.array([[0, 2], [-3, 1]], dtype=np.int8), 2)
    for dtype in (np.int32, np.uint8, np.int64):
        pi = Policy.from_actions(np.array([[1, 0], [0, 1]], dtype=dtype), 2)
        assert pi == Policy.from_actions([[1, 0], [0, 1]], 2)


def test_policy_validate_flags_bad_rows():
    bad = Policy(np.array([[[0.6, 0.3]]]))
    assert any("sums to" in p for p in bad.validate())
    neg = Policy(np.array([[[-0.2, 1.2]]]))
    assert any("negative" in p for p in neg.validate())


def test_policy_validate_reports_non_finite_entries():
    rule = np.array([[[0.5, 0.5], [np.nan, 1.0]], [[1.0, 0.0], [0.0, np.inf]]])
    assert Policy(rule).validate() == [
        "rule entry (h=0, s=1, a=0) = nan is not finite",
        "rule entry (h=1, s=1, a=1) = inf is not finite"]


def test_mixture_rejects_non_finite_weights():
    # NaN fails every comparison, so these used to pass both weight checks
    pi = Policy.uniform(1, 1, 2)
    for weights in ((np.nan,), (np.nan, 1.0), (1.0, np.nan), (np.inf,), (np.inf, -np.inf)):
        with pytest.raises(ValueError, match="mixture weights"):
            MixturePolicy(tuple((w, pi) for w in weights))


def test_policy_equality_and_hash_are_by_value():
    a = Policy.from_actions([[1, 0], [0, 1]], 2)
    b = Policy(a.rule.copy())
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != Policy.from_actions([[1, 0], [0, 0]], 2)
    # same bytes under a different shape is a different policy
    flat = Policy(a.rule.reshape(1, 4, 2))
    assert flat.rule.tobytes() == a.rule.tobytes()
    assert flat != a
    assert a != a.rule.tolist()
    # the key is taken once at construction, so the rule must never change:
    # it is read-only and does not share memory with the caller's array
    with pytest.raises(ValueError):
        a.rule[0, 0, 0] = 0.5
    with pytest.raises(ValueError):
        a.rule.setflags(write=True)
    src = a.rule.copy()
    c = Policy(src)
    src[0, 0] = 0.5
    assert c == a and hash(c) == hash(a)


def test_policy_rule_must_be_three_dimensional():
    with pytest.raises(ValueError):
        Policy(np.ones((2, 2)))


def test_mixture_rejects_bad_weights():
    pi = Policy.uniform(1, 1, 2)
    with pytest.raises(ValueError):
        MixturePolicy(())
    with pytest.raises(ValueError):
        MixturePolicy(((0.7, pi), (0.7, pi)))
    with pytest.raises(ValueError):
        MixturePolicy(((-0.5, pi), (1.5, pi)))
    single = MixturePolicy.single(pi)
    assert single.weights().tolist() == [1.0]


def test_normalize_transition_rows():
    rows = np.array([[[[2.0, 2.0], [1.0, 3.0]]]])
    out = normalize_transition_rows(rows)
    assert np.allclose(out.sum(axis=-1), 1.0)
    assert out[0, 0, 1].tolist() == [0.25, 0.75]


# ---------------------------------------------------------------------------
# Structural validation: one corrupted invariant per case.


def _with(m, **kw):
    base = dict(num_states=m.num_states, num_actions=m.num_actions,
                horizon=m.horizon, transition=m.transition, reward=m.reward,
                cost=m.cost, budget=m.budget, initial_state=m.initial_state)
    base.update(kw)
    return TabularCmdp(**base)


@pytest.fixture
def clean():
    return random_instance(2, 2, 2, seed=23)


def test_validate_accepts_clean_instance(clean):
    assert validate_cmdp(clean) == []
    for name in ("two_state_chain", "single_state_tradeoff", "risky_shortcut"):
        assert validate_cmdp(preset(name)) == []


def test_validate_flags_bad_dimensions(clean):
    kinds = [v.kind for v in validate_cmdp(_with(clean, num_states=0))]
    assert "dimensions" in kinds


def test_validate_flags_shape_mismatch(clean):
    out = validate_cmdp(_with(clean, transition=np.full((2, 2, 2, 3), 0.5)))
    assert [v.kind for v in out] == ["shape"]


def test_validate_flags_negative_transition(clean):
    k = np.array(clean.transition)
    k[0, 1, 0] = [-0.1, 1.1]  # still sums to one, only negativity fires
    out = validate_cmdp(_with(clean, transition=k))
    assert [(v.kind, v.location) for v in out] == [
        ("transition_negative", (0, 1, 0, 0))]
    assert out[0].magnitude == pytest.approx(0.1)


def test_validate_flags_row_sum(clean):
    k = np.array(clean.transition)
    k[1, 0, 1] = [0.7, 0.7]
    out = validate_cmdp(_with(clean, transition=k))
    assert [(v.kind, v.location) for v in out] == [("row_sum", (1, 0, 1))]
    assert out[0].magnitude == pytest.approx(0.4)


def test_validate_flags_stage_ranges(clean):
    r = np.array(clean.reward)
    r[0, 0, 1] = 1.5
    out = validate_cmdp(_with(clean, reward=r))
    assert [(v.kind, v.location) for v in out] == [("reward_range", (0, 0, 1))]
    c = np.array(clean.cost)
    c[1, 1, 0] = -0.25
    out = validate_cmdp(_with(clean, cost=c))
    assert [(v.kind, v.location) for v in out] == [("cost_range", (1, 1, 0))]


def test_validate_flags_non_finite_entries(clean):
    # NaN slips through every range comparison, so it is reported by location
    k = np.array(clean.transition)
    k[1, 0, 1, 1] = np.nan
    r = np.array(clean.reward)
    r[0, 1, 0] = np.inf
    c = np.array(clean.cost)
    c[1, 1, 1] = -np.inf
    out = validate_cmdp(_with(clean, transition=k, reward=r, cost=c))
    assert [(v.kind, v.location) for v in out] == [
        ("non_finite", (1, 0, 1, 1)), ("non_finite", (0, 1, 0)),
        ("non_finite", (1, 1, 1))]
    assert "nan" in str(out[0]) and "-inf" in str(out[2])


def test_validate_flags_budget_and_initial_state(clean):
    assert [v.kind for v in validate_cmdp(_with(clean, budget=0.0))] == ["budget"]
    assert [v.kind for v in validate_cmdp(_with(clean, budget=2.5))] == ["budget"]
    assert [v.kind for v in validate_cmdp(_with(clean, initial_state=5))] == [
        "initial_state"]
    assert str(validate_cmdp(_with(clean, budget=0.0))[0])  # printable


# ---------------------------------------------------------------------------
# Files and hashing.


def test_save_load_round_trip_exact_for_exact_kernels(tmp_path):
    # preset kernels are 0/1 rows, so the loader's renormalization divides
    # by exactly 1.0 and the round trip is bit-identical, hash included
    m = preset("two_state_chain")
    path = tmp_path / "inst.json"
    save_instance(m, path)
    m2 = load_instance(path)
    assert np.array_equal(m.transition, m2.transition)
    assert np.array_equal(m.reward, m2.reward)
    assert np.array_equal(m.cost, m2.cost)
    assert (m2.budget, m2.initial_state) == (m.budget, m.initial_state)
    assert instance_hash(m2) == instance_hash(m)


def _saved_instances():
    for dims in ((10, 4, 8), (3, 2, 3), (1, 1, 1), (30, 5, 10)):
        for seed in range(1, 6):
            m = generate(GenSpec(*dims, zeta_target=0.5, seed=seed))
            yield "x".join(map(str, dims)) + f"-seed{seed}", m
    yield from ((name, preset(name)) for name in preset_names())
    # reprs with exponents, subnormals and integral floats
    m = random_instance(2, 2, 2, seed=5)
    reward = np.array(m.reward)
    reward.flat[:6] = [1e-05, 5e-324, 1e16, 1.0, 0.0, 2.2250738585072014e-308]
    yield "odd-floats", _with(m, reward=reward, budget=1e-7)


@pytest.mark.parametrize("m", [pytest.param(m, id=label) for label, m in _saved_instances()])
def test_save_instance_writes_json_dump_bytes(tmp_path, m):
    # save_instance's own writer stands in for json.dump(indent=2), which
    # runs the pure-Python encoder; the file must not move by a byte
    path = tmp_path / "inst.json"
    save_instance(m, path)
    want = json.dumps(_instance_payload(m), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode()


@pytest.mark.parametrize("m", [pytest.param(m, id=label) for label, m in _saved_instances()])
def test_save_instance_returns_the_instance_hash(tmp_path, m):
    # the saved text less its whitespace is the compact JSON instance_hash hashes
    assert save_instance(m, tmp_path / "inst.json") == instance_hash(m)


def test_save_load_round_trip_random_kernel(tmp_path):
    # rows that sum to 1 only within float error get renormalized on load,
    # so the kernel may move by an ulp; everything else is exact
    m = random_instance(3, 2, 3, seed=29)
    path = tmp_path / "inst.json"
    save_instance(m, path)
    m2 = load_instance(path)
    assert np.allclose(m.transition, m2.transition, atol=1e-14, rtol=0)
    assert np.array_equal(m.reward, m2.reward)
    assert np.array_equal(m.cost, m2.cost)
    assert (m2.budget, m2.initial_state) == (m.budget, m.initial_state)


def test_load_renormalizes_almost_stochastic_rows(tmp_path):
    m = preset("single_state_tradeoff")
    path = tmp_path / "inst.json"
    save_instance(m, path)
    doc = json.loads(path.read_text())
    doc["P"] = (np.array(doc["P"]) * (1 + 2e-10)).tolist()  # inside tolerance
    path.write_text(json.dumps(doc))
    m2 = load_instance(path)
    assert np.allclose(np.asarray(m2.transition).sum(axis=-1), 1.0, atol=1e-15)


def test_load_rejects_garbage_and_missing_keys(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("not json at all {")
    with pytest.raises(ValueError, match="malformed"):
        load_instance(p)
    q = tmp_path / "short.json"
    q.write_text(json.dumps({"S": 1, "A": 1}))
    with pytest.raises(ValueError, match="malformed"):
        load_instance(q)


def test_load_rejects_invalid_instance(tmp_path):
    m = preset("single_state_tradeoff")
    path = tmp_path / "inst.json"
    save_instance(m, path)
    doc = json.loads(path.read_text())
    doc["b"] = -1.0
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="invalid"):
        load_instance(path)


def test_load_rejects_non_finite_entries(tmp_path):
    m = preset("single_state_tradeoff")
    path = tmp_path / "inst.json"
    save_instance(m, path)
    doc = json.loads(path.read_text())
    doc["c"][0][0][1] = float("nan")
    path.write_text(json.dumps(doc))  # json writes the NaN literal
    with pytest.raises(ValueError, match=r"c entry \(0, 0, 1\) = nan"):
        load_instance(path)


@pytest.mark.parametrize("field, value", [
    ("S", 2.7), ("A", True), ("H", "2"), ("s1", True), ("s1", 0.5), ("S", None)])
def test_load_rejects_non_integer_dimensions(tmp_path, field, value):
    m = preset("two_state_chain")
    path = tmp_path / "inst.json"
    save_instance(m, path)
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"field '{field}' must be an integer"):
        load_instance(path)


@pytest.mark.parametrize("value", [True, "0.5", None, [0.5]])
def test_load_rejects_non_number_budget(tmp_path, value):
    m = preset("two_state_chain")
    path = tmp_path / "inst.json"
    save_instance(m, path)
    doc = json.loads(path.read_text())
    doc["b"] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="field 'b' must be a number"):
        load_instance(path)


@pytest.mark.parametrize("key, entry", [("P", "0.5"), ("r", None), ("c", True)])
def test_load_rejects_non_number_table_entries(tmp_path, key, entry):
    m = preset("two_state_chain")
    path = tmp_path / "inst.json"
    save_instance(m, path)
    doc = json.loads(path.read_text())
    row = doc[key][0][0]
    if key == "P":
        row = row[0]
    row[0] = entry
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"field '{key}' must hold numbers"):
        load_instance(path)


def _set_weight(value):
    def edit(doc):
        doc["components"][0]["weight"] = value
    return edit


def _drop(key, component=False):
    def edit(doc):
        del (doc["components"][0] if component else doc)[key]
    return edit


def _set_action(value):
    def edit(doc):
        doc["components"][1]["actions"][1][0] = value
    return edit


@pytest.mark.parametrize("edit, match", [
    (_set_weight(True), "field 'weight' must be a number"),
    (_set_weight("1"), "field 'weight' must be a number"),
    (_set_weight(None), "field 'weight' must be a number"),
    (_drop("weight", component=True), "malformed policy file .*'weight'"),
    (_drop("rule", component=True), "malformed policy file .*'rule'"),
    (_drop("S"), "malformed policy file .*'S'"),
    (_drop("components"), "malformed policy file .*'components'"),
    (lambda doc: doc.update(S=True), "field 'S' must be an integer"),
    (lambda doc: doc.update(components=3), "malformed policy file"),
    (lambda doc: doc["components"][0]["rule"][0][0].__setitem__(0, "0.5"),
     "field 'rule' must hold numbers"),
    (_set_action(True), "field 'actions' must hold integers"),
    (_set_action(0.5), "field 'actions' must hold integers"),
    (_set_action("1"), "field 'actions' must hold integers"),
    (_set_action(-1), r"invalid policy .*component 1: action -1 at \(h=1, s=0\) outside \[0, 2\)"),
    (_set_action(2), r"invalid policy .*component 1: action 2 at \(h=1, s=0\) outside \[0, 2\)"),
    (lambda doc: doc["components"][1]["actions"][0].pop(),
     "field 'actions' must hold integers in a regular array"),
    (lambda doc: doc["components"][1]["actions"].pop(), r"actions shape \(1, 2\)"),
    (lambda doc: doc["components"][1].update(rule=doc["components"][0]["rule"]),
     "malformed policy file .*exactly one of 'rule' and 'actions'"),
    (lambda doc: doc["components"][1].pop("actions"),
     "malformed policy file .*exactly one of 'rule' and 'actions'"),
], ids=["weight-true", "weight-string", "weight-null", "no-weight", "no-rule",
        "no-S", "no-components", "S-true", "components-number", "rule-string",
        "action-true", "action-half", "action-string", "action-negative", "action-A",
        "actions-ragged", "actions-shape", "both-keys", "neither-key"])
def test_load_policy_rejects_malformed_files(tmp_path, edit, match):
    m = preset("two_state_chain")
    path = tmp_path / "p.json"
    save_policy(MixturePolicy(((0.5, Policy.uniform(2, 2, 2)),
                               (0.5, Policy.from_actions([[0, 1], [1, 0]], 2)))), m, path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=match):
        load_policy(path, m)


def test_load_policy_rejects_non_object_document(tmp_path):
    path = tmp_path / "p.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ValueError, match="malformed policy file"):
        load_policy(path, preset("two_state_chain"))


def test_load_policy_accepts_integral_float_actions(tmp_path):
    m = preset("two_state_chain")
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"S": 2, "A": 2, "H": 2, "components": [
        {"weight": 1, "actions": [[0.0, 1.0], [1, 0]]}]}))
    mix = load_policy(path, m)
    assert mix.components == ((1.0, Policy.from_actions([[0, 1], [1, 0]], 2)),)


def test_policy_file_round_trip_is_exact(tmp_path):
    m = preset("two_state_chain")
    one_hot = Policy.from_actions([[0, 1], [1, 0]], 2)
    near = Policy(np.where(one_hot.rule == 1.0, 1 - 1e-12, 1e-12))
    signed = Policy(np.where(one_hot.rule == 1.0, 1.0, -0.0))  # -0.0 where one_hot has 0.0
    mix = MixturePolicy(((0.2, Policy.uniform(2, 2, 2)), (0.3, one_hot), (0.3, near),
                         (0.1, Policy(one_hot.rule)), (0.1, signed)))
    # Policy.actions holds the table exactly when the rule's bytes are one-hot
    assert [p.actions for _, p in mix.components] == [
        None, [[0, 1], [1, 0]], None, [[0, 1], [1, 0]], None]
    path = tmp_path / "p.json"
    save_policy(mix, m, path)
    doc = json.loads(path.read_text())
    # only the exactly one-hot components are written as action tables
    assert [sorted(c) for c in doc["components"]] == [
        ["rule", "weight"], ["actions", "weight"], ["rule", "weight"],
        ["actions", "weight"], ["rule", "weight"]]
    assert doc["components"][1]["actions"] == [[0, 1], [1, 0]]
    assert load_policy(path, m).components == mix.components


def test_load_policy_reads_indented_rule_files(tmp_path):
    # the older format: every component a "rule" table, written with indent=2
    m = preset("two_state_chain")
    mix = MixturePolicy(((0.25, Policy.uniform(2, 2, 2)),
                         (0.75, Policy.from_actions([[1, 0], [0, 1]], 2))))
    path = tmp_path / "p.json"
    with open(path, "w") as f:
        json.dump({"S": 2, "A": 2, "H": 2, "components": [
            {"weight": w, "rule": p.rule.tolist()} for w, p in mix.components]},
            f, indent=2, sort_keys=True)
        f.write("\n")
    assert load_policy(path, m) == mix


_POLICY_JUNK = st.sampled_from([float("nan"), float("inf"), -float("inf"), True,
                                False, "0.5", None, -0.5, 2.0, [1.0]])


_ACTION_JUNK = st.sampled_from([True, False, 1.0, 0.5, float("nan"), "0", None, [0], -1])


@st.composite
def malformed_policy_docs(draw):
    """A valid policy document for a small instance, with at most one corruption."""
    s_, a_, h_ = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    m = random_instance(s_, a_, h_, seed=draw(st.integers(0, 100)))
    doc = json.loads(json.dumps({"S": s_, "A": a_, "H": h_, "components": [
        {"weight": 0.25, "rule": Policy.uniform(h_, s_, a_).rule.tolist()},
        {"weight": 0.75, "actions": np.zeros((h_, s_), int).tolist()}]}))
    kind = draw(st.sampled_from(["none", "weight", "rule_entry", "action_entry", "missing",
                                 "shape", "actions_shape", "keys", "dimension", "document"]))
    comp = doc["components"][draw(st.integers(0, 1))]
    rule_comp, actions_comp = doc["components"]
    if kind == "weight":
        comp["weight"] = draw(_POLICY_JUNK)
    elif kind == "rule_entry":
        row = rule_comp["rule"][draw(st.integers(0, h_ - 1))][draw(st.integers(0, s_ - 1))]
        row[draw(st.integers(0, a_ - 1))] = draw(_POLICY_JUNK)
    elif kind == "action_entry":
        row = actions_comp["actions"][draw(st.integers(0, h_ - 1))]
        row[draw(st.integers(0, s_ - 1))] = draw(st.one_of(_ACTION_JUNK, st.just(a_)))
    elif kind == "missing":
        key = draw(st.sampled_from(["S", "A", "H", "components", "weight", "rule", "actions"]))
        del {"weight": comp, "rule": rule_comp, "actions": actions_comp}.get(key, doc)[key]
    elif kind == "shape":
        how = draw(st.sampled_from(["extra_step", "ragged", "nested", "scalar"]))
        if how == "extra_step":
            rule_comp["rule"].append(rule_comp["rule"][0])
        elif how == "ragged":
            rule_comp["rule"][0][0].pop()
        else:
            rule_comp["rule"] = [rule_comp["rule"]] if how == "nested" else 0.5
    elif kind == "actions_shape":
        table = actions_comp["actions"]
        how = draw(st.sampled_from(["extra_step", "extra_state", "ragged", "nested", "scalar"]))
        if how == "extra_step":
            table.append(table[0])
        elif how == "extra_state":
            table[0].append(0)
        elif how == "ragged":
            table[0].pop()
        else:
            actions_comp["actions"] = [table] if how == "nested" else 0
    elif kind == "keys":  # both or neither of rule and actions
        if draw(st.booleans()):
            actions_comp["rule"] = rule_comp["rule"]
        else:
            del actions_comp["actions"]
    elif kind == "dimension":
        doc[draw(st.sampled_from(["S", "A", "H"]))] = draw(st.one_of(
            _POLICY_JUNK, st.integers(-1, 4)))
    elif kind == "document":
        doc = draw(st.sampled_from([[doc], "policy", 1.0, None]))
    return m, doc


@settings(max_examples=200, deadline=None)
@given(case=malformed_policy_docs())
def test_malformed_policy_files_are_rejected_or_finite(tmp_path_factory, case):
    m, doc = case
    path = tmp_path_factory.mktemp("policy") / "p.json"
    path.write_text(json.dumps(doc))
    try:
        mix = load_policy(path, m)
    except ValueError:
        return
    v_r, v_c = evaluate_mixture(m, mix)
    assert np.isfinite(v_r) and np.isfinite(v_c)


def test_load_accepts_integral_float_dimensions(tmp_path):
    m = preset("two_state_chain")
    path = tmp_path / "inst.json"
    save_instance(m, path)
    doc = json.loads(path.read_text())
    doc["S"], doc["s1"] = 2.0, 0.0
    path.write_text(json.dumps(doc))
    m2 = load_instance(path)
    assert (m2.num_states, m2.initial_state) == (2, 0)
    assert type(m2.num_states) is int and instance_hash(m2) == instance_hash(m)


def test_instance_hash_frozen_values():
    # regression pins: content-addressed ids of the shipped presets
    assert instance_hash(preset("two_state_chain")) == (
        "02b5066d7c6ae14ce16867c5025efa0a83a4c598c94d3b454cc0bdcbebde2c6e")
    assert instance_hash(preset("single_state_tradeoff")) == (
        "79141d367e6fd2893b843b88c80fff9578fe47056c1f47b37e944b3b46e30c37")
    assert instance_hash(preset("risky_shortcut")) == (
        "ea3f794d38887affa4f891f4802044381075a4124feb4df3a5b3eea63963c8e2")


def test_instance_hash_sensitive_to_budget():
    m = preset("two_state_chain")
    m2 = _with(m, budget=0.61)
    assert instance_hash(m2) != instance_hash(m)
