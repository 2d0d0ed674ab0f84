"""Counter-based PRNG streams and trajectory sampling.

The u64 sequence for seed 0 is pinned to the published reference vectors of
the splitmix64 generator, both in the scalar reference generator and in the
array streams cmdplab draws from, so any drift in the golden constant or the
mixing function shows up as a hard failure here.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from cmdplab import (MixturePolicy, Policy, evaluate_policy, monte_carlo_value,
                     preset, sample_mixture_episode)
from cmdplab.simulate import (_BLOCK, _GOLDEN, _MASK, _cdf_table, _draw,
                              _mix64_array, _stream_floats, categorical, mix64)
from conftest import random_instance
from splitmix_reference import (Scripted, SplitMix64, episode_stream,
                                sample_episode, sample_mixture_trajectory)

REF_SEQ = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_u64_reference_vectors():
    rng = SplitMix64(0)
    assert tuple(rng.next_u64() for _ in range(3)) == REF_SEQ


def test_mix64_matches_first_output():
    # first draw from seed 0 is mix64 applied to the golden increment
    assert mix64(0x9E3779B97F4A7C15) == REF_SEQ[0]


def test_float_uses_top_53_bits():
    want = [(z >> 11) * 2.0**-53 for z in REF_SEQ]
    rng = SplitMix64(0)
    assert [rng.next_float() for _ in range(3)] == want
    # episode 0 of seed 0 starts from state mix64(mix64(0) + 0) = 0, so the
    # array stream's first row is SplitMix64(0)'s output
    assert _stream_floats(0, 0, 1, 3)[0].tolist() == want


def test_floats_stay_in_unit_interval():
    draws = _stream_floats(123456789, 0, 10, 1_000)
    assert draws.min() >= 0.0
    assert draws.max() < 1.0
    rng = SplitMix64(123456789)
    draws = [rng.next_float() for _ in range(10_000)]
    assert min(draws) >= 0.0
    assert max(draws) < 1.0


def test_categorical_inverse_cdf_cutpoints():
    probs = [0.25, 0.25, 0.5]
    draws = [categorical(probs, u) for u in (0.0, 0.2499, 0.25, 0.5, 0.9999)]
    assert draws == [0, 0, 1, 2, 2]


def test_categorical_fallback_on_deficient_rows():
    # rounding can leave sum(probs) slightly below u; last index absorbs it
    assert categorical([0.3, 0.3, 0.3999], 0.99999999) == 2


def test_categorical_fallback_skips_zero_probability_tail():
    # 0.5 + 0.49999 < 1 - 2**-53, so the draw falls off the end; it lands on
    # the last index that has mass, never on the zero-probability index 2
    assert categorical([0.5, 0.49999, 0.0], 1.0 - 2.0**-53) == 1
    assert categorical([0.0, 0.3, 0.0, 0.0], 1.0 - 2.0**-53) == 1


def test_categorical_marginal_frequencies():
    probs = [0.1, 0.6, 0.3]
    n = 20_000
    u = _stream_floats(7, 0, 1, n)[0].tolist()
    counts = np.bincount([categorical(probs, x) for x in u], minlength=3)
    for i, p in enumerate(probs):
        band = 4 * np.sqrt(p * (1 - p) / n)
        assert abs(counts[i] / n - p) < band


def test_episode_streams_are_deterministic_and_distinct():
    a = _stream_floats(42, 0, 2, 2)
    assert np.array_equal(a, _stream_floats(42, 0, 2, 2))
    assert a[0, 0] != a[1, 0]  # episodes 0 and 1
    assert a[0, 0] != _stream_floats(43, 0, 1, 1)[0, 0]  # seeds 42 and 43
    assert np.array_equal(a[1:], _stream_floats(42, 1, 1, 2))  # rows need no prefix


def test_sample_episode_shape_and_chaining():
    m = random_instance(3, 2, 4, seed=5)
    mix = MixturePolicy.single(Policy.uniform(4, 3, 2))
    idx, steps = sample_mixture_episode(m, mix, _stream_floats(1, 0, 1, 9)[0])
    assert idx == 0
    assert len(steps) == 4
    assert steps[0][0] == m.initial_state
    for prev, nxt in zip(steps, steps[1:]):
        assert prev[2] == nxt[0]
    for s, a, sn in steps:
        assert 0 <= s < 3 and 0 <= a < 2 and 0 <= sn < 3


def test_trajectory_totals_sum_steps():
    # one Monte Carlo episode's totals are its steps' stage values summed in
    # h order, on the same row of uniforms the learner's draw reads
    m = random_instance(2, 2, 3, seed=9)
    mix = MixturePolicy.single(Policy.uniform(3, 2, 2))
    _, steps = sample_mixture_episode(m, mix, _stream_floats(2, 0, 1, 7)[0])
    stats = monte_carlo_value(m, mix, episodes=1, seed=2)
    assert stats["reward_mean"] == sum(m.reward[h, s, a] for h, (s, a, _) in enumerate(steps))
    assert stats["cost_mean"] == sum(m.cost[h, s, a] for h, (s, a, _) in enumerate(steps))


def test_sample_episode_rejects_mismatched_policy():
    m = random_instance(2, 2, 3, seed=11)
    mix = MixturePolicy.single(Policy.uniform(3, 3, 2))
    with pytest.raises(ValueError, match="does not match"):
        sample_mixture_episode(m, mix, _stream_floats(0, 0, 1, 7)[0])


def test_mixture_component_frequencies():
    m = preset("two_state_chain")
    a = Policy.from_actions([[0, 0], [0, 0]], 2)
    b = Policy.from_actions([[1, 1], [1, 1]], 2)
    mix = MixturePolicy(((0.3, a), (0.7, b)))
    n = 10_000
    rows = _stream_floats(3, 0, n, 5).tolist()
    picks = np.array([sample_mixture_episode(m, mix, u)[0] for u in rows])
    freq = (picks == 1).mean()
    assert abs(freq - 0.7) < 4 * np.sqrt(0.3 * 0.7 / n)


def test_mixture_episode_consistent_with_component():
    # the row's draws after the component's must give the chosen component's
    # trajectory on the scalar stream
    m = preset("risky_shortcut")
    mix = MixturePolicy.single(Policy.uniform(3, 3, 2))
    idx, steps = sample_mixture_episode(m, mix, _stream_floats(8, 1, 1, 7)[0])
    assert idx == 0
    rng = episode_stream(8, 1)
    rng.categorical([1.0])  # burn the component draw
    traj = sample_episode(m, mix.components[0][1], rng)
    assert steps == [(st.state, st.action, st.next_state) for st in traj.steps]


def test_monte_carlo_exact_on_deterministic_instance():
    # two_state_chain transitions are 0/1, so every episode is identical and
    # the estimator hits the backup value with zero variance
    m = preset("two_state_chain")
    pi = Policy.from_actions([[1, 1], [1, 1]], 2)
    stats = monte_carlo_value(m, MixturePolicy.single(pi), episodes=50, seed=13)
    assert stats["episodes"] == 50
    assert stats["reward_mean"] == pytest.approx(0.8, abs=1e-15)
    assert stats["cost_mean"] == pytest.approx(1.0, abs=1e-15)
    assert stats["reward_se"] < 1e-12  # identical episodes, only mean rounding
    assert stats["cost_se"] < 1e-12


def test_monte_carlo_tracks_backup_value():
    m = random_instance(3, 2, 3, seed=17)
    pi = Policy.uniform(3, 3, 2)
    stats = monte_carlo_value(m, MixturePolicy.single(pi), episodes=40_000, seed=19)
    vr, vc = evaluate_policy(m.transition, m.stages, pi)[:, 0, m.initial_state]
    assert abs(stats["reward_mean"] - vr) < 4 * stats["reward_se"]
    assert abs(stats["cost_mean"] - vc) < 4 * stats["cost_se"]


def test_monte_carlo_single_episode_has_zero_se():
    m = preset("single_state_tradeoff")
    stats = monte_carlo_value(m, MixturePolicy.single(Policy.uniform(1, 1, 2)),
                              episodes=1, seed=0)
    assert stats["reward_se"] == 0.0
    assert stats["cost_se"] == 0.0


def test_monte_carlo_rejects_bad_episode_counts():
    m = preset("single_state_tradeoff")
    mix = MixturePolicy.single(Policy.uniform(1, 1, 2))
    for episodes in (0, -5):
        with pytest.raises(ValueError, match="episodes must be >= 1"):
            monte_carlo_value(m, mix, episodes=episodes, seed=0)


def test_monte_carlo_rejects_mismatched_component():
    m = random_instance(2, 2, 3, seed=11)
    mix = MixturePolicy(((0.5, Policy.uniform(3, 2, 2)), (0.5, Policy.uniform(3, 3, 2))))
    with pytest.raises(ValueError, match="does not match"):
        monte_carlo_value(m, mix, episodes=10, seed=0)


# ---------------------------------------------------------------------------
# The batched Monte Carlo sampler against the one-episode-at-a-time path.


def reference_monte_carlo(m, mix, episodes, seed):
    """One episode at a time on the scalar streams: the definition the
    batched sampler must reproduce bit for bit."""
    rewards = np.empty(episodes)
    costs = np.empty(episodes)
    for i in range(episodes):
        _, traj = sample_mixture_trajectory(m, mix, episode_stream(seed, i))
        rewards[i] = traj.total_reward
        costs[i] = traj.total_cost

    def se(x):
        return float(x.std(ddof=1) / math.sqrt(episodes)) if episodes > 1 else 0.0

    return {"episodes": episodes,
            "reward_mean": float(rewards.mean()), "reward_se": se(rewards),
            "cost_mean": float(costs.mean()), "cost_se": se(costs)}


def random_mixture(m, components, seed):
    """Stochastic rules with some zero entries (never a whole row), random weights."""
    rng = np.random.default_rng(seed)
    shape = (m.horizon, m.num_states, m.num_actions)
    comps = []
    for w in rng.dirichlet(np.ones(components)):
        rule = rng.uniform(size=shape) * (rng.uniform(size=shape) > 0.3)
        rule[..., 0] += 1e-3
        comps.append((w, Policy(rule / rule.sum(axis=2, keepdims=True))))
    return MixturePolicy(tuple(comps))


@pytest.mark.parametrize("dims, components, episodes", [
    ((2, 2, 2), 1, 1),
    ((3, 2, 3), 2, 2),
    ((4, 3, 5), 3, _BLOCK - 1),
    ((2, 3, 4), 1, _BLOCK),
    ((5, 2, 3), 2, _BLOCK + 1),
    ((3, 3, 2), 3, 2 * _BLOCK + 7),
])
def test_batched_monte_carlo_matches_reference_loop(dims, components, episodes):
    s_, a_, h_ = dims
    m = random_instance(s_, a_, h_, seed=episodes + components)
    mix = random_mixture(m, components, seed=31 * episodes)
    for seed in (0, -3):
        assert (monte_carlo_value(m, mix, episodes, seed)
                == reference_monte_carlo(m, mix, episodes, seed))


def test_batched_monte_carlo_matches_reference_on_zero_transitions():
    # two_state_chain has 0/1 kernel rows: every successor draw sits on a
    # row with a zero-probability entry
    m = preset("two_state_chain")
    mix = random_mixture(m, 2, seed=4)
    assert (monte_carlo_value(m, mix, 300, 9)
            == reference_monte_carlo(m, mix, 300, 9))


def deficient_case(seed):
    """A 4x3x4 instance and a 3-component mixture whose kernel rows, rule rows
    and weights all sum just below 1 (within PROB_TOL) and whose last entries
    carry no probability, so a uniform past the total falls back."""
    m = random_instance(4, 3, 4, seed=seed)
    kernel = np.array(m.transition)
    kernel[..., -1] = 0.0
    kernel /= kernel.sum(axis=-1, keepdims=True)
    m = replace(m, transition=kernel * (1 - 1e-10))
    comps = []
    for w, p in random_mixture(m, 3, seed=seed).components:
        rule = np.array(p.rule)
        rule[..., -1] = 0.0
        rule /= rule.sum(axis=-1, keepdims=True)
        comps.append((w * (1 - 1e-10), Policy(rule * (1 - 1e-10))))
    return m, MixturePolicy(tuple(comps))


def one_hot_case(seed, build):
    """A 5x3x6 instance and a 3-component mixture of random one-hot rules,
    each build(p) of a from_actions policy p."""
    m = random_instance(5, 3, 6, seed=seed)
    rng = np.random.default_rng(seed)
    comps = []
    for w in rng.dirichlet(np.ones(3)):
        actions = rng.integers(m.num_actions, size=(m.horizon, m.num_states))
        comps.append((w, build(Policy.from_actions(actions, m.num_actions))))
    return m, MixturePolicy(tuple(comps))


def negative_zero(policy):
    """The policy's one-hot rule with every other zero entry written as -0.0."""
    rule = np.array(policy.rule)
    rule.flat[np.flatnonzero(rule == 0.0)[::2]] = -0.0
    return Policy(rule)


@pytest.mark.parametrize("case", ["mixture", "deficient", "two_state_chain", "from_actions",
                                  "one_hot_rule", "negative_zero", "short_weights"])
def test_sample_mixture_episode_matches_scalar_reference(case):
    if case == "mixture":
        m = random_instance(5, 3, 6, seed=21)
        mix = random_mixture(m, 4, seed=22)
    elif case == "deficient":
        m, mix = deficient_case(seed=23)
    elif case == "two_state_chain":  # 0/1 kernel rows: every successor draw meets a zero entry
        m = preset("two_state_chain")
        mix = random_mixture(m, 3, seed=24)
    elif case == "from_actions":  # components read their action tables
        m, mix = one_hot_case(25, lambda p: p)
        assert all(p.actions == p.rule.argmax(axis=2).tolist() for _, p in mix.components)
    elif case == "one_hot_rule":  # one-hot by bytes, found without from_actions
        m, mix = one_hot_case(26, lambda p: Policy(p.rule))
        assert all(p.actions is not None for _, p in mix.components)
    elif case == "negative_zero":  # not one-hot by bytes: drawn by categorical
        m, mix = one_hot_case(27, negative_zero)
        assert all(p.actions is None for _, p in mix.components)
    else:  # the weights' running sum ends below 1 - 2**-53, before a zero-weight tail
        m = random_instance(5, 3, 6, seed=28)
        policies = [p for _, p in random_mixture(m, 3, seed=28).components]
        mix = MixturePolicy(tuple(zip((0.5, 0.5 - 1e-10, 0.0), policies)))
        assert mix.cumulative[-1] < 1.0 - 2.0**-53
    draws = 1 + 2 * m.horizon

    def reference(rng):
        idx, traj = sample_mixture_trajectory(m, mix, rng)
        return idx, [(st.state, st.action, st.next_state) for st in traj.steps]

    for k, row in enumerate(_stream_floats(-5, 0, 300, draws).tolist()):
        assert sample_mixture_episode(m, mix, row) == reference(episode_stream(-5, k))
    # rows at the ends of [0, 1): 1 - 2**-53 lies past every deficient total
    rows = _stream_floats(6, 0, 300, draws)
    pick = np.random.default_rng(6).uniform(size=rows.shape)
    rows[pick < 0.2] = 0.0
    rows[pick > 0.7] = 1.0 - 2.0**-53
    for row in rows.tolist():
        assert sample_mixture_episode(m, mix, row) == reference(Scripted(row))


def test_array_finalizer_reproduces_reference_streams():
    steps = np.array([(j + 1) * _GOLDEN & _MASK for j in range(3)], dtype=np.uint64)
    assert tuple(int(z) for z in _mix64_array(steps)) == REF_SEQ
    for seed, start in ((0, 0), (42, 1000), (-7, 5), (2**64 - 1, 3)):
        got = _stream_floats(seed, start, 4, 5)
        for i in range(4):
            rng = episode_stream(seed, start + i)
            assert got[i].tolist() == [rng.next_float() for _ in range(5)]


def test_vectorised_draw_matches_categorical():
    rows = [
        [0.25, 0.25, 0.5],  # exact cut points
        [0.3, 0.3, 0.3999],  # deficient: sums below 1 within PROB_TOL
        [0.5, 0.49999, 0.0],  # deficient with a zero-probability tail
        [0.0, 0.3, 0.0, 0.0],
        [0.0, 0.0],  # no mass at all: categorical falls back to index 0
        [1.0],
        [0.1, 0.2, 0.3, 0.4],  # 0.1 + 0.2 rounds above 0.3
    ]
    uniforms = [0.0, 0.1, 0.2499, 0.25, 0.3, 0.30000000000000004, 0.5,
                0.59, 0.6, 0.99999999, 0.9999, 1.0 - 2.0**-53]
    uniforms += np.random.default_rng(0).uniform(size=50).tolist()
    for row in rows:
        cdf, last = _cdf_table(row)
        got = _draw(cdf, last, np.array(uniforms))
        want = [Scripted([u]).categorical(row) for u in uniforms]
        assert got.tolist() == want, row
        assert [categorical(row, u) for u in uniforms] == want, row


def test_cdf_tables_draw_per_row():
    # stacked (rows, k) tables: each episode looks up its own row
    probs = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.2, 0.0, 0.79999]])
    cdf, last = _cdf_table(probs)
    assert last.tolist() == [1, 2, 2]
    pick = np.array([0, 1, 2, 2, 0])
    u = np.array([0.7, 0.1, 0.1, 1.0 - 2.0**-53, 0.2])
    got = _draw(cdf[pick], last[pick], u)
    want = [Scripted([x]).categorical(probs[r]) for r, x in zip(pick, u)]
    assert got.tolist() == want == [1, 2, 0, 2, 0]
