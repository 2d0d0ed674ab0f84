"""Counter-based PRNG and trajectory sampling.

The u64 sequence for seed 0 is pinned to the published reference vectors of
the splitmix64 generator, so any drift in the golden constant or the mixing
function shows up as a hard failure here.
"""

import math

import numpy as np
import pytest

from cmdplab import (MixturePolicy, Policy, SplitMix64, episode_stream,
                     evaluate_policy, monte_carlo_value, preset,
                     sample_episode, sample_mixture_episode)
from cmdplab.simulate import (_BLOCK, _GOLDEN, _MASK, _cdf_table, _draw,
                              _mix64_array, _stream_floats, mix64)
from conftest import random_instance

REF_SEQ = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


class _Scripted:
    """Stand-in rng feeding categorical() a fixed list of uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def next_float(self):
        return self.values.pop(0)


def test_u64_reference_vectors():
    rng = SplitMix64(0)
    assert tuple(rng.next_u64() for _ in range(3)) == REF_SEQ


def test_mix64_matches_first_output():
    # first draw from seed 0 is mix64 applied to the golden increment
    assert mix64(0x9E3779B97F4A7C15) == REF_SEQ[0]


def test_float_uses_top_53_bits():
    rng = SplitMix64(0)
    assert rng.next_float() == (REF_SEQ[0] >> 11) * 2.0**-53
    assert rng.next_float() == (REF_SEQ[1] >> 11) * 2.0**-53


def test_floats_stay_in_unit_interval():
    rng = SplitMix64(123456789)
    draws = [rng.next_float() for _ in range(10_000)]
    assert min(draws) >= 0.0
    assert max(draws) < 1.0


def test_categorical_inverse_cdf_cutpoints():
    probs = [0.25, 0.25, 0.5]
    fake = _Scripted([0.0, 0.2499, 0.25, 0.5, 0.9999])
    draws = [SplitMix64.categorical(fake, probs) for _ in range(5)]
    assert draws == [0, 0, 1, 2, 2]


def test_categorical_fallback_on_deficient_rows():
    # rounding can leave sum(probs) slightly below u; last index absorbs it
    fake = _Scripted([0.99999999])
    assert SplitMix64.categorical(fake, [0.3, 0.3, 0.3999]) == 2


def test_categorical_fallback_skips_zero_probability_tail():
    # 0.5 + 0.49999 < 1 - 2**-53, so the draw falls off the end; it lands on
    # the last index that has mass, never on the zero-probability index 2
    fake = _Scripted([1.0 - 2.0**-53, 1.0 - 2.0**-53])
    assert SplitMix64.categorical(fake, [0.5, 0.49999, 0.0]) == 1
    assert SplitMix64.categorical(fake, [0.0, 0.3, 0.0, 0.0]) == 1


def test_categorical_marginal_frequencies():
    probs = [0.1, 0.6, 0.3]
    rng = SplitMix64(7)
    n = 20_000
    counts = np.bincount([rng.categorical(probs) for _ in range(n)], minlength=3)
    for i, p in enumerate(probs):
        band = 4 * np.sqrt(p * (1 - p) / n)
        assert abs(counts[i] / n - p) < band


def test_episode_streams_are_deterministic_and_distinct():
    a1 = [episode_stream(42, 0).next_u64() for _ in range(2)]
    a2 = [episode_stream(42, 0).next_u64() for _ in range(2)]
    assert a1 == a2
    assert episode_stream(42, 0).next_u64() != episode_stream(42, 1).next_u64()
    assert episode_stream(42, 0).next_u64() != episode_stream(43, 0).next_u64()


def test_sample_episode_shape_and_chaining():
    m = random_instance(3, 2, 4, seed=5)
    pi = Policy.uniform(4, 3, 2)
    traj = sample_episode(m, pi, episode_stream(1, 0))
    assert len(traj.steps) == 4
    assert [st.h for st in traj.steps] == [0, 1, 2, 3]
    assert traj.steps[0].state == m.initial_state
    for prev, nxt in zip(traj.steps, traj.steps[1:]):
        assert prev.next_state == nxt.state
    for st in traj.steps:
        assert st.reward == m.reward[st.h, st.state, st.action]
        assert st.cost == m.cost[st.h, st.state, st.action]


def test_trajectory_totals_sum_steps():
    m = random_instance(2, 2, 3, seed=9)
    traj = sample_episode(m, Policy.uniform(3, 2, 2), episode_stream(2, 5))
    assert traj.total_reward == pytest.approx(
        sum(st.reward for st in traj.steps), abs=1e-15)
    assert traj.total_cost == pytest.approx(
        sum(st.cost for st in traj.steps), abs=1e-15)


def test_sample_episode_rejects_mismatched_policy():
    m = random_instance(2, 2, 3, seed=11)
    with pytest.raises(ValueError):
        sample_episode(m, Policy.uniform(3, 3, 2), episode_stream(0, 0))


def test_mixture_component_frequencies():
    m = preset("two_state_chain")
    a = Policy.from_actions([[0, 0], [0, 0]], 2)
    b = Policy.from_actions([[1, 1], [1, 1]], 2)
    mix = MixturePolicy(((0.3, a), (0.7, b)))
    n = 10_000
    picks = np.array([sample_mixture_episode(m, mix, episode_stream(3, e))[0]
                      for e in range(n)])
    freq = (picks == 1).mean()
    assert abs(freq - 0.7) < 4 * np.sqrt(0.3 * 0.7 / n)


def test_mixture_episode_consistent_with_component():
    # replaying the same stream must give the chosen component's trajectory
    m = preset("risky_shortcut")
    mix = MixturePolicy.single(Policy.uniform(3, 3, 2))
    idx, traj = sample_mixture_episode(m, mix, episode_stream(8, 1))
    assert idx == 0
    rng = episode_stream(8, 1)
    rng.categorical([1.0])  # burn the component draw
    assert sample_episode(m, mix.components[0][1], rng) == traj


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
    vr = evaluate_policy(m.transition, m.reward, pi).initial(m.initial_state)
    vc = evaluate_policy(m.transition, m.cost, pi).initial(m.initial_state)
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
    """One episode at a time through sample_mixture_episode: the definition
    the batched sampler must reproduce bit for bit."""
    rewards = np.empty(episodes)
    costs = np.empty(episodes)
    for i in range(episodes):
        _, traj = sample_mixture_episode(m, mix, episode_stream(seed, i))
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
        want = [SplitMix64.categorical(_Scripted([u]), row) for u in uniforms]
        assert got.tolist() == want, row


def test_cdf_tables_draw_per_row():
    # stacked (rows, k) tables: each episode looks up its own row
    probs = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.2, 0.0, 0.79999]])
    cdf, last = _cdf_table(probs)
    assert last.tolist() == [1, 2, 2]
    pick = np.array([0, 1, 2, 2, 0])
    u = np.array([0.7, 0.1, 0.1, 1.0 - 2.0**-53, 0.2])
    got = _draw(cdf[pick], last[pick], u)
    want = [SplitMix64.categorical(_Scripted([x]), probs[r]) for r, x in zip(pick, u)]
    assert got.tolist() == want == [1, 2, 0, 2, 0]
