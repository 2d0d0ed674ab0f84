"""Episode sampling with a counter-based, splittable 64-bit PRNG.

Randomness contract
-------------------
The generator is SplitMix64: state advances by the 64-bit golden-ratio
constant 0x9E3779B97F4A7C15 and each output is the finalizer

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB
    z ^= z >> 31

applied to the new state (all arithmetic mod 2**64). Uniform doubles take the
top 53 bits: (next_u64() >> 11) * 2**-53, giving values in [0, 1).

Stream splitting: episode i of a run seeded with `seed` uses the independent
generator SplitMix64(mix64(mix64(seed) + i)). Distinct episode indices give
distinct, well-separated streams, so episodes may be sampled out of order or
in parallel and still reproduce bit-identically.

Categorical draws invert the CDF in ascending index order: draw u, return the
first index whose cumulative probability exceeds u (or, when rounding leaves
the total at or below u, the last index with positive probability). Identical
seeds therefore give identical trajectories on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import MixturePolicy, Policy, TabularCmdp

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective avalanche mix."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Counter-based generator; the full algorithm is documented in the module docstring."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        return mix64(self.state)

    def next_float(self) -> float:
        # Top 53 bits -> uniform double in [0, 1).
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def categorical(self, probs) -> int:
        """Inverse-CDF draw over ascending indices; probs must sum to ~1."""
        u = self.next_float()
        acc = 0.0
        for i, p in enumerate(probs):
            acc += p
            if u < acc:
                return i
        # cumulative rounding left acc at or below u: the last index with mass
        return max((i for i, p in enumerate(probs) if p > 0), default=0)


def episode_stream(seed: int, episode: int) -> SplitMix64:
    """The per-episode generator: SplitMix64(mix64(mix64(seed) + episode))."""
    return SplitMix64(mix64((mix64(seed) + episode) & _MASK))


class Step(NamedTuple):
    h: int
    state: int
    action: int
    reward: float
    cost: float
    next_state: int


@dataclass(frozen=True)
class Trajectory:
    """One sampled episode: exactly H steps, h = 0..H-1 in order."""

    steps: tuple

    @property
    def total_reward(self) -> float:
        return sum(s.reward for s in self.steps)

    @property
    def total_cost(self) -> float:
        return sum(s.cost for s in self.steps)


def sample_episode(m: TabularCmdp, policy: Policy, rng: SplitMix64) -> Trajectory:
    """Roll one episode from s1: at each step draw the action, then the successor."""
    if policy.rule.shape != (m.horizon, m.num_states, m.num_actions):
        raise ValueError(
            f"policy shape {policy.rule.shape} does not match instance "
            f"({m.horizon}, {m.num_states}, {m.num_actions})")
    s = m.initial_state
    steps = []
    for h in range(m.horizon):
        a = rng.categorical(policy.rule[h, s])
        sn = rng.categorical(m.transition[h, s, a])
        steps.append(Step(h, s, a, float(m.reward[h, s, a]), float(m.cost[h, s, a]), sn))
        s = sn
    return Trajectory(tuple(steps))


def sample_mixture_episode(m: TabularCmdp, mix: MixturePolicy, rng: SplitMix64):
    """Draw the component once (inverse CDF over component index), then the episode."""
    idx = rng.categorical([w for w, _ in mix.components])
    return idx, sample_episode(m, mix.components[idx][1], rng)


def monte_carlo_value(m: TabularCmdp, mix: MixturePolicy, episodes: int, seed: int):
    """Monte-Carlo estimate of mixture reward and cost values at s1.

    Episode i uses episode_stream(seed, i), so estimates are reproducible and
    independent of evaluation order. Returns a dict with means and standard
    errors for both stages.
    """
    rewards = np.empty(episodes)
    costs = np.empty(episodes)
    for i in range(episodes):
        rng = episode_stream(seed, i)
        _, traj = sample_mixture_episode(m, mix, rng)
        rewards[i] = traj.total_reward
        costs[i] = traj.total_cost
    n = max(episodes, 1)
    return {
        "episodes": episodes,
        "reward_mean": float(rewards.mean()),
        "reward_se": float(rewards.std(ddof=1) / math.sqrt(n)) if episodes > 1 else 0.0,
        "cost_mean": float(costs.mean()),
        "cost_se": float(costs.std(ddof=1) / math.sqrt(n)) if episodes > 1 else 0.0,
    }
