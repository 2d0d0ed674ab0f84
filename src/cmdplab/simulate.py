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

A mixture episode consumes exactly 1 + 2H uniforms: uniform 0 picks the
component, 1 + 2h the action at step h and 2 + 2h its successor, and uniform j
is the finalizer of the stream's state plus (j + 1) golden increments.
monte_carlo_value uses that to draw a block of episodes at once: it computes
the block's uniforms as uint64 arrays and inverts cumulative-sum tables that
are accumulated left to right like categorical's, so every episode's totals
are the doubles sample_mixture_episode gives on the same stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import MixturePolicy, Policy, TabularCmdp

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Episodes that monte_carlo_value samples together: bounds the block's
# (episodes, 1 + 2H) uniform table without slowing the draws.
_BLOCK = 1024


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


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """mix64 over a uint64 array; array arithmetic wraps mod 2**64."""
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _stream_floats(seed: int, start: int, count: int, draws: int) -> np.ndarray:
    """(count, draws) uniforms: row i holds the first `draws` next_float()
    values of episode_stream(seed, start + i)."""
    episodes = np.arange(start, start + count, dtype=np.uint64)
    states = _mix64_array(np.uint64(mix64(seed)) + episodes)
    steps = np.array([(j + 1) * _GOLDEN & _MASK for j in range(draws)], dtype=np.uint64)
    bits = _mix64_array(states[:, None] + steps) >> np.uint64(11)
    return bits.astype(np.float64) * (1.0 / (1 << 53))


def _cdf_table(probs) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF table over the last axis of probs: the running sums
    (accumulated left to right, like categorical's acc += p) and the fallback,
    the last index with positive probability (0 when there is none)."""
    probs = np.asarray(probs, dtype=float)
    positive = probs[..., ::-1] > 0
    last = np.where(positive.any(-1), probs.shape[-1] - 1 - positive.argmax(-1), 0)
    return np.cumsum(probs, axis=-1), last


def _draw(cdf: np.ndarray, fallback: np.ndarray, u: np.ndarray) -> np.ndarray:
    """categorical for a batch: the first index whose cumulative probability
    in cdf[i] exceeds u[i], else fallback[i]."""
    above = cdf > u[:, None]
    return np.where(above.any(-1), above.argmax(-1), fallback)


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
    independent of evaluation order; each episode's totals equal those of
    sample_mixture_episode on that stream, bit for bit, though episodes are
    drawn _BLOCK at a time. Returns a dict with means and standard errors for
    both stages; episodes must be at least 1.
    """
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    shape = (m.horizon, m.num_states, m.num_actions)
    for _, policy in mix.components:
        if policy.rule.shape != shape:
            raise ValueError(f"policy shape {policy.rule.shape} does not match instance {shape}")
    weight_cdf, weight_last = _cdf_table([w for w, _ in mix.components])
    rule_cdf, rule_last = _cdf_table([p.rule for _, p in mix.components])
    kernel_cdf, kernel_last = _cdf_table(m.transition)
    rewards = np.empty(episodes)
    costs = np.empty(episodes)
    for start in range(0, episodes, _BLOCK):
        count = min(_BLOCK, episodes - start)
        u = _stream_floats(seed, start, count, 1 + 2 * m.horizon)
        comp = _draw(weight_cdf, weight_last, u[:, 0])
        s = np.full(count, m.initial_state)
        reward = np.zeros(count)
        cost = np.zeros(count)
        for h in range(m.horizon):  # totals add up in h order, like Trajectory's
            a = _draw(rule_cdf[comp, h, s], rule_last[comp, h, s], u[:, 1 + 2 * h])
            reward += m.reward[h, s, a]
            cost += m.cost[h, s, a]
            s = _draw(kernel_cdf[h, s, a], kernel_last[h, s, a], u[:, 2 + 2 * h])
        rewards[start:start + count] = reward
        costs[start:start + count] = cost
    return {
        "episodes": episodes,
        "reward_mean": float(rewards.mean()),
        "reward_se": float(rewards.std(ddof=1) / math.sqrt(episodes)) if episodes > 1 else 0.0,
        "cost_mean": float(costs.mean()),
        "cost_se": float(costs.std(ddof=1) / math.sqrt(episodes)) if episodes > 1 else 0.0,
    }
