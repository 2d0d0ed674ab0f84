"""Episode sampling on counter-based, splittable SplitMix64 streams.

Randomness contract
-------------------
The generator is SplitMix64 (Steele, Lea & Flood 2014): state advances by
the 64-bit golden-ratio constant 0x9E3779B97F4A7C15 and each output is the
finalizer mix64

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB
    z ^= z >> 31

applied to the new state (all arithmetic mod 2**64). Uniform doubles take the
top 53 bits of an output: (z >> 11) * 2**-53, giving values in [0, 1).

Stream splitting: episode i of a run seeded with `seed` starts from state
mix64(mix64(seed) + i), so its j-th uniform (j = 0, 1, ...) comes from the
output mix64(state + (j + 1) * golden). A uniform depends only on (seed, i,
j), which lets _stream_floats compute a block of episodes' uniforms at once
as uint64 arrays; episodes may be sampled out of order or in blocks and still
reproduce bit-identically.

Categorical draws invert the CDF in ascending index order: given u, return
the first index whose cumulative probability exceeds u (or, when rounding
leaves the total at or below u, the last index with positive probability).
Identical seeds therefore give identical trajectories on any platform.

A mixture episode consumes exactly 1 + 2H uniforms: uniform 0 picks the
component, 1 + 2h the action at step h and 2 + 2h its successor. The learner
draws one episode at a time (sample_mixture_episode) by bisect over running
sums their owners cache (MixturePolicy.cumulative, TabularCmdp.transition_cdf),
and a one-hot policy reads its action from Policy.actions; monte_carlo_value
draws a block at once with numpy. All sums accumulate left to right like
categorical's, so every draw, and every episode's totals, are the ones the
scalar inversion gives on the same row.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .core import MixturePolicy, TabularCmdp

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Episodes whose uniforms are drawn together, by monte_carlo_value and by the
# learner: bounds the block's (episodes, 1 + 2H) table without slowing draws.
_BLOCK = 1024


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective avalanche mix."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """mix64 over a uint64 array; array arithmetic wraps mod 2**64."""
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _stream_floats(seed: int, start: int, count: int, draws: int) -> np.ndarray:
    """(count, draws) uniforms: row i holds the first `draws` uniforms of
    episode start + i's stream (the module docstring gives the formula)."""
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


def categorical(probs, u: float) -> int:
    """Inverse-CDF draw over ascending indices: the first index whose
    cumulative probability exceeds the uniform u, else the fallback."""
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i
    # cumulative rounding left acc at or below u: the last index with mass
    return max((i for i, p in enumerate(probs) if p > 0), default=0)


def sample_mixture_episode(m: TabularCmdp, mix: MixturePolicy, u):
    """One episode from s1 on the uniforms u (a row of _stream_floats, each
    in [0, 1)): the component from u[0], then at step h the action from
    u[1 + 2h] and the successor from u[2 + 2h], each drawn as categorical
    would. Returns (component index, [(s, a, s'), ...])."""
    cum = mix.cumulative
    idx = bisect_right(cum, u[0])
    if idx == len(cum):  # the total rounded to at most u: categorical's fallback
        idx = categorical([w for w, _ in mix.components], u[0])
    policy = mix.components[idx][1]
    rule = policy.rule
    if rule.shape != (m.horizon, m.num_states, m.num_actions):
        raise ValueError(
            f"policy shape {rule.shape} does not match instance "
            f"({m.horizon}, {m.num_states}, {m.num_actions})")
    actions, kernel = policy.actions, m.transition_cdf
    s = m.initial_state
    steps = []
    for h in range(m.horizon):
        a = categorical(rule[h, s], u[1 + 2 * h]) if actions is None else actions[h][s]
        cum = kernel[h][s][a]
        sn = bisect_right(cum, u[2 + 2 * h])
        if sn == len(cum):
            sn = categorical(m.transition[h, s, a], u[2 + 2 * h])
        steps.append((s, a, sn))
        s = sn
    return idx, steps


def monte_carlo_value(m: TabularCmdp, mix: MixturePolicy, episodes: int, seed: int):
    """Monte-Carlo estimate of mixture reward and cost values at s1.

    Episode i uses row i of the seed's uniforms, so estimates are reproducible
    and independent of evaluation order; each episode's totals equal the
    h-ordered sums over sample_mixture_episode's steps on that row, bit for
    bit, though episodes are drawn _BLOCK at a time. Returns a dict with
    means and standard errors for both stages; episodes must be at least 1.
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
        for h in range(m.horizon):  # totals add up in h order
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
