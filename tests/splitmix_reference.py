"""Scalar SplitMix64 streams and one-episode-at-a-time sampling.

The reference the array sampler in cmdplab.simulate is checked against: one
Python-int generator per episode, drawing its uniforms in order and inverting
each CDF with a running sum. _stream_floats must give the rows of uniforms
next_float() gives here, and sample_mixture_episode and monte_carlo_value the
trajectories and totals sample_mixture_trajectory gives.
"""

from dataclasses import dataclass
from typing import NamedTuple

from cmdplab.simulate import _GOLDEN, _MASK, mix64


class SplitMix64:
    """Counter-based generator; the algorithm is in cmdplab.simulate's docstring."""

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


class Scripted(SplitMix64):
    """A generator whose next_float() values are a fixed list, in order."""

    def __init__(self, values):
        self.values = list(values)

    def next_float(self):
        return self.values.pop(0)


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


def sample_episode(m, policy, rng) -> Trajectory:
    """Roll one episode from s1: at each step draw the action, then the successor."""
    s = m.initial_state
    steps = []
    for h in range(m.horizon):
        a = rng.categorical(policy.rule[h, s])
        sn = rng.categorical(m.transition[h, s, a])
        steps.append(Step(h, s, a, float(m.reward[h, s, a]), float(m.cost[h, s, a]), sn))
        s = sn
    return Trajectory(tuple(steps))


def sample_mixture_trajectory(m, mix, rng):
    """Draw the component once (inverse CDF over component index), then the episode."""
    idx = rng.categorical([w for w, _ in mix.components])
    return idx, sample_episode(m, mix.components[idx][1], rng)
