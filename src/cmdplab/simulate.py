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
j), which lets _uniforms compute any of a block of episodes' uniforms at
once as uint64 arrays, and skip the rest; episodes may be sampled out of
order or in blocks and still reproduce bit-identically.

Categorical draws invert the CDF in ascending index order: given u, return
the first index whose cumulative probability exceeds u (or, when rounding
leaves the total at or below u, the last index with positive probability).
Identical seeds therefore give identical trajectories on any platform.
categorical is the scalar form. A cached table (core.running_sums) holds
a row's running sums, added left to right like categorical's, +inf from
its last positive entry on (throughout a row with none). The sums never
decrease, so the first sum above u is the draw for every u in [0, 1),
with no fallback branch: below the total it is unchanged; at or past it
every finite sum is <= u and the first inf is the last index with mass.

A mixture episode owns exactly 1 + 2H uniforms: uniform 0 picks the
component, 1 + 2h the action at step h and 2 + 2h its successor. A one-hot
component reads its action from its action table (Policy.actions), so its
action uniforms keep their positions but are never read: on an exactly
one-hot row, categorical returns the row's argmax for every u in [0, 1).
The learner draws an episode on its own (sample_mixture_episode) by
bisect_right over the tables their owners cache (MixturePolicy.cumulative,
TabularCmdp.transition_cdf). monte_carlo_value and the learner's long
replay stretches draw blocks of episodes a step at a time (_block_steps),
each draw as the count of a row's sums at or below u (_draw), which is
bisect_right's index, summed in the narrowest unsigned type that holds the
row's length (no count exceeds it) and widened to intp. When every
component is one-hot they generate only the uniforms the draws read
(_uniforms), 0 and 2 + 2h, and read each step's kernel row with one take
from the components' concatenated tables (Policy.flat_actions).
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right

import numpy as np

from .core import MixturePolicy, TabularCmdp, _integer, running_sums

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Episodes whose uniforms are drawn together, by monte_carlo_value and by the
# learner: bounds the block's (1 + 2H, episodes) table without slowing draws.
_BLOCK = 2048


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective avalanche mix of an integer."""
    z = operator.index(z) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """mix64 over a uint64 array, in place via one scratch array (mod 2**64); returns z."""
    z ^= (t := z >> np.uint64(30))  # t: the scratch array every later shift reuses
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=t)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def _uniforms(seed: int, start: int, count: int, draws) -> np.ndarray:
    """(len(draws), count) uniforms, draw-major: [k, i] is uniform draws[k] of
    episode start + i's stream (the module docstring gives the formula)."""
    states = _mix64_array(np.arange(start, start + count, dtype=np.uint64)
                          + np.uint64(mix64(seed)))
    steps = np.array([(j + 1) * _GOLDEN & _MASK for j in draws], dtype=np.uint64)
    bits = _mix64_array(steps[:, None] + states)
    bits >>= np.uint64(11)
    return np.multiply(bits, 1.0 / (1 << 53), dtype=np.float64)


def _stream_floats(seed: int, start: int, count: int, draws: int) -> np.ndarray:
    """(count, draws) uniforms: row i holds the first `draws` uniforms of
    episode start + i's stream, a transposed view of _uniforms."""
    return _uniforms(seed, start, count, range(draws)).T


def _cdf_table(probs) -> np.ndarray:
    """Inverse-CDF table of (rows, categories) probs, category axis first:
    cdf[:, i] holds row i's running_sums, infinite tail included."""
    return running_sums(probs).T.copy()


def _draw(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """categorical for a batch, bit for bit: draw i is #{k : cdf[k, i] <= u[i]},
    the index of the first sum above u, fallback included, as an intp (see
    the module docstring)."""
    return (cdf <= u).sum(0, dtype=np.min_scalar_type(len(cdf))).astype(np.intp)


def _block_steps(m: TabularCmdp, comp, kernel_cdf, u, rows=None, rule_cdf=None):
    """Walk a block of mixture episodes from s1 as sample_mixture_episode
    draws them, yielding each step's (h, s, a) kernel rows and successors in
    h order: comp holds each episode's component, kernel_cdf the _cdf_table
    of m's kernel rows by (h, s, a) and u the block's uniforms by draw. With
    rows (the components' concatenated flat_actions) every component is
    one-hot and u holds draws 0 and 2 + 2h; otherwise rule_cdf holds the
    components' rule rows by (component, h, s) and u every draw."""
    act, succ = (None, u[1:]) if rule_cdf is None else (u[1::2], u[2::2])
    at = comp * (m.horizon * m.num_states)  # comp·H·S + h·S at step h
    s = np.full(len(comp), m.initial_state)
    for h in range(m.horizon):
        row = rows.take(at + s) if rule_cdf is None else (
            (h * m.num_states + s) * m.num_actions + _draw(rule_cdf.take(at + s, 1), act[h]))
        s = _draw(kernel_cdf.take(row, 1), succ[h])
        yield row, s
        at += m.num_states


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
    idx = bisect_right(mix.cumulative, u[0])
    policy = mix.components[idx][1]
    rule, shape = policy.rule, (m.horizon, m.num_states, m.num_actions)
    if rule.shape != shape:
        raise ValueError(f"policy shape {rule.shape} does not match instance {shape}")
    actions, kernel = policy.actions, m.transition_cdf
    s = m.initial_state
    steps = []
    for h in range(m.horizon):
        a = categorical(rule[h, s], u[1 + 2 * h]) if actions is None else actions[h][s]
        sn = bisect_right(kernel[h][s][a], u[2 + 2 * h])
        steps.append((s, a, sn))
        s = sn
    return idx, steps


def monte_carlo_value(m: TabularCmdp, mix: MixturePolicy, episodes: int, seed: int):
    """Monte-Carlo estimate of mixture reward and cost values at s1.

    Episode i uses the uniforms of stream i of the seed, so estimates are
    reproducible and independent of evaluation order; each episode's totals
    equal the h-ordered sums over sample_mixture_episode's steps on that row,
    bit for bit, though episodes are drawn _BLOCK at a time (the module
    docstring gives the one-hot path); any stochastic component puts every
    action on the categorical draw. episodes must be an integer (int or
    numpy integer, not a bool) >= 1 and seed one of any sign and size.
    Returns a dict with episodes as an int and means and standard errors
    for both stages.
    """
    episodes, seed = _integer("episodes", episodes), _integer("seed", seed, None)
    h_, s_, a_ = shape = (m.horizon, m.num_states, m.num_actions)
    for _, policy in mix.components:
        if policy.rule.shape != shape:
            raise ValueError(f"policy shape {policy.rule.shape} does not match instance {shape}")
    weight_cdf = np.array(mix.cumulative)[:, None]
    tables = [p.flat_actions for _, p in mix.components]
    if all(t is not None for t in tables):  # uniforms 0 and 2 + 2h only
        rows, rule_cdf = np.concatenate(tables), None
        draws = [0, *range(2, 2 + 2 * h_, 2)]
    else:  # rows by (component, h, s): take gathers contiguous (categories, count)
        rows, rule_cdf = None, _cdf_table(
            np.reshape([p.rule for _, p in mix.components], (-1, a_)))
        draws = range(1 + 2 * h_)
    kernel_cdf = _cdf_table(m.transition.reshape(-1, s_))  # rows by (h, s, a)
    stages = m.stages.reshape(2, -1)
    totals = np.empty((2, episodes))  # each episode's reward and cost
    for start in range(0, episodes, _BLOCK):
        count = min(_BLOCK, episodes - start)
        u = _uniforms(seed, start, count, draws)
        total = np.zeros((2, count))
        for row, _ in _block_steps(m, _draw(weight_cdf, u[0]), kernel_cdf, u, rows, rule_cdf):
            total += stages.take(row, 1)  # totals add up in h order
        totals[:, start:start + count] = total
    out = {"episodes": episodes}
    for name, x in zip(("reward", "cost"), totals):
        out[f"{name}_mean"] = float(x.mean())
        out[f"{name}_se"] = float(x.std(ddof=1) / math.sqrt(episodes)) if episodes > 1 else 0.0
    return out
