"""Shared fixtures: small random instances and exhaustive policy enumeration."""

import itertools

import numpy as np
import pytest

from cmdplab import Policy, TabularCmdp, preset, preset_names


def random_instance(num_states, num_actions, horizon, seed, budget=None):
    """Dirichlet kernel, uniform stage arrays; budget defaults to H/2."""
    rng = np.random.default_rng(seed)
    shape = (horizon, num_states, num_actions)
    kernel = rng.dirichlet(np.ones(num_states), size=shape)
    reward = rng.uniform(size=shape)
    cost = rng.uniform(size=shape)
    b = horizon / 2.0 if budget is None else budget
    return TabularCmdp(num_states, num_actions, horizon, kernel, reward, cost, b, 0)


def tie_instances():
    """Instances whose greedy choices tie: the presets, random instances with
    costs on a quarter grid (zeros and equal entries included), and random
    instances whose every action appears twice."""
    out = [preset(name) for name in preset_names()]
    for seed in range(6):
        m = random_instance(3, 3, 4, seed=200 + seed)
        grid = np.random.default_rng(seed).integers(0, 5, size=m.cost.shape) / 4.0
        out.append(TabularCmdp(3, 3, 4, m.transition, m.reward, grid, m.budget, 0))
        m = random_instance(3, 2, 3, seed=300 + seed)
        twice = [np.concatenate((t, t), axis=2) for t in (m.transition, m.reward, m.cost)]
        out.append(TabularCmdp(3, 4, 3, *twice, m.budget, 0))
    return out


def all_deterministic_policies(m):
    """Every map (h, s) -> a as a Policy; A**(S*H) of them, keep instances tiny."""
    cells = [(h, s) for h in range(m.horizon) for s in range(m.num_states)]
    for choice in itertools.product(range(m.num_actions), repeat=len(cells)):
        actions = np.zeros((m.horizon, m.num_states), dtype=int)
        for (h, s), a in zip(cells, choice):
            actions[h, s] = a
        yield Policy.from_actions(actions, m.num_actions)


@pytest.fixture
def make_instance():
    return random_instance


@pytest.fixture
def enumerate_policies():
    return all_deterministic_policies
