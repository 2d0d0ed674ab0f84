"""Shared fixtures: small random instances, exhaustive policy enumeration,
and the per-episode views of a learner run's logs and of a metrics record."""

import itertools

import numpy as np
import pytest

from cmdplab import Policy, Row, TabularCmdp, preset, preset_names


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


def per_episode(logs):
    """(k, log) for each episode k that a run's logs cover, in order: a log
    covers episodes log.episode .. log.episode + log.count - 1."""
    return [(k, log) for log in logs for k in range(log.episode, log.episode + log.count)]


def updates_per_episode(logs):
    """Each episode's model_updates_cum: its log's for a stretch's last
    episode, the only one that can rebuild, and the previous log's (0 for the
    first log) for the episodes before it."""
    ups, before = [], 0
    for k, log in per_episode(logs):
        if k == log.episode + log.count - 1:
            before = log.model_updates_cum
        ups.append(before)
    return ups


def record_rows(record):
    """A RunRecord's Row for each episode, in order: its stretch's shared
    cells, its own k, regret_cum and cv_cum (as Python floats), and the
    stretch's model_updates_cum on the stretch's last episode only
    (updates_before on the ones before it)."""
    rows, regret, cv = [], record.regret_cum.tolist(), record.cv_cum.tolist()
    for s in record.stretches:
        for j in range(s.count):
            updates = s.model_updates_cum if j == s.count - 1 else s.updates_before
            rows.append(Row(s.k + j, s.v_r_true, s.v_c_true, regret[len(rows)], cv[len(rows)],
                            s.lambda_mean, updates, s.wall_ms))
    return tuple(rows)


@pytest.fixture
def make_instance():
    return random_instance


@pytest.fixture
def enumerate_policies():
    return all_deterministic_policies
