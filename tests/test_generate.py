"""Instance generation with an exactly pinned feasibility margin."""

import math
import re

import numpy as np
import pytest

from cmdplab import (GenerationError, GenSpec, brute_force_cmdp,
                     evaluate_policy, instance_hash, preset, preset_names,
                     save_instance, slater_constant, validate_cmdp)
from cmdplab.generate import generate


@pytest.mark.parametrize("target", [0.5, 0.3, 0.25, 0.7, 0.3141592653589793])
@pytest.mark.parametrize("seed", [0, 1, 99])
def test_slater_constant_pinned_bit_exactly(target, seed):
    # the zero-cost baseline action makes min_pi V_c exactly 0.0, so the
    # realized slack b - 0.0 reproduces the target bit-for-bit
    m = generate(GenSpec(3, 2, 3, zeta_target=target, seed=seed))
    zeta, pi_min = slater_constant(m)
    assert zeta == target
    assert evaluate_policy(m.transition, m.cost[None], pi_min)[0, 0, 0] == 0.0


def test_generated_baseline_action_is_free():
    m = generate(GenSpec(3, 2, 3, zeta_target=0.5, seed=0))
    assert np.all(np.asarray(m.cost)[:, :, 0] == 0.0)
    assert np.all(np.asarray(m.cost)[:, :, 1] > 0.0)
    assert np.all(np.asarray(m.reward) > 0.0)  # baseline still earns reward


def test_generation_is_deterministic():
    spec = GenSpec(2, 3, 2, zeta_target=0.4, dirichlet_alpha=0.7, seed=12)
    a, b = generate(spec), generate(spec)
    assert np.array_equal(a.transition, b.transition)
    assert np.array_equal(a.reward, b.reward)
    assert np.array_equal(a.cost, b.cost)
    assert a.budget == b.budget
    assert instance_hash(a) == instance_hash(b)
    c = generate(GenSpec(2, 3, 2, zeta_target=0.4, dirichlet_alpha=0.7, seed=13))
    assert instance_hash(c) != instance_hash(a)


def test_generated_instances_are_valid():
    for seed in range(5):
        m = generate(GenSpec(4, 3, 4, zeta_target=0.6, seed=seed))
        assert validate_cmdp(m) == []
        assert np.allclose(np.asarray(m.transition).sum(axis=-1), 1.0, atol=1e-12)
        assert 0.0 < m.budget <= m.horizon


def test_generated_instances_are_solvable():
    m = generate(GenSpec(2, 2, 2, zeta_target=0.5, seed=3))
    sol = brute_force_cmdp(m)
    assert sol.status == "optimal"
    assert sol.optimal_cost <= m.budget + 1e-12


def test_unreachable_margin_raises():
    # the budget is capped at H, so no slack above H is realizable
    with pytest.raises(GenerationError):
        generate(GenSpec(1, 1, 1, zeta_target=1.5, seed=0))
    # the cap itself is fine: b = H with a free baseline action
    m = generate(GenSpec(1, 1, 1, zeta_target=1.0, seed=0))
    assert slater_constant(m)[0] == 1.0


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(0, 2, 2, zeta_target=0.5)
    with pytest.raises(ValueError):
        GenSpec(2, 2, 2, zeta_target=0.0)
    for alpha in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match=rf"^dirichlet_alpha must be positive and finite, "
                                             rf"got {alpha}$"):
            GenSpec(2, 2, 2, zeta_target=0.5, dirichlet_alpha=alpha)
    for seed in (-5, 1.5, 3.0, True, None):
        with pytest.raises(ValueError, match=rf"^seed must be an integer >= 0, got {seed!r}$"):
            GenSpec(2, 2, 2, zeta_target=0.5, seed=seed)
    assert GenSpec(2, 2, 2, zeta_target=0.5, seed=np.int64(3)).seed == 3
    # "0.5" and None raised TypeError, and True ran as 1.0
    for name, x in (("zeta_target", "0.5"), ("zeta_target", None), ("zeta_target", True),
                    ("dirichlet_alpha", "1"), ("dirichlet_alpha", None),
                    ("dirichlet_alpha", True)):
        with pytest.raises(ValueError, match=rf"^{name} must be a number, got {x!r}$"):
            GenSpec(**{"num_states": 2, "num_actions": 2, "horizon": 2, "zeta_target": 0.5,
                       name: x})
    spec = GenSpec(2, 2, 2, zeta_target=np.float32(0.5), dirichlet_alpha=2)
    assert (type(spec.zeta_target), type(spec.dirichlet_alpha)) == (float, float)


@pytest.mark.parametrize("name", ["num_states", "num_actions", "horizon"])
@pytest.mark.parametrize("value", [0, -1, np.int64(0), 2.5, 2.0, True, math.nan,
                                   math.inf, None])
def test_spec_rejects_bad_dimensions_by_name(name, value):
    # each dimension is checked like seed, by name, before generate sizes an
    # array with it or compares zeta_target with it
    good = dict(num_states=2, num_actions=2, horizon=2, zeta_target=0.5)
    with pytest.raises(ValueError,
                       match=rf"^{name} must be an integer >= 1, got {re.escape(repr(value))}$"):
        GenSpec(**{**good, name: value})
    spec = GenSpec(**{**good, name: np.int64(3)})
    assert getattr(spec, name) == getattr(generate(spec), name) == 3


@pytest.mark.filterwarnings("error")
def test_numpy_integer_spec_is_stored_as_python_ints(tmp_path):
    # numpy dimensions and seed build the same instance, with int dimensions
    # that save and hash like the Python ones
    want = generate(GenSpec(3, 2, 3, 0.5, seed=1))
    save_instance(want, tmp_path / "want.json")
    for kind in (np.int64, np.uint64, np.int32):
        spec = GenSpec(kind(3), kind(2), kind(3), 0.5, seed=kind(1))
        assert all(type(getattr(spec, f)) is int
                   for f in ("num_states", "num_actions", "horizon", "seed"))
        m = generate(spec)
        assert instance_hash(m) == instance_hash(want)
        save_instance(m, tmp_path / "got.json")
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


def test_preset_names_and_unknown():
    names = preset_names()
    assert set(names) == {"two_state_chain", "single_state_tradeoff",
                          "risky_shortcut"}
    with pytest.raises(ValueError, match="risky_shortcut"):
        preset("no_such_preset")


def test_presets_return_fresh_instances():
    a = preset("two_state_chain")
    b = preset("two_state_chain")
    assert a is not b
    assert instance_hash(a) == instance_hash(b)


def test_two_state_chain_structure():
    # frontier hand-check: four deterministic paths from s0
    m = preset("two_state_chain")
    assert (m.num_states, m.num_actions, m.horizon) == (2, 2, 2)
    assert m.budget == 0.6
    assert m.initial_state == 0
    # moves are deterministic: next state equals the action index
    for h in range(2):
        for s in range(2):
            for a in range(2):
                assert m.transition[h, s, a, a] == 1.0
    # cost only on the last-step engage action
    assert np.all(np.asarray(m.cost[0]) == 0.0)
    assert np.asarray(m.cost[1]).tolist() == [[0.0, 1.0], [0.0, 1.0]]


def test_single_state_tradeoff_structure():
    m = preset("single_state_tradeoff")
    assert (m.num_states, m.num_actions, m.horizon) == (1, 2, 1)
    assert m.reward[0, 0].tolist() == [1.0, 0.0]
    assert m.cost[0, 0].tolist() == [1.0, 0.0]
    assert m.budget == 0.5


def test_risky_shortcut_is_stochastic():
    m = preset("risky_shortcut")
    assert (m.num_states, m.num_actions, m.horizon) == (3, 2, 3)
    probs = np.asarray(m.transition)
    assert np.any((probs > 0.0) & (probs < 1.0))  # genuinely random moves
    assert validate_cmdp(m) == []
