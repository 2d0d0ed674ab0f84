"""Online primal-dual learner: bonuses, doubling batches, dual grid, full runs.

Hand-derived expectations are computed with constants chosen so the arithmetic
is exact (log term 1, dyadic probabilities); derivations inline.
"""

import math
import re
from dataclasses import replace
from functools import partial
from itertools import accumulate
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmdplab import (EmpiricalModel, GenSpec, LearnerConfig, Policy,
                     compute_bonus, compute_metrics, derive_config, evaluate_policy,
                     generate, greedy_backup, grid_index, lagrangian_greedy_backup,
                     policy_value_bounds, preset, primal_dual_episode, read_run_csv,
                     record_transition, run_learner, solve_cmdp_exact, write_run_csv)
import cmdplab.learner as learner
from cmdplab.core import _backward_induction
from cmdplab.simulate import _BLOCK, _stream_floats
from conftest import per_episode, random_instance, updates_per_episode
from splitmix_reference import episode_stream, sample_mixture_trajectory


def exact_log_config(**kw):
    """delta_prime = 1/e makes the bonus log term exactly 1."""
    base = dict(num_states=2, num_actions=2, horizon=2, episodes=10, iters=10,
                dual_cap=1.0, grid_step=0.5, eta=0.1, delta=0.5,
                delta_prime=math.exp(-1.0), mode="relaxed", shift=0.0)
    base.update(kw)
    return LearnerConfig(**base)


def backup_one(model, lam):
    """The backup of the one multiplier lam: its policy and (2, H+1, S) values."""
    (pi,), v = lagrangian_greedy_backup(model, [lam])
    return pi, v[0]


def fresh(model):
    """The model with empty Q-table and policy caches: what a backup would
    see with nothing memoized."""
    return replace(model, memo=[{} for _ in model.memo], pool={})


# ---------------------------------------------------------------------------
# Bernstein bonus.


def test_bonus_hand_value():
    # var = 0.25, n = 100, log term 1, H = 2:
    # (460/9) * sqrt(0.25/100) + (544/9) * 2/100 = 23/9 + 10.88/9 = 33.88/9
    cfg = exact_log_config()
    got = compute_bonus(np.array([0.5, 0.5]), np.array([0.0, 1.0]), 100, cfg)
    assert got == pytest.approx(33.88 / 9.0, rel=1e-12)


def test_bonus_zero_variance_keeps_count_term():
    # deterministic row: only the H*log/n term survives
    cfg = exact_log_config()
    got = compute_bonus(np.array([1.0, 0.0]), np.array([0.3, 0.9]), 50, cfg)
    assert got == pytest.approx((544.0 / 9.0) * 2.0 / 50.0, rel=1e-12)


def test_bonus_scale_multiplies_everything():
    cfg = exact_log_config(bonus_scale=0.1)
    full = exact_log_config()
    p, v = np.array([0.5, 0.5]), np.array([0.0, 1.0])
    assert compute_bonus(p, v, 16, cfg) == pytest.approx(
        0.1 * compute_bonus(p, v, 16, full), rel=1e-12)


def test_bonus_needs_a_built_batch():
    with pytest.raises(ValueError):
        compute_bonus(np.array([1.0]), np.array([0.0]), 0, exact_log_config())


def test_bonus_shrinks_with_count():
    cfg = exact_log_config()
    p, v = np.array([0.25, 0.75]), np.array([0.0, 2.0])
    vals = [compute_bonus(p, v, n, cfg) for n in (1, 4, 16, 64)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_bonus_broadcasts_over_leading_axes():
    # a (3, 2) stack of rows with its own batch sizes gives the elementwise
    # scalar bonuses; a single row gives a 0-d value
    cfg = exact_log_config(num_states=4)
    rng = np.random.default_rng(11)
    rows = rng.dirichlet(np.ones(4), size=(3, 2))
    v = rng.uniform(0.0, 2.0, size=4)
    n = rng.integers(1, 64, size=(3, 2))
    got = compute_bonus(rows, v, n, cfg)
    assert got.shape == (3, 2)
    want = [[compute_bonus(rows[i, j], v, int(n[i, j]), cfg) for j in range(2)]
            for i in range(3)]
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)
    assert np.shape(compute_bonus(rows[0, 0], v, 5, cfg)) == ()
    with pytest.raises(ValueError):
        compute_bonus(rows, v, np.where(n > 30, 0, n), cfg)  # one unbuilt row


# ---------------------------------------------------------------------------
# Doubling-batch empirical model.


def test_rebuild_fires_exactly_at_powers_of_two():
    model = EmpiricalModel.empty(np.zeros((2, 1, 2, 1)), exact_log_config())
    flags, sizes = [], []  # sizes: the batch behind the row after each rebuild
    for _ in range(20):
        flags.append(record_transition(model, 0, 0, 0, 0))
        if flags[-1]:
            sizes.append(int(model.batch_size[0, 0, 0]))
    assert [i for i, f in enumerate(flags, start=1) if f] == [1, 2, 4, 8, 16]
    assert sizes == [1, 1, 2, 4, 8]
    assert int(model.epochs[0, 0, 0]) == 5
    assert int(model.total[0, 0, 0]) == 20


def test_kernel_row_is_last_batch_distribution():
    model = EmpiricalModel.empty(np.zeros((2, 1, 2, 1)), exact_log_config())
    # counts 1..8; the batch built at n=8 holds transitions 5..8
    for s_next in (0, 1, 1, 0, 1, 0, 1, 1):
        record_transition(model, 0, 0, 0, s_next)
    assert model.kernel[0, 0, 0].tolist() == [0.25, 0.75]
    assert int(model.batch_size[0, 0, 0]) == 4
    # three more arrivals sit in the unbuilt batch; kernel unchanged
    for s_next in (0, 0, 0):
        assert not record_transition(model, 0, 0, 0, s_next)
    assert model.kernel[0, 0, 0].tolist() == [0.25, 0.75]


def test_from_kernel_marks_every_row_built():
    m = preset("two_state_chain")
    model = EmpiricalModel.from_kernel(m.transition, m.stages, exact_log_config(),
                                       batch_size=4)
    assert np.array_equal(model.kernel, m.transition)
    assert np.all(model.batch_size == 4)
    # a batch of 4 is built at count 8, the fourth rebuild (1, 2, 4, 8)
    assert np.all(model.total == 8) and np.all(model.epochs == 4)
    model = EmpiricalModel.from_kernel(m.transition, m.stages, exact_log_config())
    assert np.all(model.batch_size == 1) and np.all(model.total == 1)
    assert np.all(model.epochs == 1)


def test_from_kernel_rejects_a_kernel_of_the_wrong_shape():
    # an (S, A, S) kernel would broadcast over the steps, an (H+1, S, A, S)
    # one would be read up to step H, and a short last axis has too few
    # successors; only stages.shape[1:] + (S,) is a model's kernel
    m = preset("two_state_chain")
    for kernel in (m.transition[0], np.concatenate((m.transition, m.transition[:1])),
                   m.transition[..., :1]):
        with pytest.raises(ValueError, match=re.escape(
                f"kernel shape {kernel.shape} != (H, S, A, S) {m.transition.shape}")):
            EmpiricalModel.from_kernel(kernel, m.stages, exact_log_config())


def test_from_kernel_continues_the_doubling_schedule():
    # batch 4 at count 8: the next rebuild comes at count 16, from a batch of 8
    m = preset("two_state_chain")
    model = EmpiricalModel.from_kernel(m.transition, m.stages, exact_log_config(),
                                       batch_size=np.int64(4))
    flags = [record_transition(model, 0, 0, 0, i % 2) for i in range(9, 17)]
    assert flags == [False] * 7 + [True]
    assert model.kernel[0, 0, 0].tolist() == [0.5, 0.5]
    assert (model.total[0, 0, 0], model.batch_size[0, 0, 0], model.epochs[0, 0, 0]) == (16, 8, 5)


def test_empty_model_has_no_built_rows():
    model = EmpiricalModel.empty(np.zeros((2, 4, 3, 2)), exact_log_config())
    assert model.kernel.shape == (4, 3, 2, 3)
    assert np.all(model.batch_size == 0)
    assert np.all(model.kernel == 0.0)
    assert model.memo == [{}] * 4 and model.pool == {}


def test_record_transition_clears_only_the_rebuilt_step():
    # a rebuild of a step-h row empties model.memo[h] and keeps every other
    # step's tables; an arrival that rebuilds nothing clears nothing
    m = random_instance(3, 2, 4, seed=9)
    cfg = exact_log_config(num_states=3, num_actions=2, horizon=4)
    model = EmpiricalModel.from_kernel(m.transition, m.stages, cfg)  # lifetime counts 1
    for h in range(m.horizon):
        lagrangian_greedy_backup(model, [0.0, 0.5, 1.0])
        sizes = [len(table) for table in model.memo]
        assert all(sizes)
        assert record_transition(model, h, 1, 0, 2)  # count 2: a rebuild
        assert [len(table) for table in model.memo] == [
            0 if j == h else n for j, n in enumerate(sizes)]
        lagrangian_greedy_backup(model, [0.0, 0.5, 1.0])
        sizes = [len(table) for table in model.memo]
        assert not record_transition(model, h, 1, 0, 2)  # count 3: none
        assert [len(table) for table in model.memo] == sizes


def test_record_transition_rejects_negative_indices():
    # numpy would wrap a negative index round to the last row or state
    model = EmpiricalModel.empty(np.zeros((2, 2, 3, 2)), exact_log_config())
    for args in ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)):
        with pytest.raises(ValueError, match="indices must be >= 0"):
            record_transition(model, *args)
    assert not model.total.any() and not model.kernel.any()
    assert record_transition(model, np.int64(1), 2, 1, 0)  # numpy integers pass


def test_record_transition_rejects_an_index_out_of_range_unchanged():
    # an index past its axis raises before any count, kernel row or batch
    # moves, so the row keeps its doubling schedule: after a rejected
    # s_next = 2 on two_state_chain the next visit is count 2, a rebuild
    # from a batch of 1
    m = preset("two_state_chain")
    model = EmpiricalModel.empty(m.stages, exact_log_config())
    assert record_transition(model, 0, 0, 0, 1)  # count 1: a rebuild
    names = ("total", "batch_counts", "batch_size", "epochs", "kernel")
    before = [getattr(model, name).copy() for name in names]
    for args in ((0, 0, 0, 2), (0, 0, 2, 0), (0, 2, 0, 0), (2, 0, 0, 0)):
        with pytest.raises(IndexError):
            record_transition(model, *args)
        for name, want in zip(names, before):
            assert np.array_equal(getattr(model, name), want), name
    assert record_transition(model, 0, 0, 0, 0)  # count 2: a rebuild
    assert model.kernel[0, 0, 0].tolist() == [1.0, 0.0]
    assert (model.total[0, 0, 0], model.batch_size[0, 0, 0], model.epochs[0, 0, 0]) == (2, 1, 2)


def test_from_kernel_rejects_an_unbuilt_batch_size():
    # 0 leaves rows unbuilt; the doubling rule builds only batches of 2**k
    m = preset("two_state_chain")
    for size in (0, -1, -4, 4.0, True):  # not a count: the library's integer rule
        with pytest.raises(ValueError, match=rf"^batch_size must be an integer >= 1, "
                                             rf"got {size!r}$"):
            EmpiricalModel.from_kernel(m.transition, m.stages, exact_log_config(),
                                       batch_size=size)
    for size in (3, 50):
        with pytest.raises(ValueError, match=rf"^batch_size must be a power of two >= 1, "
                                             rf"got {size!r}$"):
            EmpiricalModel.from_kernel(m.transition, m.stages, exact_log_config(),
                                       batch_size=size)


# ---------------------------------------------------------------------------
# Dual grid projection and ascent.


def test_grid_point_hand_cases():
    def point(lam):
        return grid_index(lam, 0.25, 1.0) * 0.25

    assert point(0.3) == 0.25
    assert point(0.375) == 0.25  # midpoint rounds down
    assert point(0.38) == 0.5
    assert point(1.7) == 1.0  # clamp to cap
    assert point(-0.2) == 0.0
    assert point(0.0) == 0.0
    assert point(1.0) == 1.0


@settings(max_examples=300, deadline=None)
@given(lam=st.floats(-1.0, 3.0), step_pow=st.integers(1, 8))
def test_grid_point_properties(lam, step_pow):
    step = 2.0**-step_pow
    cap = 2.0
    out = grid_index(lam, step, cap) * step
    assert 0.0 <= out <= cap
    assert out / step == round(out / step)  # exact grid multiple (dyadic step)
    clamped = min(max(lam, 0.0), cap)
    assert abs(out - clamped) <= step / 2 + 1e-15


def test_grid_index_hand_case():
    # 0.5 + 0.2 * (1.3 - 0.4) = 0.68 -> nearest multiple of 0.25 is 0.75 = 3 steps
    assert grid_index(0.5 + 0.2 * (1.3 - 0.4), 0.25, 1.0) == 3
    # negative drift floors at zero
    assert grid_index(0.5 + 0.2 * (0.0 - 10.0), 0.25, 1.0) == 0


# ---------------------------------------------------------------------------
# Config derivation (rate formulas) and validation.


def test_derive_relaxed_worked_example():
    # S=2, A=2, H=4, eps=0.5: T = H^4/eps^4 = 4096, U = H/eps = 8,
    # eps1 = eps^3/H^3 = 1/512, K = S A H^3/eps^2 = 1024, shift = eps/2
    m = random_instance(2, 2, 4, seed=0)
    cfg = derive_config("relaxed", 0.5, 0.1, m)
    assert cfg.episodes == 1024
    assert cfg.iters == 4096
    assert cfg.dual_cap == 8.0
    assert cfg.grid_step == 0.001953125
    assert cfg.shift == 0.25
    assert cfg.eta == 8.0 / (4 * 64)  # U / (H sqrt(T))
    assert cfg.b_prime(m.budget) == m.budget + 0.25


def test_derive_strict_worked_example():
    # S=2, A=2, H=2, zeta=0.5, eps=1: T = H^6/(zeta^4 eps^2) = 1024,
    # U = H^2/(zeta (H - eps)) = 8, eps1 = eps^2 zeta^2/H^4 = 1/64,
    # K = S A H^5/(eps^2 zeta^2) = 512, shift = zeta eps/(2H) = 0.125
    m = generate(GenSpec(2, 2, 2, zeta_target=0.5, seed=1))  # zeta is exactly 0.5
    cfg = derive_config("strict", 1.0, 0.1, m)
    assert cfg.episodes == 512
    assert cfg.iters == 1024
    assert cfg.dual_cap == 8.0
    assert cfg.grid_step == 0.015625
    assert cfg.shift == 0.125
    assert cfg.eta == 0.125
    assert cfg.b_prime(m.budget) == m.budget - 0.125


def test_derive_coarsest_accuracy_collapses_schedule():
    # eps = H: T = 1, U = 1, eps1 = 1, K = S A H
    m = random_instance(1, 1, 3, seed=2)
    cfg = derive_config("relaxed", 3.0, 0.1, m)
    assert (cfg.episodes, cfg.iters) == (3, 1)
    assert (cfg.dual_cap, cfg.grid_step) == (1.0, 1.0)


def test_derive_overrides():
    m = random_instance(2, 2, 4, seed=3)
    cfg = derive_config("relaxed", 0.5, 0.1, m, episodes=77, iters=5)
    assert (cfg.episodes, cfg.iters) == (77, 5)
    assert cfg.dual_cap == 8.0  # untouched fields still derived


def test_derive_config_rejects_bad_targets():
    m = generate(GenSpec(2, 2, 2, zeta_target=0.5, seed=4))  # zeta = 0.5, min cost 0
    with pytest.raises(ValueError):
        derive_config("relaxed", 2.5, 0.1, m)  # eps > H
    for budget in (0.0, -0.5):  # at or below the minimum cost: zeta <= 0
        with pytest.raises(ValueError, match="zeta > 0"):
            derive_config("strict", 1.0, 0.1, replace(m, budget=budget))
    with pytest.raises(ValueError):
        derive_config("strict", 1.8, 0.1, m)  # eps > H - zeta
    with pytest.raises(ValueError):
        derive_config("soft", 1.0, 0.1, m)
    for mode, eps in (("relaxed", 1e-100), ("relaxed", 5e-324), ("strict", 5e-324)):
        # a power of epsilon underflows to 0 even when K and T are given
        with pytest.raises(ValueError, match="epsilon"):
            derive_config(mode, eps, 0.1, m, episodes=2, iters=2)
    for eps in ("1", None, True):  # "1" and None raised TypeError; True ran as 1
        with pytest.raises(ValueError, match=rf"^epsilon must be a number, got {eps!r}$"):
            derive_config("relaxed", eps, 0.1, m)
    # the overrides were passed through float(), which read a string
    for key, x in (("dual_cap", "4"), ("grid_step", "0.5"), ("dual_cap", True)):
        with pytest.raises(ValueError, match=rf"^{key} must be a number, got {x!r}$"):
            derive_config("relaxed", 1.0, 0.1, m, **{key: x})


def test_make_rounds_cap_up_to_grid():
    cfg = LearnerConfig.make(2, 2, 2, episodes=10, iters=16, dual_cap=1.1,
                             grid_step=0.25, delta=0.1, mode="relaxed", shift=0.0)
    assert cfg.dual_cap == 1.25
    assert cfg.eta == 1.25 / (2 * 4)  # default uses the rounded cap
    assert cfg.delta_prime == 0.1 / (200 * 2 * 2 * 4 * 100)


def test_make_validation_errors():
    good = dict(num_states=2, num_actions=2, horizon=2, episodes=10, iters=10,
                dual_cap=1.0, grid_step=0.5, delta=0.1, mode="relaxed", shift=0.0)
    for bad, match in (({"episodes": 0}, "^episodes must be an integer >= 1, got 0$"),
                       ({"iters": 0}, "^iters must be an integer >= 1, got 0$"),
                       ({"dual_cap": 0.0}, r"^dual_cap must be positive, got 0\.0$"),
                       ({"dual_cap": -1.0}, r"^dual_cap must be positive, got -1\.0$"),
                       ({"grid_step": -1.0}, r"^grid_step must be positive, got -1\.0$"),
                       ({"grid_step": 0.0}, r"^grid_step must be positive, got 0\.0$"),
                       ({"delta": 1.0}, r"^delta must be in \(0, 1\), got 1\.0$"),
                       ({"mode": "loose"}, "^mode must be 'relaxed' or 'strict', got 'loose'$"),
                       ({"shift": -0.5}, r"^shift must be >= 0, got -0\.5$"),
                       ({"bonus_scale": -1.0}, r"^bonus_scale must be >= 0, got -1\.0$"),
                       ({"c1": -5.0}, r"^c1 must be >= 0, got -5\.0$"),
                       ({"c2": -1e-300}, r"^c2 must be >= 0, got -1e-300$"),
                       ({"eta": 0.0}, r"^eta must be positive, got 0\.0$"),
                       ({"eta": -1.0}, r"^eta must be positive, got -1\.0$"),
                       ({"episodes": 2.5}, r"^episodes must be an integer >= 1, got 2\.5$"),
                       ({"iters": math.inf}, "^iters must be an integer >= 1, got inf$"),
                       ({"episodes": math.nan}, "^episodes must be an integer >= 1, got nan$"),
                       ({"iters": True}, "^iters must be an integer >= 1, got True$"),
                       ({"episodes": "3"}, "^episodes must be an integer >= 1, got '3'$"),
                       ({"iters": None}, "^iters must be an integer >= 1, got None$"),
                       ({"dual_cap": "1"}, "^dual_cap must be a number, got '1'$"),
                       ({"dual_cap": True}, "^dual_cap must be a number, got True$"),
                       ({"delta": "0.1"}, "^delta must be a number, got '0.1'$"),
                       ({"delta": True}, "^delta must be a number, got True$"),
                       ({"shift": None}, "^shift must be a number, got None$"),
                       ({"grid_step": None}, "^grid_step must be a number, got None$"),
                       ({"eta": "1"}, "^eta must be a number, got '1'$"),
                       ({"c1": None}, "^c1 must be a number, got None$"),
                       ({"bonus_scale": True}, "^bonus_scale must be a number, got True$"),
                       ({"dual_cap": 10**400}, r"^dual_cap=1000\d+ is past the float range$"),
                       ({"dual_cap": 1e300, "grid_step": 1e-300},
                        r"^dual_cap / grid_step = 1e\+300 / 1e-300 overflows$")):
        with pytest.raises(ValueError, match=match):
            LearnerConfig.make(**{**good, **bad})
    # delta' = delta / (200 S A H^2 K^2) underflows: 1/delta' is inf or a 0 division
    for delta in (1e-308, 1e-320, 5e-324):
        with pytest.raises(ValueError, match=rf"^delta={delta} is too small"):
            LearnerConfig.make(**{**good, "delta": delta})


def test_make_stores_a_negative_zero_constant_as_positive_zero():
    # a -0.0 bonus scale, or c1 = c2 = -0.0, would make the bonus -0.0
    good = dict(num_states=2, num_actions=2, horizon=2, episodes=10, iters=10,
                dual_cap=1.0, grid_step=0.5, delta=0.1, mode="relaxed", shift=0.0)
    cfg = LearnerConfig.make(**good, c1=-0.0, c2=-0.0, bonus_scale=-0.0)
    for x in (cfg.c1, cfg.c2, cfg.bonus_scale):
        assert x == 0.0 and math.copysign(1.0, x) == 1.0


@pytest.mark.parametrize("name", ["num_states", "num_actions", "horizon"])
@pytest.mark.parametrize("value", [0, -1, 2.5, 3.0, True, math.nan, math.inf, "3", None])
def test_make_rejects_bad_dimensions_by_name(name, value):
    # each dimension is checked like episodes and iters, before the delta'
    # formula divides by it (num_states=0) or flips its sign (num_actions=-1);
    # an integral float such as 3.0 is not a count
    good = dict(num_states=2, num_actions=2, horizon=2, episodes=10, iters=10,
                dual_cap=1.0, grid_step=0.5, delta=0.1, mode="relaxed", shift=0.0)
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1, got {value!r}$"):
        LearnerConfig.make(**{**good, name: value})
    cfg = LearnerConfig.make(**{**good, name: np.int64(3)})  # a numpy integer is an int
    assert type(getattr(cfg, name)) is int and getattr(cfg, name) == 3


@pytest.mark.parametrize("name", ["num_states", "num_actions", "horizon", "episodes", "iters"])
def test_make_rejects_counts_past_2_53_by_name(name):
    # float(10**400) raised OverflowError, and a count past 1e154 overflowed
    # the delta' formula's K**2 or H**2 on its way to a float
    good = dict(num_states=2, num_actions=2, horizon=2, episodes=10, iters=10,
                dual_cap=1.0, grid_step=0.5, delta=0.1, mode="relaxed", shift=0.0)
    for value in (10**400, 10**200, 2**53 + 1):
        with pytest.raises(ValueError) as e:
            LearnerConfig.make(**{**good, name: value})
        assert str(e.value) == f"{name}={value!r} exceeds 2**53"
    for value in (1e300, float(2**53)):  # floats are not counts, however large
        with pytest.raises(ValueError) as e:
            LearnerConfig.make(**{**good, name: value})
        assert str(e.value) == f"{name} must be an integer >= 1, got {value!r}"
    cfg = LearnerConfig.make(**{**good, name: 2**53})
    assert getattr(cfg, name) == 2**53 and 0 < cfg.delta_prime
    # a numpy count is an int before delta' squares it: np.int64(2**53)**2 wraps
    assert LearnerConfig.make(**{**good, name: np.int64(2**53)}) == cfg


@pytest.mark.parametrize("name", ["dual_cap", "grid_step", "shift", "eta", "c1",
                                  "c2", "bonus_scale"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_make_rejects_non_finite_options_by_name(name, value):
    good = dict(num_states=2, num_actions=2, horizon=2, episodes=10, iters=10,
                dual_cap=1.0, grid_step=0.5, delta=0.1, mode="relaxed", shift=0.0)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        LearnerConfig.make(**{**good, name: value})


_ODD_OPTIONS = (math.nan, math.inf, -math.inf, 0.0, -1.0, True, False)


def _option(*valid):
    return st.sampled_from(valid + _ODD_OPTIONS)


@settings(max_examples=200, deadline=None)
@given(mode=st.sampled_from(["relaxed", "strict"]),
       epsilon=_option(0.5, 1.0, 1e-100, 5e-324),  # tiny ones underflow epsilon**4
       delta=_option(0.1, 1e-308, 1e-320, 5e-324),  # tiny ones underflow delta'
       dual_cap=_option(None, 4.0), grid_step=_option(None, 0.25),
       bonus_scale=_option(0.0, 0.1), episodes=_option(1, 3), iters=_option(1, 3))
def test_train_options_are_rejected_or_run(mode, epsilon, delta, dual_cap, grid_step,
                                           bonus_scale, episodes, iters):
    # what the train subcommand does with its options: a config either fails
    # with ValueError or runs to the end
    m = preset("risky_shortcut")
    try:
        cfg = derive_config(mode, epsilon, delta, m, bonus_scale=bonus_scale,
                            episodes=episodes, iters=iters, dual_cap=dual_cap,
                            grid_step=grid_step)
    except ValueError:
        return
    res = run_learner(m, cfg, seed=0)
    assert len(res.episodes) == cfg.episodes <= 3
    assert all(math.isfinite(x) for x in cfg.snapshot().values() if isinstance(x, float))


def test_snapshot_is_complete_and_plain():
    cfg = exact_log_config()
    snap = cfg.snapshot()
    assert len(snap) == 15
    assert snap["mode"] == "relaxed"
    assert snap["c1"] == 460.0 / 9.0
    assert snap["c2"] == 544.0 / 9.0


# ---------------------------------------------------------------------------
# Clipped optimistic/pessimistic backups.


def test_empty_model_defaults_saturate():
    # unseen pairs score H on reward and 0 on cost at every step
    m = preset("two_state_chain")
    cfg = exact_log_config()
    model = EmpiricalModel.empty(m.stages, cfg)
    pi, v = backup_one(model, 0.0)
    assert np.all(v[0, :2] == 2.0)  # every non-terminal row saturates
    assert np.all(v[1] == 0.0)
    assert pi.validate() == []


def test_zero_bonus_full_model_reduces_to_exact_dp():
    # with the true kernel and no bonus the backup is plain DP on r - lam*c
    m = random_instance(3, 2, 3, seed=5)
    cfg = exact_log_config(num_states=3, num_actions=2, horizon=3,
                           bonus_scale=0.0, dual_cap=2.0)
    model = EmpiricalModel.from_kernel(m.transition, m.stages, cfg)
    for lam in (0.0, 0.5, 2.0):
        _, v = backup_one(model, lam)
        _, ref = greedy_backup(m.transition, (m.reward - lam * m.cost)[None])
        got = v[0, 0, 0] - lam * v[1, 0, 0]
        assert got == pytest.approx(ref[0, 0, 0], abs=1e-9)


def test_policy_value_bounds_match_backup_for_greedy_policy():
    m = random_instance(2, 2, 2, seed=6)
    cfg = exact_log_config(bonus_scale=0.0)
    model = EmpiricalModel.from_kernel(m.transition, m.stages, cfg)
    pi, v = backup_one(model, 0.5)
    v2 = policy_value_bounds(model, pi)
    assert np.allclose(v2, v, atol=1e-12)


def test_optimism_with_true_kernel_and_full_bonus():
    # with the exact kernel the bonus can only push vr up and vc down
    m = random_instance(3, 2, 3, seed=7)
    cfg = exact_log_config(num_states=3, num_actions=2, horizon=3)
    model = EmpiricalModel.from_kernel(m.transition, m.stages, cfg, batch_size=32)
    rng = np.random.default_rng(8)
    pi = Policy.from_actions(rng.integers(0, 2, size=(3, 3)), 2)
    vr_hat, vc_hat = policy_value_bounds(model, pi)[:, 0, 0]
    vr, vc = evaluate_policy(m.transition, m.stages, pi)[:, 0, 0]
    assert vr_hat >= vr - 1e-12
    assert vc_hat <= vc + 1e-12


def test_policy_value_bounds_rejects_a_rule_of_another_shape():
    m = random_instance(3, 2, 3, seed=4)
    cfg = exact_log_config(num_states=3, num_actions=2, horizon=3)
    model = EmpiricalModel.from_kernel(m.transition, m.stages, cfg)
    for shape in ((3, 3, 3), (2, 3, 2), (3, 2, 2)):
        rule = np.full(shape, 1.0 / shape[-1])
        with pytest.raises(ValueError, match=re.escape(f"{shape} != (H, S, A) (3, 3, 2)")):
            policy_value_bounds(model, Policy(rule))


def _reference_q_tables(model, vr_next, vc_next, h):
    """The per-(s, a) loop the vectorised backup replaced, kept as an oracle."""
    (reward, cost), cfg = model.stages, model.cfg
    horizon, s_, a_ = reward.shape
    qr, qc = np.empty((s_, a_)), np.empty((s_, a_))
    for s in range(s_):
        for a in range(a_):
            n = int(model.batch_size[h, s, a])
            if n == 0:
                qr[s, a], qc[s, a] = horizon, 0.0
                continue
            p = model.kernel[h, s, a]
            qr[s, a] = min(reward[h, s, a] + compute_bonus(p, vr_next, n, cfg)
                           + p @ vr_next, float(horizon))
            qc[s, a] = max(cost[h, s, a] - compute_bonus(p, vc_next, n, cfg)
                           + p @ vc_next, 0.0)
    return qr, qc


def _reference_sweep(model, lam=None, rule=None):
    """Greedy on qr - lam * qc, or the average over `rule`, loop by loop."""
    _, horizon, s_, a_ = model.stages.shape
    vr, vc = np.zeros((horizon + 1, s_)), np.zeros((horizon + 1, s_))
    actions = np.zeros((horizon, s_), dtype=int)
    for h in range(horizon - 1, -1, -1):
        qr, qc = _reference_q_tables(model, vr[h + 1], vc[h + 1], h)
        if rule is None:
            actions[h] = best = (qr - lam * qc).argmax(axis=1)
            vr[h], vc[h] = qr[np.arange(s_), best], qc[np.arange(s_), best]
        else:
            vr[h] = np.einsum("sa,sa->s", rule[h], qr)
            vc[h] = np.einsum("sa,sa->s", rule[h], qc)
    return actions, vr, vc


def _partly_built_model(m, seed, cfg, stages=None):
    """Empirical model of m (with m's stage tables unless given) with
    power-of-two batch sizes up to 2**16 (large enough that some bonuses
    leave the clips) and about one (h, s, a) row in ten never visited (zero
    row and zero counts). Each built row's counts are the ones the doubling
    rule gives right after it built that batch: batch 1 at lifetime count 1
    and epoch 1, batch 2**k (k >= 1) at count 2**(k + 1) and epoch k + 2."""
    rng = np.random.default_rng(seed)
    model = EmpiricalModel.from_kernel(m.transition, m.stages if stages is None else stages,
                                       cfg)
    powers = rng.integers(0, 17, size=m.reward.shape)
    sizes = 2 ** powers
    sizes[rng.random(m.reward.shape) < 0.1] = 0
    model.batch_size[:] = sizes
    model.total[:] = np.where(powers, 2 * sizes, sizes)
    model.epochs[:] = np.where(powers, powers + 2, 1)
    unbuilt = sizes == 0
    model.kernel[unbuilt] = 0.0
    model.total[unbuilt] = model.epochs[unbuilt] = 0
    return model


@pytest.mark.parametrize("bonus_scale", [0.0, 0.1, 1.0])
def test_vectorised_backup_matches_per_pair_loop(bonus_scale):
    grid_step, cap = 0.25, 2.0
    midpoints = [(i + 0.5) * grid_step for i in range(int(cap / grid_step))]
    cfg = LearnerConfig.make(10, 4, 8, episodes=300, iters=3, dual_cap=cap,
                             grid_step=grid_step, delta=0.1, mode="relaxed",
                             shift=0.5, bonus_scale=bonus_scale)
    for seed in (0, 1):
        m = random_instance(10, 4, 8, seed=100 + seed)
        model = _partly_built_model(m, seed, cfg)
        for lam in [0.0, *midpoints, cap]:
            pi, (vr, vc) = backup_one(model, lam)
            actions, ref_vr, ref_vc = _reference_sweep(model, lam=lam)
            assert np.array_equal(pi.rule, Policy.from_actions(actions, 4).rule)
            assert np.allclose(vr, ref_vr, rtol=0.0, atol=1e-12)
            assert np.allclose(vc, ref_vc, rtol=0.0, atol=1e-12)
        rule = np.random.default_rng(seed).dirichlet(np.ones(4), size=(8, 10))
        vr, vc = policy_value_bounds(model, Policy(rule))
        _, ref_vr, ref_vc = _reference_sweep(model, rule=rule)
        assert np.allclose(vr, ref_vr, rtol=0.0, atol=1e-12)
        assert np.allclose(vc, ref_vc, rtol=0.0, atol=1e-12)


def _two_call_q_tables(model, h, v_next):
    """The q-step before the stacked matvec: compute_bonus and p @ v once per
    table. Kept to pin the stacked step's bits."""
    (reward, cost), cfg = model.stages, model.cfg
    horizon = float(reward.shape[0])
    p, n = model.kernel[h], model.batch_size[h]
    vr, vc = v_next
    n1 = np.maximum(n, 1)
    qr = np.minimum(reward[h] + compute_bonus(p, vr, n1, cfg) + p @ vr, horizon)
    qc = np.maximum(cost[h] - compute_bonus(p, vc, n1, cfg) + p @ vc, 0.0)
    return np.stack((np.where(n == 0, horizon, qr), np.where(n == 0, 0.0, qc)))


@pytest.mark.parametrize("bonus_scale", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("dims", [(10, 4, 8), (1, 4, 6), (5, 1, 6)])
def test_stacked_q_step_keeps_the_two_call_bits(bonus_scale, dims):
    s_, a_, h_ = dims
    grid_step, cap = 0.25, 2.0
    midpoints = [(i + 0.5) * grid_step for i in range(int(cap / grid_step))]
    cfg = LearnerConfig.make(s_, a_, h_, episodes=300, iters=3, dual_cap=cap,
                             grid_step=grid_step, delta=0.1, mode="relaxed",
                             shift=0.5, bonus_scale=bonus_scale)
    rng = np.random.default_rng(s_ * a_)
    for seed in (0, 1):
        m = random_instance(s_, a_, h_, seed=200 + seed)
        model = _partly_built_model(m, seed, cfg)
        reference = partial(_two_call_q_tables, model)
        for h in range(h_):  # next-step values off the sweeps' paths
            v_next = rng.uniform(0.0, h_, size=(2, s_))
            assert np.array_equal(learner._q_tables(model, h, v_next), reference(h, v_next))
        for lam in [0.0, *midpoints, cap]:
            pi, v = backup_one(model, lam)
            actions, ref_v = _backward_induction(reference, (2, h_, s_),
                                                 score=lambda q: q[0] - lam * q[1])
            assert np.array_equal(pi.rule, Policy.from_actions(actions, a_).rule)
            assert np.array_equal(v, ref_v)
        rule = rng.dirichlet(np.ones(a_), size=(h_, s_))
        _, ref_v = _backward_induction(reference, (2, h_, s_), rule=rule)
        assert np.array_equal(policy_value_bounds(model, Policy(rule)), ref_v)


def _full_formula_q_tables(model, h, v_next):
    """The q-step without its scale-0 branch: E[V] and E[V^2] of both tables
    and the Bernstein bonus, written out, at every scale. Kept to pin the
    scale-0 branch's bits."""
    stages, cfg = model.stages, model.cfg
    horizon = float(stages.shape[1])
    p, n = model.kernel[h], model.batch_size[h]
    vv = np.concatenate((v_next, v_next * v_next), axis=-2)
    moments = (p @ vv[..., None, :, None])[..., 0]
    mean, second = moments[..., :2, :, :], moments[..., 2:, :, :]
    log_term = math.log(1.0 / cfg.delta_prime)
    n1 = np.maximum(n, 1)
    var = np.maximum(second - mean * mean, 0.0)
    bonus = cfg.bonus_scale * (cfg.c1 * np.sqrt(var * log_term / n1)
                               + cfg.c2 * cfg.horizon * log_term / n1)
    q = stages[:, h] + np.array([1.0, -1.0])[:, None, None] * bonus + mean
    np.minimum(q[..., 0, :, :], horizon, out=q[..., 0, :, :])
    np.maximum(q[..., 1, :, :], 0.0, out=q[..., 1, :, :])
    unbuilt = n == 0
    if unbuilt.any():
        q[..., unbuilt] = ((horizon,), (0.0,))
    return q


@pytest.mark.parametrize("bonus_scale", [0.0, 0.1])
@pytest.mark.parametrize("mode", ["relaxed", "strict"])
@pytest.mark.parametrize("dims", [(10, 4, 8), (1, 4, 6), (5, 1, 6)])
def test_q_step_keeps_the_full_formula_bytes(bonus_scale, mode, dims):
    # at scale 0 the q-step prices the means alone; its tables, sweeps and
    # policy bounds keep the bytes of the full formula (scale 0.1 pins the
    # full path against the same reference). Stage tables and next values
    # hold +0.0 and -0.0 entries, the models have unbuilt rows, and v_next
    # comes with no lambda axis and with 1 and 3 rows.
    s_, a_, h_ = dims
    cfg = LearnerConfig.make(s_, a_, h_, episodes=300, iters=3, dual_cap=2.0,
                             grid_step=0.25, delta=0.1, mode=mode, shift=0.5,
                             bonus_scale=bonus_scale)
    rng = np.random.default_rng(s_ * a_ + 3)

    def with_zeros(x):
        pick = rng.integers(3, size=x.shape)
        return np.where(pick == 0, 0.0, np.where(pick == 1, -0.0, x))

    for seed in (0, 1):
        m = random_instance(s_, a_, h_, seed=500 + seed)
        model = _partly_built_model(m, seed, cfg, with_zeros(m.stages))
        reference = partial(_full_formula_q_tables, model)
        for h in range(h_):
            for lead in ((), (1,), (3,)):
                v_next = with_zeros(rng.uniform(0.0, h_, size=lead + (2, s_)))
                got = learner._q_tables(model, h, v_next)
                assert got.tobytes() == reference(h, v_next).tobytes()
                assert got.shape == lead + (2, s_, a_)
        for lam in (0.0, 0.375, 2.0):
            pi, v = backup_one(fresh(model), lam)
            actions, ref_v = _backward_induction(reference, (2, h_, s_),
                                                 score=lambda q: q[0] - lam * q[1])
            assert pi.rule.tobytes() == Policy.from_actions(actions, a_).rule.tobytes()
            assert v.tobytes() == ref_v.tobytes()
        rule = rng.dirichlet(np.ones(a_), size=(h_, s_))
        _, ref_v = _backward_induction(reference, (2, h_, s_), rule=rule)
        assert policy_value_bounds(model, Policy(rule)).tobytes() == ref_v.tobytes()


def test_scale_zero_means_no_bonus():
    # at scale 0, bonus constants whose bonus overflows to inf (0 * inf is
    # NaN) give the tables of the default constants
    s_, a_, h_ = 3, 2, 3
    m = random_instance(s_, a_, h_, seed=7)
    make = partial(LearnerConfig.make, s_, a_, h_, episodes=300, iters=3, dual_cap=2.0,
                   grid_step=0.25, delta=0.1, mode="relaxed", shift=0.5, bonus_scale=0.0)
    huge = _partly_built_model(m, 0, make(c1=1e308, c2=1e308))
    default = _partly_built_model(m, 0, make())
    v_next = np.random.default_rng(7).uniform(0.0, h_, size=(2, s_))
    for h in range(h_):
        q = learner._q_tables(huge, h, v_next)
        assert not np.isnan(q).any()
        assert q.tobytes() == learner._q_tables(default, h, v_next).tobytes()


@pytest.mark.parametrize("bonus_scale", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("mode", ["relaxed", "strict"])
def test_base_table_keeps_the_full_formula_bytes_through_record_transition(bonus_scale,
                                                                            mode):
    # a model built only through record_transition, from an empty one, with
    # a backup before the first arrival and after every rebuild: after each
    # rebuild the q-step at every step, the greedy sweeps and the policy
    # bounds keep the bytes of the full formula, which reads stages, counts
    # and kernel, never model.base; so does a fresh copy, whose base is built
    # from the counts. Stage tables and next values hold +0.0 and -0.0, and
    # small bonus constants keep the bonus of a small batch below the clips.
    s_, a_, h_ = 4, 3, 3
    cfg = LearnerConfig.make(s_, a_, h_, episodes=300, iters=3, dual_cap=2.0,
                             grid_step=0.25, delta=0.1, mode=mode, shift=0.5,
                             c1=0.01, c2=0.01, bonus_scale=bonus_scale)
    rng = np.random.default_rng(int(10 * bonus_scale) + (mode == "strict"))

    def with_zeros(x):
        pick = rng.integers(3, size=x.shape)
        return np.where(pick == 0, 0.0, np.where(pick == 1, -0.0, x))

    m = random_instance(s_, a_, h_, seed=600)
    model = EmpiricalModel.empty(with_zeros(m.stages), cfg)
    reference = partial(_full_formula_q_tables, model)
    lams = [0.0, 0.375, 2.0]
    rule = rng.dirichlet(np.ones(a_), size=(h_, s_))
    lagrangian_greedy_backup(model, lams)
    rows = rng.random((h_, s_, a_)) ** 3  # skewed, so rows build at different times
    rebuilds = 0
    for _ in range(200):
        h, s, a = np.unravel_index(rng.choice(rows.size, p=(rows / rows.sum()).ravel()),
                                   rows.shape)
        if not record_transition(model, h, s, a, rng.integers(s_)):
            continue
        rebuilds += 1
        for mdl in (model, fresh(model)):
            for step in range(h_):
                for v_next in (with_zeros(rng.uniform(0.0, h_, size=(2, s_))),
                               np.full((3, 2, s_), -0.0)):
                    got = learner._q_tables(mdl, step, v_next)
                    assert got.tobytes() == reference(step, v_next).tobytes()
            policies, v = lagrangian_greedy_backup(mdl, lams)
            for lam, pi, v_lam in zip(lams, policies, v):
                actions, ref_v = _backward_induction(reference, (2, h_, s_),
                                                     score=lambda q: q[0] - lam * q[1])
                one_pi, one_v = backup_one(mdl, lam)
                for got_pi, got_v in ((pi, v_lam), (one_pi, one_v)):  # batched and single
                    assert got_pi.rule.tobytes() == Policy.from_actions(actions, a_).rule.tobytes()
                    assert got_v.tobytes() == ref_v.tobytes()
            _, ref_v = _backward_induction(reference, (2, h_, s_), rule=rule)
            assert policy_value_bounds(mdl, Policy(rule)).tobytes() == ref_v.tobytes()
    assert rebuilds > 50 and not model.batch_size.all()  # some rows stay unbuilt


@pytest.mark.parametrize("bonus_scale", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("dims", [(10, 4, 8), (1, 4, 6), (5, 1, 6)])
def test_memoized_backup_keeps_the_memo_free_bits(bonus_scale, dims):
    # the model's memo, shared by every lambda and kept across rebuilds,
    # with memo[h] cleared by record_transition when it rebuilds a row of
    # step h, gives the policies and values of a backup with a fresh memo
    s_, a_, h_ = dims
    grid_step, cap = 0.25, 2.0
    lams = [0.0, *((i + 0.5) * grid_step for i in range(int(cap / grid_step))), cap]
    cfg = LearnerConfig.make(s_, a_, h_, episodes=300, iters=3, dual_cap=cap,
                             grid_step=grid_step, delta=0.1, mode="relaxed",
                             shift=0.5, bonus_scale=bonus_scale)
    rng = np.random.default_rng(s_ * a_ + 1)
    for seed in (0, 1):
        m = random_instance(s_, a_, h_, seed=300 + seed)
        model = _partly_built_model(m, seed, cfg)

        def assert_memo_free_bits():
            for lam in lams:
                pi, v = backup_one(model, lam)
                want_pi, want_v = backup_one(fresh(model), lam)
                assert np.array_equal(pi.rule, want_pi.rule)
                assert np.array_equal(v, want_v)

        assert_memo_free_bits()
        assert len(model.memo[h_ - 1]) == 1  # the last step only ever sees zeros
        for h in range(h_):  # rebuild a row of each step in turn
            s, a = rng.integers(s_), rng.integers(a_)
            while not record_transition(model, h, s, a, rng.integers(s_)):
                pass
            assert_memo_free_bits()


@pytest.mark.parametrize("bonus_scale", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("dims", [(10, 4, 8), (1, 4, 6), (5, 1, 6)])
def test_batched_backup_matches_single_backups(bonus_scale, dims):
    # L multipliers backed up in one sweep give each multiplier the actions
    # and (2, H+1, S) values of its own backup, bit for bit: for L = 1, 2 and
    # 50 with repeats, at lambda = 0 and U, on partly built and empty models,
    # with a fresh memo and with one kept across calls. Action 1
    # duplicates action 0 (same reward, cost and kernel rows, same batch
    # sizes), so every step has exact ties, which go to action 0.
    s_, a_, h_ = dims
    grid_step, cap = 0.25, 2.0
    grid = [i * grid_step for i in range(int(cap / grid_step) + 1)]
    cfg = LearnerConfig.make(s_, a_, h_, episodes=300, iters=3, dual_cap=cap,
                             grid_step=grid_step, delta=0.1, mode="relaxed",
                             shift=0.5, bonus_scale=bonus_scale)
    rng = np.random.default_rng(s_ * a_ + 2)
    for seed in (0, 1):
        m = random_instance(s_, a_, h_, seed=400 + seed)
        stages = m.stages.copy()
        model = _partly_built_model(m, seed, cfg, stages)
        if a_ > 1:
            stages[..., 1] = stages[..., 0]
            for table in (model.kernel, model.batch_size):
                table[:, :, 1] = table[:, :, 0]
        for lams in ([cap], [0.0, cap], rng.choice(grid, 50).tolist()):
            for mdl in (model, EmpiricalModel.empty(stages, cfg)):
                policies, v = lagrangian_greedy_backup(mdl, lams)
                assert v.shape == (len(lams), 2, h_ + 1, s_)
                for lam, pi, v_lam in zip(lams, policies, v):
                    want_pi, want_v = backup_one(fresh(mdl), lam)
                    assert np.array_equal(pi.rule, want_pi.rule)
                    assert np.array_equal(v_lam, want_v)
                    if a_ > 1:
                        assert not pi.rule[:, :, 1].any()
                if mdl is model:  # single backups on the kept memo agree too
                    for lam, pi, v_lam in zip(lams, policies, v):
                        got_pi, got_v = backup_one(mdl, lam)
                        assert np.array_equal(got_pi.rule, pi.rule)
                        assert np.array_equal(got_v, v_lam)


def test_backup_rejects_an_empty_multiplier_sequence():
    # lams must be a non-empty 1-D sequence of finite numbers; a bare number
    # is not one
    m = preset("two_state_chain")
    model = EmpiricalModel.from_kernel(m.transition, m.stages, exact_log_config())
    for lams in ([], 0.0, math.nan, [[0.0, 1.0]], [math.inf], [0.0, math.nan, 1.0],
                 [0.0, -math.inf]):
        with pytest.raises(ValueError, match=re.escape(f"lams must be a non-empty 1-D sequence "
                                                       f"of finite numbers, got {lams!r}")):
            lagrangian_greedy_backup(model, lams)


def test_backups_sharing_a_pool_return_one_policy_object():
    # backups on one model share its pool
    m = preset("two_state_chain")
    model = EmpiricalModel.from_kernel(m.transition, m.stages, exact_log_config())
    (a, b), _ = lagrangian_greedy_backup(model, [0.0, 0.0])
    c, _ = backup_one(model, 0.0)
    assert a is b is c and list(model.pool.values()) == [a]
    d, _ = backup_one(fresh(model), 0.0)
    assert d == a and d is not a  # an empty pool: a fresh object


# ---------------------------------------------------------------------------
# Inner primal-dual loop.


def test_empty_model_episode_keeps_dual_at_zero():
    # pessimistic cost is 0 everywhere, so the dual gradient is always -b'
    m = preset("two_state_chain")
    cfg = exact_log_config(iters=25)
    model = EmpiricalModel.empty(m.stages, cfg)
    mix, walk = primal_dual_episode(model, m.initial_state, b_prime=0.65)
    assert walk.trace(walk.lam).tolist() == [0.0] * 25
    assert walk.trace(walk.vc).tolist() == [0.0] * 25
    assert [w for w, _ in mix.components] == [1.0]  # identical iterates merge


@pytest.mark.parametrize("distinct,cycle_start,iters",
                         [(1, 0, 1), (1, 0, 7), (1, 1, 1), (4, 4, 4), (4, 0, 9), (4, 1, 9),
                          (4, 3, 9), (4, 2, 6), (5, 2, 1000), (6, 5, 6), (6, 5, 7)])
def test_walk_trace_is_the_prefix_then_the_cycle(distinct, cycle_start, iters):
    # iteration t reads index t in the prefix and j + (t - j) % period after it
    j, period = cycle_start, distinct - cycle_start
    counts = [1] * distinct
    for t in range(distinct, iters):
        counts[j + (t - j) % period] += 1
    values = tuple(0.25 * i - 0.5 for i in range(distinct))
    walk = learner.DualWalk(values, values, tuple(counts), j, tuple(range(distinct)))
    want = [values[t] if t < j else values[j + (t - j) % max(period, 1)] for t in range(iters)]
    assert walk.trace(values).tolist() == walk.trace(np.array(values)).tolist() == want


def test_walk_trace_needs_the_cycle_its_counts_go_round():
    # counts past the prefix with no cycle after it: no short or padded trace
    walk = learner.DualWalk((0.0, 0.5), (0.0, 0.0), (1, 5), 2, (0, 1))
    with pytest.raises(ValueError, match="no cycle"):
        walk.trace(walk.lam)


def test_dual_iterates_live_on_the_grid():
    m = preset("two_state_chain")
    cfg = exact_log_config(bonus_scale=0.0, iters=60, dual_cap=2.0,
                           grid_step=0.125, eta=0.25)
    model = EmpiricalModel.from_kernel(m.transition, m.stages, cfg)
    _, walk = primal_dual_episode(model, m.initial_state, b_prime=0.45)
    lam_trace = walk.trace(walk.lam)
    assert np.all(lam_trace >= 0.0)
    assert np.all(lam_trace <= 2.0)
    steps = lam_trace / 0.125
    assert np.allclose(steps, np.round(steps), atol=1e-12)
    assert lam_trace.max() > 0.0  # constraint binds, dual must wake up


def test_backup_cache_is_reused_and_consistent():
    m = preset("two_state_chain")
    cfg = exact_log_config(bonus_scale=0.0, iters=30, dual_cap=2.0,
                           grid_step=0.125, eta=0.25)
    model = EmpiricalModel.from_kernel(m.transition, m.stages, cfg)
    mix1, walk1 = primal_dual_episode(model, 0, 0.45)
    assert {round(lam / 0.125) for lam in walk1.lam} <= set(range(17))
    mix2, walk2 = primal_dual_episode(model, 0, 0.45)
    assert walk1 == walk2
    assert mix1.components == mix2.components


def _reference_episode(model, initial_state, b_prime):
    """The one-step-per-iteration loop the orbit walk replaced: T dual steps,
    backups memoized by grid index, each on a fresh Q-table memo. Returns
    ([(visits, policy)] in first-visit order, lambda trace, v_c trace)."""
    cfg, cache, visits = model.cfg, {}, {}
    lam_trace, vc_trace = np.empty(cfg.iters), np.empty(cfg.iters)
    i = 0
    for t in range(cfg.iters):
        lam = i * cfg.grid_step
        if i not in cache:
            cache[i] = backup_one(fresh(model), lam)
        v_c = float(cache[i][1][1, 0, initial_state])
        lam_trace[t], vc_trace[t] = lam, v_c
        visits[i] = visits.get(i, 0) + 1
        i = grid_index(lam + cfg.eta * (v_c - b_prime), cfg.grid_step, cfg.dual_cap)
    return [(n, cache[j][0]) for j, n in visits.items()], lam_trace, vc_trace


def _assert_walk_matches_reference(model, initial_state, b_prime):
    cfg = model.cfg
    mix, walk = primal_dual_episode(model, initial_state, b_prime)
    plays, lam_trace, vc_trace = _reference_episode(model, initial_state, b_prime)
    assert walk.trace(walk.lam).tobytes() == lam_trace.tobytes()
    assert walk.trace(walk.vc).tobytes() == vc_trace.tobytes()
    assert np.mean(walk.trace(walk.lam)) == np.mean(lam_trace)
    assert walk.counts == tuple(n for n, _ in plays)
    assert [p for _, p in mix.components] == [p for _, p in plays]
    assert [w for w, _ in mix.components] == [n / cfg.iters for n, _ in plays]
    assert len(set(walk.lam)) == len(walk.lam)  # one entry per distinct index
    return walk


# (eta, grid_step, T) on two_state_chain with b' = 0.45, and the walk shape
# each gives: (prefix length, period); period 0 = no repeat within T
_CHAIN_WALKS = {
    "oscillating": (1.0, 0.25, 60, (0, 2)),
    "period_5_T_not_multiple": (2.0, 0.125, 61, (0, 5)),
    "prefix_then_odd_remainder": (0.25, 0.125, 60, (3, 2)),
    "T_shorter_than_prefix": (0.25, 0.125, 2, (2, 0)),
    "T_is_1": (0.25, 0.125, 1, (1, 0)),
    "fixed_point": (0.25, 0.5, 60, (0, 1)),
}


@pytest.mark.parametrize("case", sorted(_CHAIN_WALKS))
def test_walk_matches_reference_loop_on_chain(case):
    eta, step, iters, (prefix, period) = _CHAIN_WALKS[case]
    m = preset("two_state_chain")
    cfg = LearnerConfig.make(2, 2, 2, episodes=1, iters=iters, dual_cap=2.0,
                             grid_step=step, delta=0.1, mode="relaxed",
                             shift=0.0, eta=eta, bonus_scale=0.0)
    walk = _assert_walk_matches_reference(
        EmpiricalModel.from_kernel(m.transition, m.stages, cfg), m.initial_state, 0.45)
    assert (walk.cycle_start, len(walk.lam) - walk.cycle_start) == (prefix, period)
    assert sum(walk.counts) == iters


@pytest.mark.parametrize("iters", [1, 2, 5, 37])
def test_walk_matches_reference_loop_on_random_instances(iters):
    shapes = set()
    for seed in range(6):
        m = random_instance(4, 3, 4, seed)
        for eta in (0.3, 1.0):
            cfg = LearnerConfig.make(4, 3, 4, episodes=1, iters=iters,
                                     dual_cap=4.0, grid_step=0.0625,
                                     delta=0.1, mode="relaxed", shift=0.0,
                                     eta=eta, bonus_scale=0.0)
            model = EmpiricalModel.from_kernel(m.transition, m.stages, cfg, batch_size=64)
            for b_prime in (1.0, 1.5):
                walk = _assert_walk_matches_reference(model, m.initial_state, b_prime)
                shapes.add((walk.cycle_start > 0, len(walk.lam) > walk.cycle_start))
    if iters == 37:  # prefixes, cycles and walks that never close all occur
        assert shapes == {(True, True), (False, True), (True, False)}


@pytest.mark.parametrize("iters", [2, 5, 37])
def test_hint_changes_which_sweeps_run_never_the_walk(monkeypatch, iters):
    # with no hint, with the walk's own indices (as run_learner passes the
    # previous walk) and with indices it never visits (duplicates, 0 and the
    # top grid index), the mixture and the DualWalk are the same, on a fresh
    # memo and on the model's own, kept over every call as in a run; a hint
    # that covers the walk prices all of it in one lagrangian_greedy_backup
    # call. Walks that T cuts short are hinted too, as run_learner does.
    original, calls = learner.lagrangian_greedy_backup, []
    monkeypatch.setattr(learner, "lagrangian_greedy_backup",
                        lambda *args: calls.append(np.size(args[1])) or original(*args))
    cut_short = closed = 0
    for seed in range(6):
        m = random_instance(4, 3, 4, seed)
        cfg = LearnerConfig.make(4, 3, 4, episodes=1, iters=iters, dual_cap=4.0,
                                 grid_step=0.0625, delta=0.1, mode="relaxed",
                                 shift=0.0, eta=1.0, bonus_scale=0.0)
        model = EmpiricalModel.from_kernel(m.transition, m.stages, cfg, batch_size=64)
        top = grid_index(cfg.dual_cap, cfg.grid_step, cfg.dual_cap)
        mix, walk = primal_dual_episode(fresh(model), m.initial_state, 1.0)
        unvisited = [j for j in range(top + 1) if j not in walk.index]
        hints = (walk.index, (*walk.index[::-1], 0, *walk.index, top, top),
                 (0, 0, top, top, *unvisited[:3]))
        for hint in hints:
            for mdl in (fresh(model), model):
                calls.clear()
                assert primal_dual_episode(mdl, m.initial_state, 1.0, hint) == (mix, walk)
                assert calls[0] == len(set(hint) | {0})
                assert calls[1:] == [1] * len(set(walk.index) - set(hint) - {0})
        cut_short += walk.cycle_start == len(walk.lam) == iters
        closed += walk.cycle_start < len(walk.lam)
    assert cut_short and (closed or iters == 2)


# ---------------------------------------------------------------------------
# Full online runs.


def small_run_config(m, episodes=30, iters=10, bonus_scale=1.0):
    return LearnerConfig.make(m.num_states, m.num_actions, m.horizon,
                              episodes=episodes, iters=iters, dual_cap=1.0,
                              grid_step=0.25, delta=0.1, mode="relaxed",
                              shift=0.0, bonus_scale=bonus_scale)


def test_run_learner_is_bit_reproducible():
    m = preset("risky_shortcut")
    cfg = small_run_config(m)
    r1 = run_learner(m, cfg, seed=42)
    r2 = run_learner(m, cfg, seed=42)
    assert [k for k, _ in per_episode(r1.episodes)] == list(range(30))
    for a, b in zip(r1.episodes, r2.episodes, strict=True):
        assert (a.episode, a.count) == (b.episode, b.count)
        assert a.walk == b.walk
        assert a.model_updates_cum == b.model_updates_cum
    assert np.array_equal(r1.final_policy.weights(), r2.final_policy.weights())
    assert np.array_equal(r1.model.kernel, r2.model.kernel)


def test_run_learner_counts_and_monotone_updates():
    m = preset("risky_shortcut")
    cfg = small_run_config(m, episodes=25)
    res = run_learner(m, cfg, seed=3)
    assert int(res.model.total.sum()) == 25 * m.horizon
    ups = updates_per_episode(res.episodes)
    assert all(a <= b for a, b in zip(ups, ups[1:]))
    assert ups[-1] == int(res.model.epochs.sum())
    assert [k for k, _ in per_episode(res.episodes)] == list(range(25))
    assert all(log.wall_ms == 0.0 for log in res.episodes)  # timing off


def test_run_learner_calls_each_traced_binding_per_episode(monkeypatch):
    # run_learner samples through learner.sample_mixture_episode and folds
    # through learner.record_transition, the bindings a tracer wraps. An
    # episode drawn on its own makes one sample call and H record calls; a
    # block folds its episodes before the first rebuild in bulk and the
    # rebuilding one through H record calls. Every episode's
    # model_updates_cum is the rebuild count epochs.sum() at its end: read
    # after the H record calls of an episode that makes them (episode k ends
    # at total.sum() = (k + 1) H), and unchanged over a bulk-folded episode
    m = preset("risky_shortcut")
    cfg = small_run_config(m, episodes=400)
    sample, record, samples, records, ends = (learner.sample_mixture_episode,
                                              learner.record_transition, [], [], {})

    def counted_sample(*args):
        samples.append(1)
        return sample(*args)

    def counted_record(model, *args):
        rebuilt = record(model, *args)
        records.append(1)
        done, into = divmod(int(model.total.sum()), m.horizon)
        if not into:
            ends[done - 1] = int(model.epochs.sum())
        return rebuilt

    monkeypatch.setattr(learner, "sample_mixture_episode", counted_sample)
    monkeypatch.setattr(learner, "record_transition", counted_record)
    res = run_learner(m, cfg, seed=5)
    assert 0 < len(samples) < len(ends) < cfg.episodes  # blocks, some ending in a rebuild
    assert len(records) == len(ends) * m.horizon
    ups = updates_per_episode(res.episodes)
    assert ups == [ends[k] if k in ends else ups[k - 1] for k in range(cfg.episodes)]
    assert ups[-1] == int(res.model.epochs.sum())
    assert len(set(ups)) > 2  # the count moves during the run


def test_run_learner_final_policy_averages_episodes():
    m = preset("two_state_chain")
    cfg = small_run_config(m, episodes=8, iters=4)
    res = run_learner(m, cfg, seed=0)
    assert res.final_policy.weights().sum() == pytest.approx(1.0, abs=1e-12)
    # every component weight is a multiple of 1/(K*T)
    scaled = res.final_policy.weights() * (8 * 4)
    assert np.allclose(scaled, np.round(scaled), atol=1e-9)


def test_run_learner_final_mixture_merges_equal_policies():
    # each distinct policy appears once, weighted by the iterations it was
    # played over all episodes, divided once by K*T
    m = preset("two_state_chain")
    cfg = LearnerConfig.make(2, 2, 2, episodes=60, iters=20, dual_cap=4.0,
                             grid_step=0.125, delta=0.1, mode="relaxed",
                             shift=0.05, bonus_scale=0.0)
    res = run_learner(m, cfg, seed=1)
    plays = {}
    for _, log in per_episode(res.episodes):
        for w, p in log.mixture.components:
            key = p.rule.tobytes()
            plays[key] = plays.get(key, 0) + round(w * cfg.iters)
    final = res.final_policy.components
    keys = [p.rule.tobytes() for _, p in final]
    assert len(set(keys)) == len(keys) == len(plays)
    for w, p in final:
        assert w == plays[p.rule.tobytes()] / (60 * 20)


def _memo_free_run(env, cfg, seed):
    """run_learner's loop with a fresh memo for every plan, each episode
    sampled on its own and its plays folded: each episode's (mixture, walk)
    and model_updates_cum, the final mixture's components, and the model."""
    b_prime = cfg.b_prime(env.budget)
    model = EmpiricalModel.empty(env.stages, cfg)
    played, updates, plays, touched = [], [], {}, True
    for k in range(cfg.episodes):
        if touched:
            mixture, walk = primal_dual_episode(fresh(model), env.initial_state, b_prime)
        u = _stream_floats(seed, k, 1, 1 + 2 * env.horizon)[0].tolist()
        _, steps = learner.sample_mixture_episode(env, mixture, u)
        touched = False
        for h, (s, a, s_next) in enumerate(steps):
            touched |= record_transition(model, h, s, a, s_next)
        for (_, p), n in zip(mixture.components, walk.counts):
            plays[p] = plays.get(p, 0) + n
        played.append((mixture, walk))
        updates.append(int(model.epochs.sum()))
    total = cfg.episodes * cfg.iters
    return played, updates, tuple((n / total, p) for p, n in plays.items()), model


def test_run_learner_matches_a_memo_free_per_episode_loop(monkeypatch):
    # run_learner keeps its model's Q-table memo across lambdas and replans,
    # record_transition clears only the rebuilt step, the run folds the
    # plays once per log, counts times the episodes that replayed it, and
    # a long replay stretch draws its episodes in blocks and folds each up
    # to its first rebuild. Its walks, mixtures, rebuild counts, final
    # components (order and weight bits) and final model equal a loop that
    # plans with a fresh memo and samples and folds every episode on its
    # own; dropping the clear, or clearing another step, leaves stale tables
    # that change some walk, and folding a block's rebuilding episode in
    # bulk, or the episode after it in its place, changes the counts. Each run
    # replays walks: generated 10x4x8 at K 300, T 3, bonus 0 and 0.1, and
    # two runs that draw blocks: two_state_chain at K 2000, T 100, and
    # 10x4x8 at K 4100, T 64, bonus 1e-4, whose dual keeps most mixtures at
    # several components and whose blocks run through two stream tables and
    # into a third.
    m = generate(GenSpec(10, 4, 8, zeta_target=0.5, seed=3))
    chain = preset("two_state_chain")
    runs = [(m, derive_config("relaxed", 1.0, 0.1, m, bonus_scale=bonus_scale,
                              episodes=300, iters=3)) for bonus_scale in (0.0, 0.1)]
    runs.append((chain, derive_config("relaxed", 0.1, 0.1, chain, bonus_scale=0.0,
                                      episodes=2000, iters=100, dual_cap=4.0,
                                      grid_step=0.00390625)))
    runs.append((m, derive_config("relaxed", 1.0, 0.1, m, bonus_scale=1e-4,
                                  episodes=2 * _BLOCK + 4, iters=64)))
    sample, samples = learner.sample_mixture_episode, []
    monkeypatch.setattr(learner, "sample_mixture_episode",
                        lambda *args: samples.append(1) or sample(*args))
    for env, cfg in runs:
        samples.clear()
        res = run_learner(env, cfg, seed=1)
        drawn_alone = len(samples)
        logs = per_episode(res.episodes)
        assert len(res.episodes) < len(logs) == cfg.episodes  # replays
        played, updates, final, model = _memo_free_run(env, cfg, seed=1)
        assert [(log.mixture, log.walk) for _, log in logs] == played
        assert updates_per_episode(res.episodes) == updates
        assert res.final_policy.components == final
        for name in ("total", "batch_counts", "batch_size", "epochs", "kernel"):
            assert getattr(res.model, name).tobytes() == getattr(model, name).tobytes(), name
    several = sum(len(log.mixture.components) > 1 for _, log in logs)
    assert several > cfg.episodes // 2 and drawn_alone < cfg.episodes - 1000  # blocks drawn


def test_run_learner_interns_its_greedy_policies(monkeypatch):
    # equal greedy backups return one Policy object per run, and
    # Policy.from_actions runs once per distinct action table: on
    # two_state_chain at K 2000, T 100 the episode mixtures hold hundreds of
    # components but only as many objects as distinct policies
    m = preset("two_state_chain")
    cfg = derive_config("relaxed", 0.1, 0.1, m, bonus_scale=0.0, episodes=2000,
                        iters=100, dual_cap=4.0, grid_step=0.00390625)
    original, built = Policy.from_actions.__func__, []
    monkeypatch.setattr(Policy, "from_actions", classmethod(
        lambda cls, *args: built.append(1) or original(cls, *args)))
    res = run_learner(m, cfg, seed=2)
    comps = [p for log in res.episodes for _, p in log.mixture.components]
    assert len({id(p) for p in comps}) == len(set(comps)) == len(built) < len(comps) // 10
    assert {id(p) for _, p in res.final_policy.components} == {id(p) for p in comps}


@pytest.mark.parametrize("episodes, iters, multipliers, sweeps", [
    pytest.param(200, 20, 344, 40, id="200-20-344"),
    pytest.param(2000, 100, 671, 55, id="2000-100-671")])
def test_run_learner_replans_only_after_a_rebuild(monkeypatch, episodes, iters,
                                                  multipliers, sweeps):
    # the multipliers priced are those of the one-step loop with a per-index
    # cache cleared on every row rebuild, so a hinted sweep prices no
    # multiplier its walk leaves unvisited; an episode after one without a
    # rebuild replays the previous walk and plans nothing
    m = preset("two_state_chain")
    cfg = derive_config("relaxed", 0.1, 0.1, m, bonus_scale=0.0,
                        episodes=episodes, iters=iters, dual_cap=4.0,
                        grid_step=0.00390625)
    original, calls = learner.lagrangian_greedy_backup, []
    monkeypatch.setattr(learner, "lagrangian_greedy_backup",
                        lambda *args: calls.append(np.size(args[1])) or original(*args))
    res = run_learner(m, cfg, seed=1)
    assert (sum(calls), len(calls)) == (multipliers, sweeps)
    logs = per_episode(res.episodes)
    prev = [0] + updates_per_episode(res.episodes)
    for k, log in logs[1:]:
        replayed = prev[k] == prev[k - 1]  # episode k - 1 rebuilt no row
        assert (log.walk is logs[k - 1][1].walk) == replayed
        assert sum(log.walk.counts) == iters


@pytest.mark.parametrize("case", ["train_dual", "blocks_10x4x8"])
def test_run_learner_records_one_log_per_replan(monkeypatch, tmp_path, case):
    # each replan opens one log, whose count is the episodes that played its
    # mixture: the logs tile 0 .. K - 1 and their counts sum to K. Under
    # measure_time each log's wall_ms is a positive mean per episode, which
    # every run.csv row of its stretch carries, and the logs are otherwise
    # the untimed run's. Both runs replay: two_state_chain at K 2000, T 100,
    # and 10x4x8 at K 4100, T 64, bonus 1e-4, which draws blocks
    if case == "train_dual":
        env = preset("two_state_chain")
        cfg = derive_config("relaxed", 0.1, 0.1, env, bonus_scale=0.0, episodes=2000,
                            iters=100, dual_cap=4.0, grid_step=0.00390625)
    else:
        env = generate(GenSpec(10, 4, 8, zeta_target=0.5, seed=3))
        cfg = derive_config("relaxed", 1.0, 0.1, env, bonus_scale=1e-4,
                            episodes=2 * _BLOCK + 4, iters=64)
    plan, plans = learner.primal_dual_episode, []
    monkeypatch.setattr(learner, "primal_dual_episode",
                        lambda *args: plans.append(1) or plan(*args))
    logs = run_learner(env, cfg, seed=1).episodes
    assert len(plans) == len(logs) < cfg.episodes // 2
    ends = list(accumulate(log.count for log in logs))
    assert [log.episode for log in logs] == [0] + ends[:-1]
    assert all(log.count >= 1 for log in logs) and sum(log.count for log in logs) == cfg.episodes
    assert all(type(log.episode) is type(log.model_updates_cum) is int for log in logs)
    timed = run_learner(env, cfg, seed=1, measure_time=True).episodes
    key = attrgetter("episode", "count", "model_updates_cum", "walk")
    assert list(map(key, timed)) == list(map(key, logs))
    assert all(log.wall_ms > 0 for log in timed)
    write_run_csv(compute_metrics(env, solve_cmdp_exact(env), timed), tmp_path / "run.csv")
    rows = read_run_csv(tmp_path / "run.csv")
    assert [row.wall_ms for row in rows] == [log.wall_ms for _, log in per_episode(timed)]


@pytest.mark.parametrize("seed", [-7, 2**64 - 1])
def test_run_learner_draws_each_episode_from_its_own_stream(monkeypatch, seed):
    # the learner reads its uniforms _BLOCK episodes at a time; K crosses two
    # block boundaries and ends three rows into a third block. An episode
    # drawn on its own gets row k, the first 1 + 2H uniforms of the scalar
    # stream of episode k, and a block draws from the same uniforms: every
    # episode, block-drawn or not, has the scalar sampler's steps on that
    # stream, and one drawn on its own its component too.
    m = preset("risky_shortcut")
    episodes = 2 * _BLOCK + 3
    sample, fold, drawn = learner.sample_mixture_episode, learner._fold_replays, []

    def recording(env, mix, u):
        drawn.append((list(u), sample(env, mix, u)))
        return drawn[-1][1]

    def recording_fold(model, rows, nexts):
        kept, rebuilds = fold(model, rows, nexts)
        _, s, a = np.unravel_index(rows[:, :kept], model.total.shape)
        drawn.extend((None, (None, list(zip(*step)))) for step in zip(
            s.T.tolist(), a.T.tolist(), nexts[:, :kept].T.tolist()))
        return kept, rebuilds

    monkeypatch.setattr(learner, "sample_mixture_episode", recording)
    monkeypatch.setattr(learner, "_fold_replays", recording_fold)
    res = run_learner(m, small_run_config(m, episodes=episodes, iters=3), seed)
    assert len(drawn) == episodes
    assert 0 < sum(row is None for row, _ in drawn) < episodes
    for (k, log), (row, (idx, steps)) in zip(per_episode(res.episodes), drawn, strict=True):
        if row is not None:
            rng = episode_stream(seed, k)
            assert row == [rng.next_float() for _ in range(1 + 2 * m.horizon)]
        want_idx, traj = sample_mixture_trajectory(m, log.mixture, episode_stream(seed, k))
        assert steps == [(st.state, st.action, st.next_state) for st in traj.steps]
        assert idx in (None, want_idx)


def test_run_learner_validates_inputs(monkeypatch):
    m = preset("two_state_chain")
    other = preset("risky_shortcut")
    cfg = small_run_config(m)
    with pytest.raises(ValueError):
        run_learner(other, cfg, seed=0)  # dims mismatch
    for seed in (-3, 2**70, np.int8(-3), np.uint64(2**64 - 1)):  # any sign and size
        run_learner(m, small_run_config(m, episodes=2, iters=2), seed)
    monkeypatch.setattr(learner, "primal_dual_episode",
                        lambda *args: pytest.fail("a run started"))
    for seed in (True, 1.5, 3.0, np.float64(3.0), "3", None):  # True ran as 1; 1.5 a TypeError
        with pytest.raises(ValueError, match=r"^seed must be an integer, got "):
            run_learner(m, cfg, seed=seed)
    with pytest.raises(ValueError, match="episodes"):
        run_learner(m, small_run_config(m, episodes=learner.MAX_EPISODES + 1), seed=0)
    with pytest.raises(ValueError, match="iters"):
        run_learner(m, small_run_config(m, iters=learner.MAX_ITERS + 1), seed=0)
    strict_cfg = LearnerConfig.make(2, 2, 2, episodes=5, iters=5, dual_cap=1.0,
                                    grid_step=0.25, delta=0.1, mode="strict",
                                    shift=0.7)  # b' = 0.6 - 0.7 < 0
    with pytest.raises(ValueError):
        run_learner(m, strict_cfg, seed=0)


def test_deterministic_preset_runs_are_seed_independent():
    # two_state_chain moves are deterministic and the planner breaks ties
    # deterministically, so the seed never enters the trajectory
    m = preset("two_state_chain")
    cfg = small_run_config(m, episodes=12, iters=6)
    w0 = run_learner(m, cfg, seed=0).final_policy.weights()
    w1 = run_learner(m, cfg, seed=12345).final_policy.weights()
    assert np.array_equal(w0, w1)
