"""Model-based primal-dual learner for online constrained MDPs.

Each episode runs T inner iterations against the current empirical model:
the primal step does one greedy backward induction on the Lagrangian stage
(optimistic reward minus lambda times pessimistic cost), and the dual step
moves lambda by eta * (pessimistic cost value - shifted budget), projected
onto a finite grid {0, eps1, 2*eps1, ..., U} and carried as the grid index
i (lambda = i * eps1). With the model fixed the next index depends only on
the current one, so the walk from index 0 is a prefix and then a cycle: it
runs once, one backup per distinct index, and the T iterations become visit
counts; an episode whose model did not change replays the previous walk. The
behavior policy mixes the greedy policies by visits / T; one trajectory is
sampled from it and folded into the counts. The final policy weights each
distinct greedy policy by the iterations it was played / (K T).

A replan usually revisits most of the previous walk's indices, so the
previous walk is always its hint: it backs them up first, with index 0, in
one sweep with a leading lambda axis, and then walks through those results,
backing up each index outside them on its own, in a sweep with no lambda
axis. A hint changes which sweeps run, never the walk.
Equal greedy backups within a run share one Policy object, interned by the
bytes of their action table, so dict lookups on policies stop at the
identity check.

Confidence bonuses are Bernstein-style:

    scale * (c1 * sqrt(Var_phat(V_next) * log(1/delta') / n)
             + c2 * H * log(1/delta') / n)

with c1 = 460/9, c2 = 544/9, delta' = delta / (200 S A H^2 K^2), and n the
size of the batch behind the current empirical row. Optimistic reward backups
clip at H, pessimistic cost backups clip at 0, and state-action pairs with no
built batch default to the extremes (H for reward, 0 for cost). Both sweeps
build these Q-tables for all pairs at once and run core's backward-induction
kernel, the one behind evaluate_policy and greedy_backup; both return the
stacked (2, H+1, S) array of optimistic reward and pessimistic cost values.
Each step prices E[V] and E[V^2] of both tables in one broadcast matvec and
one bonus, or E[V] alone at bonus scale 0 (the bonus is +0.0, see _q_tables);
this rounds like a one-table `p @ v`, so the tables keep the bits of pricing
each table on its own, and a sweep over L multipliers keeps L sweeps' bits.
Each step starts from the model's base table, which record_transition keeps
at the stage tables on built rows and at the defaults on the others.

The empirical model keeps one memo of these Q-tables per step, keyed by the
bytes of the next step's (2, S) values: the lambdas of a walk often agree on
their late greedy choices, and every walk starts at lambda = 0. A batched
sweep looks up each lambda's key and computes only the distinct misses, in
one call. Step h's tables are a pure function of kernel[h], batch_size[h],
the model's stage tables and config, and the key, and only a rebuild of a
step-h row changes kernel[h] or batch_size[h]; record_transition clears
memo[h], and no other step, when it rebuilds a row of step h, so a hit
returns the very array a fresh computation would.

The empirical kernel row for a pair is rebuilt from scratch each time its
lifetime visit count (the model's total) reaches a power of two, using only
the transitions observed since the previous rebuild (batch_counts); the sizes
of the batches behind the rows (batch_size) therefore follow 1, 1, 2, 4, 8, ...
and each pair is rebuilt (epochs) at most log2(K) + 1 times.

Most episodes of a long run replay an unchanged plan. A stretch (the
episodes that play one replan's mixture) draws its first _REPLAYS = 8
episodes one at a time, sampled by bisect and folded by record_transition.
After that it draws blocks of _GROWTH = 4 times its length so far, cut at K
and at the end of the current stream table, with simulate's array sampler,
and folds each block up to its first rebuild; the rest of the block is
dropped and drawn again after the replan. This is the one-at-a-time run,
bit for bit: _draw over the same running sums is the bisect draw;
transitions that rebuild nothing only add to total and batch_counts, so
they commute and fold in bulk by bincount; a row rebuilds exactly when its
lifetime count reaches a power of two, so the first such count in the
block, ranked in play order, is the first rebuild; and that episode goes
through record_transition, the one code path for rebuilds, base and the
memo clear. A run records each stretch once, as an EpisodeLog with its
first episode and count.

Budget shift: relaxed mode aims at b' = b + shift (slack spent on faster
learning), strict mode at b' = b - shift (margin spent on safety). The true
kernel is never read here; the model holds the known reward/cost tables and
the learner sees the environment only through sampled transitions.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .core import (MixturePolicy, Policy, TabularCmdp, _backward_induction, _integer,
                   _real, slater_constant)
from .simulate import (_BLOCK, _cdf_table, _draw, _one_hot_steps, _uniforms,
                       sample_mixture_episode)

BONUS_C1 = 460.0 / 9.0
BONUS_C2 = 544.0 / 9.0

RELAXED = "relaxed"
STRICT = "strict"

# Hard caps on K and T, checked before a run starts. The metrics materialize
# each distinct walk's length-T multiplier trace, so a huge T fails for lack
# of memory only after the whole run.
MAX_EPISODES = 10**6
MAX_ITERS = 10**7


@dataclass(frozen=True)
class LearnerConfig:
    """Hyperparameters for one run. Build through make() or derive_config().

    dual_cap is U (always an exact multiple of grid_step), grid_step is eps1,
    shift is the budget shift (tau in relaxed mode, Delta in strict mode).
    delta_prime is the per-estimate failure probability delta/(200 S A H^2 K^2).
    """

    num_states: int
    num_actions: int
    horizon: int
    episodes: int  # K
    iters: int  # T, dual updates per episode
    dual_cap: float  # U
    grid_step: float  # eps1
    eta: float
    delta: float
    delta_prime: float
    mode: str
    shift: float
    c1: float = BONUS_C1
    c2: float = BONUS_C2
    bonus_scale: float = 1.0

    @classmethod
    def make(cls, num_states, num_actions, horizon, episodes, iters, dual_cap,
             grid_step, delta, mode, shift, eta=None, c1=BONUS_C1, c2=BONUS_C2,
             bonus_scale=1.0) -> "LearnerConfig":
        """Validate, round U up to the grid, and default eta = U / (H sqrt(T)).
        Counts follow core._integer (no bools or 3.0) up to 2**53; reals, core._real."""
        counts = {"num_states": num_states, "num_actions": num_actions,
                  "horizon": horizon, "episodes": episodes, "iters": iters}
        for name, count in counts.items():
            counts[name] = count = _integer(name, count)
            if count > 2**53:  # past the float range or its exact integers
                raise ValueError(f"{name}={count} exceeds 2**53")
        num_states, num_actions, horizon, episodes, iters = counts.values()
        delta = _real("delta", delta)
        reals = {"dual_cap": dual_cap, "grid_step": grid_step, "shift": shift,
                 "eta": eta, "c1": c1, "c2": c2, "bonus_scale": bonus_scale}
        for name, x in reals.items():
            if x is not None or name != "eta":
                reals[name] = x = _real(name, x)
                if not math.isfinite(x):
                    raise ValueError(f"{name} must be finite, got {x!r}")
        dual_cap, grid_step, shift, eta, c1, c2, bonus_scale = reals.values()
        for name, x in (("dual_cap", dual_cap), ("grid_step", grid_step), ("eta", eta)):
            if x is not None and not x > 0:
                raise ValueError(f"{name} must be positive, got {x!r}")
        if not math.isfinite(dual_cap / grid_step):
            raise ValueError(f"dual_cap / grid_step = {dual_cap} / {grid_step} overflows")
        if not 0 < delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        if mode not in (RELAXED, STRICT):
            raise ValueError(f"mode must be {RELAXED!r} or {STRICT!r}, got {mode!r}")
        for name, x in (("shift", shift), ("c1", c1), ("c2", c2), ("bonus_scale", bonus_scale)):
            if x < 0:
                raise ValueError(f"{name} must be >= 0, got {x}")
        steps = math.ceil(dual_cap / grid_step - 1e-12)
        dual_cap = steps * grid_step
        if eta is None:
            eta = dual_cap / (horizon * math.sqrt(iters))
        delta_prime = delta / (200.0 * num_states * num_actions
                               * horizon**2 * episodes**2)
        if not (delta_prime > 0 and math.isfinite(1.0 / delta_prime)):
            raise ValueError(f"delta={delta} is too small: 1/delta' = "
                             f"200 S A H^2 K^2 / delta is not finite")
        return cls(*counts.values(), dual_cap, grid_step, eta, delta, delta_prime, mode, shift,
                   c1 + 0.0, c2 + 0.0, bonus_scale + 0.0)  # -0.0 -> +0.0: see _q_tables

    def b_prime(self, budget: float) -> float:
        """The shifted budget the dual update tracks."""
        return budget + self.shift if self.mode == RELAXED else budget - self.shift

    def snapshot(self) -> dict:
        """Every field, in declaration order, as plain values."""
        return asdict(self)


def derive_config(mode, epsilon, delta, m: TabularCmdp, bonus_scale=1.0,
                  episodes=None, iters=None, dual_cap=None,
                  grid_step=None) -> LearnerConfig:
    """Fill a config from the accuracy target epsilon via the rate formulas.

    Relaxed mode (any 0 < epsilon <= H):
        T = H^4/eps^4, U = H/eps, eps1 = eps^3/H^3, shift = eps/2,
        K = S A H^3 / eps^2.
    Strict mode (zeta = slater_constant(m); needs zeta > 0, 0 < epsilon <= H - zeta):
        T = H^6/(zeta^4 eps^2), U = H^2/(zeta (H - eps)),
        eps1 = eps^2 zeta^2 / H^4, shift = zeta eps / (2H),
        K = S A H^5 / (eps^2 zeta^2).
    K, T are ceilinged to integers; explicit keyword overrides win over the
    formulas.
    """
    s_, a_, h_ = m.num_states, m.num_actions, m.horizon
    epsilon = _real("epsilon", epsilon)
    try:
        if mode == RELAXED:
            if not 0 < epsilon <= h_:
                raise ValueError(f"relaxed mode needs 0 < epsilon <= H, got {epsilon}")
            t0 = h_**4 / epsilon**4
            u0 = h_ / epsilon
            e0 = epsilon**3 / h_**3
            shift = epsilon / 2.0
            k0 = s_ * a_ * h_**3 / epsilon**2
        elif mode == STRICT:
            zeta, _ = slater_constant(m)
            if not zeta > 0:
                raise ValueError(f"strict mode needs zeta > 0, got {zeta}")
            if not 0 < epsilon <= h_ - zeta:
                raise ValueError(
                    f"strict mode needs 0 < epsilon <= H - zeta = {h_ - zeta}, got {epsilon}")
            t0 = h_**6 / (zeta**4 * epsilon**2)
            u0 = h_**2 / (zeta * (h_ - epsilon))
            e0 = epsilon**2 * zeta**2 / h_**4
            shift = zeta * epsilon / (2.0 * h_)
            if not shift < zeta:  # pragma: no cover - implied by epsilon < 2H
                raise ValueError(f"shift {shift} must stay below zeta {zeta}")
            k0 = s_ * a_ * h_**5 / (epsilon**2 * zeta**2)
        else:
            raise ValueError(f"mode must be {RELAXED!r} or {STRICT!r}, got {mode!r}")
    except ZeroDivisionError:  # a power of epsilon underflowed to 0
        t0 = u0 = e0 = shift = k0 = math.inf
    if not all(0 < x < math.inf for x in (t0, u0, e0, shift, k0)):
        raise ValueError(f"epsilon={epsilon} puts a rate formula out of range (0, inf)")
    episodes = episodes if episodes is not None else max(1, math.ceil(k0))
    iters = iters if iters is not None else max(1, math.ceil(t0))
    dual_cap = _real("dual_cap", dual_cap) if dual_cap is not None else u0
    grid_step = _real("grid_step", grid_step) if grid_step is not None else e0
    return LearnerConfig.make(s_, a_, h_, episodes, iters, dual_cap, grid_step,
                              delta, mode, shift, bonus_scale=bonus_scale)


# ---------------------------------------------------------------------------
# Empirical model with doubling batches.


@dataclass
class EmpiricalModel:
    """Visit counts, the current empirical kernel, and what its backups depend on.

    Per (h, s, a), total counts lifetime visits, batch_counts the transitions
    since the last rebuild, batch_size the size of the batch behind the kernel
    row (0 = none built yet) and epochs the rebuilds. kernel rows are defined
    only where batch_size >= 1; undefined rows stay zero. stages holds the
    known (2, H, S, A) reward and cost tables and cfg the run's config. base,
    built from batch_size on first use, is where each q-step starts (see
    _q_tables). memo caches each step's Q-tables by the next-step values'
    bytes (see the module docstring), and pool maps an action table's bytes
    to the one Policy built for it, so equal backups return the same object.
    Once a backup has run, change the counts and kernel only through
    record_transition, which keeps base and the memo valid; a transition
    that rebuilds no row may instead just add to total and batch_counts, as
    _fold_replays does.
    """

    total: np.ndarray  # (H, S, A) lifetime visits
    batch_counts: np.ndarray  # (H, S, A, S) transitions since last rebuild
    batch_size: np.ndarray  # (H, S, A) size of the batch behind kernel rows
    epochs: np.ndarray  # (H, S, A) number of rebuilds
    kernel: np.ndarray  # (H, S, A, S)
    stages: np.ndarray  # (2, H, S, A)
    cfg: LearnerConfig
    memo: list  # per step: next-step values' bytes -> (2, S, A) Q-tables
    pool: dict  # action-table bytes -> Policy

    @classmethod
    def empty(cls, stages: np.ndarray, cfg: LearnerConfig) -> "EmpiricalModel":
        horizon, num_states, _ = shape = stages.shape[1:]
        total, batch_size, epochs = (np.zeros(shape, dtype=np.int64) for _ in range(3))
        return cls(total, np.zeros(shape + (num_states,), dtype=np.int64), batch_size, epochs,
                   np.zeros(shape + (num_states,)), stages, cfg, [{} for _ in range(horizon)], {})

    @classmethod
    def from_kernel(cls, kernel: np.ndarray, stages: np.ndarray, cfg: LearnerConfig,
                    batch_size: int = 1) -> "EmpiricalModel":
        """Model with every row built from a batch of batch_size = b = 2**k, as
        record_transition leaves it: lifetime count 2b and k + 2 rebuilds, or 1 and 1 at b = 1.
        kernel must have the shape stages.shape[1:] + (S,), (H, S, A, S)."""
        b = _integer("batch_size", batch_size)
        if b & (b - 1):
            raise ValueError(f"batch_size must be a power of two >= 1, got {batch_size!r}")
        if np.shape(kernel) != stages.shape[1:] + stages.shape[2:3]:
            raise ValueError(f"kernel shape {np.shape(kernel)} != (H, S, A, S) "
                             f"{stages.shape[1:] + stages.shape[2:3]}")
        k = b.bit_length() - 1
        model = cls.empty(stages, cfg)
        model.kernel = np.array(kernel, dtype=float)
        model.total[:], model.batch_size[:], model.epochs[:] = (
            (2 * b, b, k + 2) if k else (1, 1, 1))
        return model

    @cached_property
    def base(self) -> np.ndarray:
        unbuilt = np.array([self.stages.shape[1], 0.0])[:, None, None, None]  # (H, 0.0)
        return np.where(self.batch_size, self.stages + _BONUS_SIGN[:, None] * 0.0, unbuilt)


def record_transition(model: EmpiricalModel, h: int, s: int, a: int, s_next: int) -> bool:
    """Fold one transition into the counts; True iff the (h, s, a) row was rebuilt.

    Rebuilds happen when the lifetime count hits a power of two (1, 2, 4, ...);
    the new row is the distribution of the batch accumulated since the last
    rebuild, the batch resets, base takes the row's stages, and memo[h] clears.
    """
    if h < 0 or s < 0 or a < 0 or s_next < 0:  # numpy would wrap them round
        raise ValueError(f"indices must be >= 0, got h={h}, s={s}, a={a}, s_next={s_next}")
    model.batch_counts[h, s, a, s_next] += 1  # all four indices: a bad one raises first
    model.total[h, s, a] += 1
    n = int(model.total[h, s, a])
    if n & (n - 1):
        return False
    batch = model.batch_counts[h, s, a]
    size = int(batch.sum())
    model.kernel[h, s, a] = batch / size
    model.batch_size[h, s, a] = size
    model.epochs[h, s, a] += 1
    batch[:] = 0
    model.base[0, h, s, a] = model.stages[0, h, s, a] + 0.0  # -0.0 -> +0.0: see _q_tables
    model.base[1, h, s, a] = model.stages[1, h, s, a]
    model.memo[h].clear()
    return True


def _bonus(mean, second, n, cfg: LearnerConfig):
    """Bernstein bonus from the row moments mean = E[V] and second = E[V^2]
    and the batch sizes n behind the rows, all broadcast together."""
    var = np.maximum(second - mean * mean, 0.0)
    log_term = math.log(1.0 / cfg.delta_prime)
    return cfg.bonus_scale * (cfg.c1 * np.sqrt(var * log_term / n)
                              + cfg.c2 * cfg.horizon * log_term / n)


def compute_bonus(p_hat, v_next, n, cfg: LearnerConfig):
    """Bernstein bonus of kernel rows p_hat (..., S) against the value vector v_next.

    n is the batch size behind each row, broadcast against p_hat's leading
    axes, which the returned bonuses keep; every n must be >= 1 (a built batch).
    """
    n = np.asarray(n)
    if (n < 1).any():
        raise ValueError(f"bonus needs a built batch (n >= 1), got n={n}")
    p_hat, v_next = np.asarray(p_hat, dtype=float), np.asarray(v_next, dtype=float)
    return _bonus(p_hat @ v_next, p_hat @ (v_next * v_next), n, cfg)


_BONUS_SIGN = np.array([1.0, -1.0])[:, None, None]  # optimistic reward, pessimistic cost


def _q_tables(model, h, v_next):
    """Clipped optimistic-reward and pessimistic-cost Q-tables at step h,
    stacked (..., 2, S, A) from the model's base table and the (..., 2, S)
    next-step values; any leading axes are kept.

    One broadcast matvec prices E[V] and E[V^2] of both tables for every row.
    It rounds like the one-table `p @ v` (core._expected_stage relies on the
    same fact; a gemm over the stack would not), and adding the negated bonus
    equals subtracting it, so the tables keep the bits of two separate
    compute_bonus + `p @ v` calls, whatever the leading axes.

    At bonus scale 0 it prices E[V] alone, with the full formula's bits
    wherever its unscaled bonus is finite (0 * inf would be NaN): each batch
    item of the matvec is its own product, and with c1, c2 >= 0 (make stores
    +0.0 for -0.0) the bonus b is >= +0, so the scaled one is +0.0. Starting
    from model.base moves no bit. On built rows base is stages + (+0.0, -0.0),
    and (r + 0.0) + b == r + b, (c - 0.0) - b == c - b. Unbuilt rows have base
    (H, 0.0) and a zero kernel row, so the mean is +-0.0: the reward
    H (+ b) +- 0 >= H clips to exactly H, and the cost 0.0 (- b) +- 0 is +0.0
    or negative, which np.maximum(., 0.0) makes +0.0 (np.clip keeps a -0.0).
    """
    p, base = model.kernel[h], model.base[:, h]
    if model.cfg.bonus_scale:
        vv = np.concatenate((v_next, v_next * v_next), axis=-2)
        moments = (p @ vv[..., None, :, None])[..., 0]  # (..., 4, S, A)
        mean = moments[..., :2, :, :]
        n = np.maximum(model.batch_size[h], 1)  # n = 0: an unbuilt row, see above
        q = base + _BONUS_SIGN * _bonus(mean, moments[..., 2:, :, :], n, model.cfg) + mean
    else:
        q = base + (p @ v_next[..., None, :, None])[..., 0]
    np.minimum(q[..., 0, :, :], float(model.stages.shape[1]), out=q[..., 0, :, :])
    np.maximum(q[..., 1, :, :], 0.0, out=q[..., 1, :, :])
    return q


def lagrangian_greedy_backup(model: EmpiricalModel, lams):
    """Greedy backward induction on q_r - lam * q_c over the empirical model,
    for each lam of the non-empty 1-D sequence lams, all in one sweep.

    Returns the list of L deterministic policies, ties going to the lowest
    action index, and their (L, 2, H+1, S) optimistic reward and pessimistic
    cost values; each policy and slice equals, bit for bit, that multiplier's
    own backup. One multiplier is swept with no lambda axis and one dict.get
    a step, which is cheaper than a batch of one. Each step reads and fills
    model.memo[h], computing only the distinct keys it misses in one
    _q_tables call, and each policy comes from model.pool.
    """
    lam = np.asarray(lams, dtype=float)
    if lam.ndim != 1 or not lam.size or not all(map(math.isfinite, lam.tolist())):
        raise ValueError(f"lams must be a non-empty 1-D sequence of finite numbers, got {lams!r}")
    single = lam.size == 1
    memo, pool = model.memo, model.pool
    value_shape = model.stages.shape[:3]  # (2, H, S)

    def q_step(h, v_next):
        table = memo[h]
        if single:
            key = v_next.tobytes()
            q = table.get(key)
            if q is None:
                q = table[key] = _q_tables(model, h, v_next)
            return q
        keys = [row.tobytes() for row in v_next]
        new = {key: row for key, row in zip(keys, v_next) if key not in table}
        if new:
            table.update(zip(new, _q_tables(model, h, np.array(list(new.values())))))
        return np.array([table[key] for key in keys])

    if single:
        lam0 = lam.item(0)
        actions, v = _backward_induction(q_step, value_shape,
                                         score=lambda q: q[0] - lam0 * q[1])
        actions, v = actions[:, None], v[None]
    else:
        lam_col = lam[:, None, None]
        actions, v = _backward_induction(q_step, (lam.size,) + value_shape,
                                         score=lambda q: q[:, 0] - lam_col * q[:, 1])
    policies = []
    for j in range(lam.size):
        key = actions[:, j].tobytes()
        pi = pool.get(key)
        if pi is None:
            pi = pool[key] = Policy.from_actions(actions[:, j], model.stages.shape[3])
        policies.append(pi)
    return policies, v


def policy_value_bounds(model: EmpiricalModel, policy: Policy):
    """Optimistic-reward and pessimistic-cost values of a fixed policy.

    Same clipped backups as the greedy sweep, but combined with the policy's
    own action distribution; used to check the optimism guarantee. Returns
    the (2, H+1, S) stack of optimistic reward and pessimistic cost values.
    """
    if policy.rule.shape != model.stages.shape[1:]:
        raise ValueError(f"policy shape {policy.rule.shape} != (H, S, A) {model.stages.shape[1:]}")
    return _backward_induction(partial(_q_tables, model), model.stages.shape[:3],
                               rule=policy.rule)[1]


# ---------------------------------------------------------------------------
# Dual ascent on the grid.


def grid_index(lam_raw: float, grid_step: float, cap: float) -> int:
    """Clamp to [0, cap], then round to the nearest grid multiple (midpoints
    down); returns the multiple's index i, so the grid point is i * grid_step."""
    top = int(round(cap / grid_step))
    if lam_raw <= 0.0:
        return 0
    if lam_raw >= cap:
        return top
    x = lam_raw / grid_step
    i = math.floor(x)
    if x - i > 0.5:
        i += 1
    return min(i, top)


class DualWalk(NamedTuple):
    """An episode's dual walk: the multiplier, pessimistic cost value and visit
    count of each distinct grid index in first-visit order (the counts sum to
    T), the position where the cycle starts (len(lam) if none within T), and
    the grid indices themselves (lam[j] = index[j] * grid_step)."""

    lam: tuple
    vc: tuple
    counts: tuple
    cycle_start: int
    index: tuple

    def trace(self, values) -> np.ndarray:
        """Per-iteration values: the prefix, then the cycle tiled and cut to T.
        The cycle is broadcast into one buffer, the only length-T array built."""
        values, t, j = np.asarray(values), sum(self.counts), self.cycle_start
        period = len(values) - j
        if t > j and period < 1:
            raise ValueError(f"the counts sum to T = {t}, past the prefix of {j}, with no cycle")
        reps = -((j - t) // period) if t > j else 0  # ceil((T - j) / period)
        out = np.empty(j + reps * period, values.dtype)
        out[:j], out[j:].reshape(reps, period)[:] = values[:j], values[j:]
        return out[:t]


def primal_dual_episode(model: EmpiricalModel, initial_state: int, b_prime: float,
                        hint=()):
    """Run the T = model.cfg.iters inner primal-dual iterations against the fixed model.

    The walk starts at grid index 0 and stops at the first repeated index or
    after T distinct ones; the remaining iterations go round the cycle and
    are counted, not run. The walk's first miss, index 0, is backed up with
    the grid indices in hint in one batched sweep; every later index outside
    them gets a backup of its own. A hint changes which sweeps run, never
    the walk. Returns (mixture, DualWalk); the mixture has one component per
    visited index, in first-visit order, weighted by visits / T.
    """
    cfg = model.cfg
    priced = {}  # grid index -> (policy, v_c)
    seen: dict = {}  # grid index -> (lambda, policy, v_c), in first-visit order
    i = 0
    while i not in seen and len(seen) < cfg.iters:
        lam = i * cfg.grid_step
        if i not in priced:
            batch = [i] if priced else list(dict.fromkeys((0, *hint)))
            policies, v = lagrangian_greedy_backup(model, [j * cfg.grid_step for j in batch])
            priced.update((j, (pj, float(vj[1, 0, initial_state])))
                          for j, pj, vj in zip(batch, policies, v))
        pi, v_c = priced[i]
        seen[i] = (lam, pi, v_c)
        i = grid_index(lam + cfg.eta * (v_c - b_prime), cfg.grid_step, cfg.dual_cap)
    start = list(seen).index(i) if i in seen else len(seen)
    counts = tuple(1 if j < start else (cfg.iters - 1 - j) // (len(seen) - start) + 1
                   for j in range(len(seen)))
    lams, policies, vcs = zip(*seen.values())
    mixture = MixturePolicy(tuple(
        (n / cfg.iters, pi) for n, pi in zip(counts, policies)))
    return mixture, DualWalk(lams, vcs, counts, start, tuple(seen))


# ---------------------------------------------------------------------------
# The online loop.


@dataclass
class EpisodeLog:
    """One stretch: episodes episode .. episode + count - 1 play one replan's
    behavior mixture and dual walk. model_updates_cum counts the rebuilds through
    the last of them, the only one that can rebuild (the others carry the
    previous log's count); wall_ms is their mean per episode when timing is on."""

    episode: int
    mixture: MixturePolicy
    walk: DualWalk
    model_updates_cum: int
    wall_ms: float
    count: int = 1


@dataclass
class LearnerResult:
    """Everything a run produced: the final averaged mixture, one EpisodeLog
    per replan (their counts sum to K), and the final empirical model."""

    final_policy: MixturePolicy
    episodes: list
    model: EmpiricalModel


# A stretch (the episodes since a replan) draws its episodes in blocks once
# it has played _REPLAYS of them, each block _GROWTH times the stretch so far.
_REPLAYS = 8
_GROWTH = 4


def _fold_replays(model: EmpiricalModel, rows, nexts) -> tuple:
    """Fold a block of episodes, given as the (H, count) (h, s, a) rows and
    successors simulate._one_hot_steps returns, up to its first rebuild: the
    episodes before the one that rebuilds go into total and batch_counts by
    bincount, that one through record_transition, and the rest are dropped.
    Returns (episodes kept, rows the last of them rebuilt)."""
    count = rows.shape[1]
    flat, flat_next = rows.T.ravel(), nexts.T.ravel()  # play order: h within each episode
    total = model.total.ravel()
    need = 2 ** np.frexp(total)[1].astype(np.int64) - total  # visits to the next power of two
    rebuilt = np.bincount(flat, minlength=total.size) >= need
    last = count  # the episode of the first rebuild, if any
    if rebuilt.any():
        pairs = np.flatnonzero(rebuilt)
        at = np.flatnonzero(rebuilt[flat])
        at = at[np.argsort(flat[at], kind="stable")]  # grouped by row, in play order
        last = int(at[np.searchsorted(flat[at], pairs) + need[pairs] - 1].min()) // rows.shape[0]
    bulk = last * rows.shape[0]
    model.total += np.bincount(flat[:bulk], minlength=total.size).reshape(model.total.shape)
    model.batch_counts += np.bincount(
        flat[:bulk] * model.kernel.shape[-1] + flat_next[:bulk],
        minlength=model.batch_counts.size).reshape(model.batch_counts.shape)
    if last == count:
        return count, 0
    h, s, a = (x.tolist() for x in np.unravel_index(rows[:, last], model.total.shape))
    return last + 1, sum(record_transition(model, *step)
                         for step in zip(h, s, a, nexts[:, last].tolist()))


def run_learner(env: TabularCmdp, cfg: LearnerConfig, seed: int,
                measure_time: bool = False) -> LearnerResult:
    """Full online run: K episodes of plan / sample / update.

    The environment is touched only through sampled transitions. Episode k
    is drawn from its 1 + 2H uniforms, row k of the seed's stream table
    (simulate's randomness contract); the rows come _BLOCK episodes at a time,
    and since a row depends only on (seed, k), every drawn row is used.
    seed is an integer (core._integer) of any sign and size.

    A stretch, the episodes that play one replan's mixture, draws its first
    _REPLAYS episodes one at a time (sample_mixture_episode, then H
    record_transition calls). Then, while no row rebuilds, it draws blocks
    of _GROWTH times its length so far, cut at K and at the end of the
    current stream table (simulate._one_hot_steps), and _fold_replays folds
    each block up to its first rebuild and drops the rest. The run keeps the
    one-at-a-time bits: _draw over the same running sums is the bisect draw;
    episodes that only add counts commute; the first power-of-two lifetime
    count in play order is the first rebuild; and that episode goes through
    record_transition, which keeps rebuilds, base and memo[h] on one path.

    Each stretch gets one EpisodeLog, whose count is the episodes it played.
    One empirical model, with its Q-table memo, lives for the whole run, and
    the final policy folds each log's visit counts once, times its count, in
    first-play order. Identical (env, cfg, seed) reproduce bit-identical
    results; wall_ms stays 0.0 unless measure_time is set, because real
    timings cannot be reproducible. Under measure_time a log's wall_ms is its
    stretch's wall time, replan included, divided by its count.
    """
    seed = _integer("seed", seed, None)
    if (cfg.num_states, cfg.num_actions, cfg.horizon) != (
            env.num_states, env.num_actions, env.horizon):
        raise ValueError(
            f"config dims ({cfg.num_states}, {cfg.num_actions}, {cfg.horizon}) "
            f"do not match instance ({env.num_states}, {env.num_actions}, {env.horizon})")
    for name, n, cap in (("episodes", cfg.episodes, MAX_EPISODES),
                         ("iters", cfg.iters, MAX_ITERS)):
        if n > cap:
            raise ValueError(f"{name}={n} exceeds the hard cap {cap}")
    b_prime = cfg.b_prime(env.budget)
    if b_prime <= 0:
        raise ValueError(f"shifted budget b'={b_prime} must be positive")
    model = EmpiricalModel.empty(env.stages, cfg)
    logs = []  # one per replan; the last is the stretch being played
    rebuilds = 1  # the first episode plans, and a later one only after a row rebuild
    kernel_cdf = None  # the block draws' transition table, built on first use
    action_rows: dict = {}  # Policy -> its raveled action table, for block draws
    k = 0
    while k < cfg.episodes:
        if rebuilds:
            t0 = time.perf_counter() if measure_time else 0.0
            mixture, walk = primal_dual_episode(
                model, env.initial_state, b_prime, logs[-1].walk.index if logs else ())
            log = EpisodeLog(k, mixture, walk, logs[-1].model_updates_cum if logs else 0, 0.0, 0)
            logs.append(log)
        if k % _BLOCK == 0:
            table = _uniforms(seed, k, min(_BLOCK, cfg.episodes - k), range(1 + 2 * env.horizon))
            rows = table.T.tolist()
        played, i = log.count, k % _BLOCK
        if played < _REPLAYS:
            _, steps = sample_mixture_episode(env, mixture, rows[i])
            rebuilds = sum(record_transition(model, h, s, a, s_next)
                           for h, (s, a, s_next) in enumerate(steps))
            kept = 1
        else:
            if kernel_cdf is None:
                kernel_cdf = _cdf_table(env.transition.reshape(-1, env.num_states))
            u = table[::2, i:i + min(_GROWTH * played, len(rows) - i)]  # uniforms 0, 2 + 2h
            for _, p in mixture.components:
                if p not in action_rows:
                    action_rows[p] = np.ravel(p.actions)
            actions = np.concatenate([action_rows[p] for _, p in mixture.components])
            kept, rebuilds = _fold_replays(model, *_one_hot_steps(
                env, _draw(np.array(mixture.cumulative)[:, None], u[0]), actions, kernel_cdf,
                u[1:]))
        log.count += kept
        log.model_updates_cum += rebuilds
        if measure_time:
            log.wall_ms = (time.perf_counter() - t0) * 1e3 / log.count
        k += kept
    plays: dict = {}  # Policy -> iterations it was played, in first-play order
    for log in logs:
        for (_, p), n in zip(log.mixture.components, log.walk.counts):
            plays[p] = plays.get(p, 0) + n * log.count
    final = MixturePolicy(tuple(
        (n / (cfg.episodes * cfg.iters), p) for p, n in plays.items()))
    return LearnerResult(final, logs, model)
