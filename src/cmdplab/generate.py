"""Random instance generation with a pinned budget slack, plus fixed presets.

generate() draws Dirichlet transition rows and uniform reward/cost tables,
then makes action 0 free at every (h, s). The cheapest policy therefore has
cost value exactly 0.0, so setting the budget b = zeta_target makes the
generated instance's slater_constant equal zeta_target bit-for-bit, with no
rounding to correct and no redraw. A zeta_target above H is rejected
with GenerationError.

Presets are small hand-analyzed instances; their exact optima are derived in
the docstrings and frozen in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TabularCmdp, normalize_transition_rows, validate_cmdp


class GenerationError(ValueError):
    """The requested budget slack cannot be realized for these dimensions."""


@dataclass(frozen=True)
class GenSpec:
    """Generator knobs: dimensions, target budget slack, Dirichlet concentration, seed.

    The dimensions are integers >= 1 and seed is a non-negative integer
    (an int or numpy integer, not a bool), each stored as an int. zeta_target
    must be positive (generated instances are always strictly feasible) and
    at most H, the largest value the budget may take; dirichlet_alpha must be
    positive and finite.
    """

    num_states: int
    num_actions: int
    horizon: int
    zeta_target: float
    dirichlet_alpha: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("num_states", "num_actions", "horizon"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
            object.__setattr__(self, name, int(n))
        if not self.zeta_target > 0:
            raise ValueError(f"zeta_target must be positive, got {self.zeta_target}")
        if not 0 < self.dirichlet_alpha < math.inf:
            raise ValueError(
                f"dirichlet_alpha must be positive and finite, got {self.dirichlet_alpha}")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))


def generate(spec: GenSpec) -> TabularCmdp:
    """Draw a validated instance whose budget slack equals spec.zeta_target.

    Action 0 is a zero-cost baseline at every (h, s), so the minimum cost
    value is exactly 0.0 and the realized slack b - min_pi V_c equals the
    budget bit-for-bit. Rewards stay uniform for all actions, baseline
    included, so the reward/cost tradeoff is preserved.
    """
    if not spec.zeta_target <= spec.horizon:
        raise GenerationError(
            f"no budget in (0, {spec.horizon}] realizes "
            f"zeta_target={spec.zeta_target}")
    rng = np.random.default_rng(spec.seed)
    s_, a_, h_ = spec.num_states, spec.num_actions, spec.horizon
    rows = rng.dirichlet(np.full(s_, spec.dirichlet_alpha), size=(h_, s_, a_))
    if not (rows.sum(axis=3) > 0).all():  # numpy's rows are all 0 when their gammas overflow
        raise GenerationError(
            f"dirichlet_alpha={spec.dirichlet_alpha} is too large: the Dirichlet draws overflow")
    kernel = normalize_transition_rows(rows)
    reward = rng.uniform(size=(h_, s_, a_))
    cost = rng.uniform(size=(h_, s_, a_))
    cost[:, :, 0] = 0.0
    m = TabularCmdp(s_, a_, h_, kernel, reward, cost,
                    budget=float(spec.zeta_target), initial_state=0)
    problems = validate_cmdp(m)
    if problems:  # pragma: no cover - draws are valid by construction
        raise GenerationError(f"generated instance invalid: {problems[0]}")
    return m


def _single_state_tradeoff() -> TabularCmdp:
    """One state, one step, two actions: a pure reward/cost tradeoff.

    Action 0 pays reward 1 at cost 1; action 1 pays nothing. With b = 0.5 the
    optimum mixes the two actions equally: V* = 0.5 at cost exactly b, and
    zeta = 0.5. The shadow price is 1 (one unit of reward per unit of budget).
    """
    return TabularCmdp(
        num_states=1, num_actions=2, horizon=1,
        transition=np.ones((1, 1, 2, 1)),
        reward=np.array([[[1.0, 0.0]]]),
        cost=np.array([[[1.0, 0.0]]]),
        budget=0.5, initial_state=0)


def _two_state_chain() -> TabularCmdp:
    """Two states, two steps, deterministic moves: next state equals the action.

    Step 0 is free positioning: action 1 moves to the boosted state 1 and
    pays 0.2 instead of 0.1. Step 1 offers a costly engage action (cost 1)
    paying 0.3 from state 0 but 0.6 from state 1; declining pays 0.1. From
    s1 = 0 the four deterministic policies hit (reward, cost) values
    (0.2, 0), (0.4, 1), (0.3, 0), (0.8, 1); the frontier joins (0.3, 0) and
    (0.8, 1), so with b = 0.6 the optimum mixes position-then-decline with
    position-then-engage at weights 0.4/0.6: V* = 0.3 + 0.5 b = 0.6, the
    constraint is tight at 0.6, zeta = 0.6, shadow price 0.5.
    """
    moves = np.zeros((2, 2, 2, 2))
    moves[:, :, 0, 0] = 1.0  # action 0 -> state 0
    moves[:, :, 1, 1] = 1.0  # action 1 -> state 1
    reward = np.array([
        [[0.1, 0.2], [0.1, 0.2]],  # h = 0: positioning
        [[0.1, 0.3], [0.1, 0.6]],  # h = 1: engage pays more from state 1
    ])
    cost = np.array([
        [[0.0, 0.0], [0.0, 0.0]],
        [[0.0, 1.0], [0.0, 1.0]],  # only engaging at the last step costs
    ])
    return TabularCmdp(2, 2, 2, moves, reward, cost, budget=0.6, initial_state=0)


def _risky_shortcut() -> TabularCmdp:
    """Three states (road, shortcut, ditch), three steps, stochastic bold moves.

    Steady driving (action 0) is free and keeps to the road; bold driving
    (action 1) pays more but risks the ditch, which pays nothing and is
    costly to leave. Budget 0.6 against an all-steady cost of 0, so
    zeta = 0.6. Small enough (2**9 policies) for the enumeration oracle.
    """
    road, short, ditch = 0, 1, 2
    p = np.zeros((3, 2, 3))  # (state, action, next)
    p[road, 0, road] = 1.0
    p[road, 1, short], p[road, 1, ditch] = 0.8, 0.2
    p[short, 0, road] = 1.0
    p[short, 1, short], p[short, 1, ditch] = 0.9, 0.1
    p[ditch, 0, road], p[ditch, 0, ditch] = 0.5, 0.5
    p[ditch, 1, ditch] = 1.0
    r = np.array([[0.3, 0.8], [0.5, 1.0], [0.0, 0.0]])
    c = np.array([[0.0, 0.3], [0.0, 0.4], [0.5, 1.0]])
    kernel = np.broadcast_to(p, (3, 3, 2, 3)).copy()
    reward = np.broadcast_to(r, (3, 3, 2)).copy()
    cost = np.broadcast_to(c, (3, 3, 2)).copy()
    return TabularCmdp(3, 2, 3, kernel, reward, cost, budget=0.6, initial_state=road)


_PRESETS = {
    "single_state_tradeoff": _single_state_tradeoff,
    "two_state_chain": _two_state_chain,
    "risky_shortcut": _risky_shortcut,
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def preset(name: str) -> TabularCmdp:
    """Fixed documented instance by name; unknown names list what exists."""
    try:
        build = _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}") from None
    return build()
