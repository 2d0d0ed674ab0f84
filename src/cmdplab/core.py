"""Finite-horizon tabular CMDP primitives.

A constrained MDP here is the tuple (S, A, H, P, r, c, b, s1): a non-stationary
transition kernel P[h][s][a][s'], per-step reward and cost tables in [0, 1],
a cost budget b, and a fixed initial state. Values are computed by exact
backward recursion; a mixture's value is the weighted average of its component
values (harness.evaluate_mixture; the mixing draw happens once per episode, so
the identity is exact). One backward-induction kernel serves evaluate_policy,
greedy_backup and both of the learner's clipped sweeps; each returns its plain
(k, H+1, S) value array, and a policy's (V_r, V_c) is v[:, 0, s1] of one sweep
over the stack TabularCmdp.stages. greedy_backup maximizes a score of its
stack's step Q-tables, the first table by default (the solver's dual point
scores Q_r - lambda Q_c, as the learner does), and reads every table along
the chosen actions. Leading axes stack P policies (evaluate_policy,
PRICE_CHUNK per sweep where a caller prices many) or the learner's L greedy
problems into one sweep, and each slice keeps the bits of its own sweep (see
_expected_stage and _backward_induction).

All indices (states, actions, steps) are 0-based internally. Step h runs
0..H-1 and value tables carry an extra all-zero terminal row at index H.
Instance and policy arrays are copied and frozen at construction, and every
function here is pure. An instance owns the exact prices of the policies the
harness evaluated on it (TabularCmdp.prices); a price depends on the instance
and the policy alone, so concurrent fills write the same bits, and both can
still be shared across threads or processes.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate

import numpy as np

# Validation tolerance for anything that should be a probability distribution.
PROB_TOL = 1e-9


def running_sums(probs) -> np.ndarray:
    """Inverse-CDF table of probs: running sums along the last axis, added left
    to right, +inf from each row's last positive entry on (throughout a row with
    none). The first sum above u is categorical's draw (see simulate's docstring)."""
    probs = np.asarray(probs, dtype=float)
    sums = np.cumsum(probs, axis=-1)
    later = np.logical_or.accumulate(probs[..., :0:-1] > 0, axis=-1)[..., ::-1]
    sums[..., :-1][~later] = np.inf  # no positive entry after this one
    sums[..., -1] = np.inf
    return sums


def _frozen(a, dtype=float) -> np.ndarray:
    """Copy `a` into a read-only ndarray."""
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _integer(name: str, x, low: int | None = 1) -> int:
    """x as an int: an int or numpy integer, not a bool, >= low (any size
    when low is None); else ValueError."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or (
            low is not None and x < low):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be an integer{bound}, got {x!r}")
    return int(x)


def _real(name: str, x) -> float:
    """x as a float: an int, float or numpy real, not a bool; else ValueError."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:  # an int past the float range
        raise ValueError(f"{name}={x} is past the float range") from None


@dataclass(frozen=True)
class Violation:
    """One invariant breach found by a validator.

    kind: short machine-readable tag, e.g. "row_sum" or "reward_range".
    location: offending index tuple ((h, s, a) for table entries), or None
        for scalar fields like the budget.
    magnitude: size of the breach (distance past the allowed bound).
    """

    kind: str
    location: tuple | None
    magnitude: float
    message: str

    def __str__(self) -> str:
        return self.message


@dataclass(frozen=True)
class TabularCmdp:
    """Immutable tabular CMDP (but for the prices memo the harness fills).

    transition has shape (H, S, A, S), reward and cost have shape (H, S, A).
    Construction freezes the arrays but does not validate; run validate_cmdp
    (the file loader does, and rejects on any violation).
    """

    num_states: int
    num_actions: int
    horizon: int
    transition: np.ndarray
    reward: np.ndarray
    cost: np.ndarray
    budget: float
    initial_state: int

    # Read-only (2, H, S, A) stack of the reward and cost tables, in that
    # order: the stage argument that prices (V_r, V_c) in one sweep. Built
    # once at construction; None when the two shapes differ (validate_cmdp
    # flags that).
    stages: np.ndarray | None = field(init=False, repr=False, compare=False)
    # Policy -> its exact [V_r, V_c] at s1 on this instance, filled by the
    # harness; every instance, a replace() copy included, starts empty.
    prices: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "transition", _frozen(self.transition))
        object.__setattr__(self, "reward", _frozen(self.reward))
        object.__setattr__(self, "cost", _frozen(self.cost))
        object.__setattr__(self, "stages", _frozen((self.reward, self.cost))
                           if self.reward.shape == self.cost.shape else None)

    @cached_property
    def transition_cdf(self) -> list:
        """running_sums of the transition rows as (H, S, A, S) lists, built on first use."""
        return running_sums(self.transition).tolist()


@dataclass(frozen=True, eq=False)
class Policy:
    """Non-stationary randomized Markov policy: rule[h][s] is a distribution over actions.

    Equality and hashing are by value: the rule's shape and bytes. The key
    (shape, bytes) and its hash are computed once at construction, because
    the learner and the metrics look policies up in dicts every episode. That
    is safe because the rule is a read-only view of the key's own immutable
    bytes, so it cannot change after the key is taken."""

    rule: np.ndarray  # (H, S, A)

    def __post_init__(self):
        if np.ndim(self.rule) != 3:
            raise ValueError(f"policy rule must be (H, S, A), got shape {np.shape(self.rule)}")
        rule = np.asarray(self.rule, dtype=float)
        key = (rule.shape, rule.tobytes())
        object.__setattr__(self, "rule", np.frombuffer(key[1]).reshape(rule.shape))
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other):
        return isinstance(other, Policy) and self._key == other._key

    def __hash__(self):
        return self._hash

    @classmethod
    def from_actions(cls, actions, num_actions: int) -> "Policy":
        """One-hot policy from an (H, S) integer action table; ValueError names
        every action outside [0, num_actions)."""
        actions = np.asarray(actions)
        if actions.dtype.kind not in "iu":
            raise ValueError(f"actions must be integers, got dtype {actions.dtype}")
        if actions.min() < 0 or actions.max() >= num_actions:  # numpy would wrap -1 round
            raise ValueError("; ".join(
                f"action {actions[h, s]} at (h={h}, s={s}) outside [0, {num_actions})"
                for h, s in np.argwhere((actions < 0) | (actions >= num_actions))))
        h, s = actions.shape
        rule = np.zeros((h, s, num_actions))
        rule[np.arange(h)[:, None], np.arange(s)[None, :], actions] = 1.0
        policy = cls(rule)
        object.__setattr__(policy, "_one_hot", True)
        return policy

    _one_hot = False  # known one-hot: built by from_actions

    @cached_property
    def actions(self) -> list | None:
        """The (H, S) action table as lists if the rule is exactly one-hot
        (byte-equal to from_actions of its argmax), else None; built on first use."""
        best = self.rule.argmax(axis=2)
        if self._one_hot or Policy.from_actions(best, self.rule.shape[2]) == self:
            return best.tolist()
        return None

    @cached_property
    def flat_actions(self) -> np.ndarray | None:
        """The one-hot rule's flat indices (h·S + s)·A + a, one per (h, s) in
        order (read-only), if actions is not None, else None; built on first use."""
        if self.actions is None:
            return None
        flat = np.flatnonzero(self.rule)
        flat.flags.writeable = False
        return flat

    @classmethod
    def uniform(cls, horizon: int, num_states: int, num_actions: int) -> "Policy":
        return cls(np.full((horizon, num_states, num_actions), 1.0 / num_actions))

    def validate(self) -> list[str]:
        """Problems with the rule; non-finite entries end the check (NaN defeats comparisons)."""
        problems = [f"rule entry (h={h}, s={s}, a={a}) = {self.rule[h, s, a]} is not finite"
                    for h, s, a in np.argwhere(~np.isfinite(self.rule))]
        if problems:
            return problems
        if np.any(self.rule < 0):
            problems.append("negative action probability")
        bad = np.abs(self.rule.sum(axis=2) - 1.0) > PROB_TOL
        for h, s in zip(*np.nonzero(bad)):
            problems.append(f"rule row (h={h}, s={s}) sums to {float(self.rule[h, s].sum())!r}")
        return problems


@dataclass(frozen=True)
class MixturePolicy:
    """Finite mixture over policies; the component is drawn once per episode.

    components is a sequence of (weight, Policy) pairs. Weights must be
    nonnegative and sum to 1 within PROB_TOL; at least one component.
    cumulative holds the weights' running_sums, built in plain Python:
    bisect_right over it draws the component.
    """

    components: tuple
    cumulative: array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        comps = tuple((float(w), p) for w, p in self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        if not all(w >= 0 for w, _ in comps):  # written so that NaN fails
            raise ValueError("mixture weights must be nonnegative")
        total = sum(w for w, _ in comps)
        if not abs(total - 1.0) <= PROB_TOL:
            raise ValueError(f"mixture weights sum to {total!r}, expected 1")
        object.__setattr__(self, "components", comps)
        last = max((i for i, (w, _) in enumerate(comps) if w > 0), default=0)
        sums = [*accumulate(w for w, _ in comps[:last]), *[np.inf] * (len(comps) - last)]
        object.__setattr__(self, "cumulative", array("d", sums))

    @classmethod
    def single(cls, policy: Policy) -> "MixturePolicy":
        return cls(((1.0, policy),))

    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.components])


def validate_cmdp(m: TabularCmdp) -> list[Violation]:
    """Check every structural invariant; returns all breaches with location and magnitude.

    Checked: array shapes against the declared (S, A, H) and finite table
    entries (a breach of either ends the check: NaN defeats every later
    comparison), then transition rows are distributions within PROB_TOL,
    reward/cost entries inside [0, 1], budget inside (0, H], initial state
    inside range. An empty list means valid.
    """
    out = []
    s_, a_, h_ = m.num_states, m.num_actions, m.horizon

    def bad(kind, loc, mag, msg):
        out.append(Violation(kind, loc, float(mag), msg))

    if min(s_, a_, h_) < 1:
        bad("dimensions", None, 0.0, f"S, A, H must be >= 1, got ({s_}, {a_}, {h_})")
        return out
    shapes = {
        "transition": (m.transition.shape, (h_, s_, a_, s_)),
        "reward": (m.reward.shape, (h_, s_, a_)),
        "cost": (m.cost.shape, (h_, s_, a_)),
    }
    for name, (got, want) in shapes.items():
        if got != want:
            bad("shape", None, 0.0, f"{name} shape {got} does not match declared {want}")
    for name, table in (("P", m.transition), ("r", m.reward), ("c", m.cost)):
        for loc in map(tuple, np.argwhere(~np.isfinite(table)).tolist()):
            bad("non_finite", loc, np.inf, f"{name} entry {loc} = {table[loc]} is not finite")
    if out:
        return out

    neg = np.minimum(m.transition, 0.0)
    for h, s, a, sn in zip(*np.nonzero(neg < 0)):
        bad("transition_negative", (int(h), int(s), int(a), int(sn)), -neg[h, s, a, sn],
            f"P[{h}][{s}][{a}][{sn}] = {m.transition[h, s, a, sn]!r} is negative")
    sums = m.transition.sum(axis=3)
    off = np.abs(sums - 1.0)
    for h, s, a in zip(*np.nonzero(off > PROB_TOL)):
        bad("row_sum", (int(h), int(s), int(a)), off[h, s, a],
            f"P[{h}][{s}][{a}] sums to {sums[h, s, a]!r}, off by {off[h, s, a]:.3g}")
    for name, table in (("reward", m.reward), ("cost", m.cost)):
        breach = np.maximum(table - 1.0, -np.minimum(table, 0.0))
        for h, s, a in zip(*np.nonzero(breach > 0)):
            bad(f"{name}_range", (int(h), int(s), int(a)), breach[h, s, a],
                f"{name}[{h}][{s}][{a}] = {table[h, s, a]!r} outside [0, 1]")
    if not (0.0 < m.budget <= h_):
        bad("budget", None, abs(m.budget), f"budget {m.budget!r} outside (0, {h_}]")
    if not (0 <= m.initial_state < s_):
        bad("initial_state", None, 0.0, f"initial state {m.initial_state} outside [0, {s_})")
    return out


def normalize_transition_rows(kernel: np.ndarray) -> np.ndarray:
    """Divide every transition row by its sum (applied exactly once at load time)."""
    kernel = np.array(kernel, dtype=float)
    return kernel / kernel.sum(axis=3, keepdims=True)


def _backward_induction(q_step, shape, rule=None, score=None):
    """Backward induction over stacked value tables; shape is (..., k, H, S).

    q_step(h, v_next) maps the (..., k, S) values of step h + 1 to the
    (..., k, S, A) Q-tables of step h. Each table is averaged over a `rule`
    of shape (H, ..., S, A) when one is given, so an axis of rules after the
    step axis prices that many policies in one sweep; the step axis leads so
    that rule[h] is a plain index, which keeps a one-policy sweep as cheap as
    an (H, S, A) rule alone. Otherwise each table is read at the per-state
    argmax of score(q), which maps the (..., k, S, A) tables to (..., S, A)
    scores (ties go to the lowest action): axes before k back up that many
    greedy problems in one sweep, each with the bits of its own, and one
    flat gather reads q.ravel() at starts, where each (..., k, s) row
    begins. Returns the (H, *lead[:-1], S) actions (None with a rule) and
    the (..., k, H + 1, S) values, whose row H is zero.
    """
    *lead, horizon, num_states = shape
    v = np.zeros((*lead, horizon + 1, num_states))
    actions = (None if rule is not None else
               np.zeros((horizon, *lead[:-1], num_states), dtype=int))
    for h in range(horizon - 1, -1, -1):
        q = q_step(h, v[..., h + 1, :])
        if rule is not None:
            v[..., h, :] = np.einsum("...sa,...ksa->...ks", rule[h], q)
            continue
        if h == horizon - 1:  # every step's q has the first one's shape
            starts = np.arange(0, q.size, q.shape[-1]).reshape(q.shape[:-1])
        actions[h] = best = score(q).argmax(axis=-1)
        v[..., h, :] = q.ravel()[starts + best[..., None, :]]
    return actions, v


def _expected_stage(kernel, stages):
    """q_step for stacked stage tables (k, H, S, A) on a known kernel, for
    values with any leading axes (..., k, S). The broadcast matvec runs one
    gemv per (..., k, s) row, so every row rounds like one-table
    `kernel[h] @ v` (a gemm over the stack would not), and a stack of tables
    or of policies gives the bits of as many separate sweeps."""
    return lambda h, v: stages[:, h] + (kernel[h] @ v[..., None, :, None])[..., 0]


# Policies per stacked evaluate_policy sweep where a caller prices many: the
# harness's price fill and the brute-force oracle. It bounds a sweep's
# (H, P, S, A) rules and (P, k, H + 1, S) values; it is a constant because
# the values do not depend on it.
PRICE_CHUNK = 128


def evaluate_policy(kernel: np.ndarray, stages: np.ndarray, policy) -> np.ndarray:
    """Exact values of a policy, or of a stack of policies, for k stacked
    stage tables g: V_h(s) = E[ sum_{t>=h} g_t ].

    kernel is (H, S, A, S) and stages is (k, H, S, A) (pass TabularCmdp.stages
    for (V_r, V_c)). A Policy gives the (k, H+1, S) values, so v[:, 0, s1] is
    its value pair at the initial state; a non-empty sequence of P policies
    gives (P, k, H+1, S) from one sweep, each slice bit-identical to that
    policy's own sweep. A rule array stands in for Policy objects: (H, S, A)
    for one policy, (P, H, S, A) for a stack of P, so a caller that prices
    many one-hot rules need not build a Policy for each. Shapes must agree
    exactly.
    """
    single = isinstance(policy, Policy) or isinstance(policy, np.ndarray) and policy.ndim == 3
    rules = [getattr(p, "rule", p) for p in ([policy] if single else policy)]
    if not rules:
        raise ValueError("evaluate_policy needs at least one policy, got an empty sequence")
    shapes = {np.shape(r) for r in rules}
    if (kernel.ndim != 4 or stages.ndim != 4 or stages.shape[1:] != kernel.shape[:3]
            or shapes != {kernel.shape[:3]}):
        got = (f"policy {np.shape(rules[0])}" if single else
               f"policy stack ({len(rules)}, ...) of rule shapes {sorted(shapes)}")
        raise ValueError(f"shape mismatch: kernel {kernel.shape}, stages {stages.shape}, {got}")
    rule = rules[0] if single else np.stack(rules, axis=1)  # (H, P, S, A)
    _, v = _backward_induction(_expected_stage(kernel, stages),
                               rule.shape[1:-2] + stages.shape[:3], rule=rule)
    return v


def greedy_backup(kernel: np.ndarray, stages: np.ndarray, score=lambda q: q[0]):
    """evaluate_policy's greedy twin: the (H, S) actions that maximize
    score(q) of a (k, H, S, A) stack's step Q-tables q (the first table by
    default; ties go to the lowest action) and the (k, H+1, S) values of
    every table along them, from one sweep."""
    return _backward_induction(_expected_stage(kernel, stages), stages.shape[:3], score=score)


def slater_constant(m: TabularCmdp):
    """Budget slack zeta = b - min_pi V_c(s1), with the minimizing policy.

    zeta > 0 means the constraint has interior slack; zeta < 0 means the
    instance is infeasible (even the cheapest policy exceeds the budget).
    """
    actions, v = greedy_backup(m.transition, -m.cost[None])
    zeta = m.budget + float(v[0, 0, m.initial_state])
    return zeta, Policy.from_actions(actions, m.num_actions)


# ---------------------------------------------------------------------------
# Instance files. JSON with 0-based indices:
#   {"S":, "A":, "H":, "P": [h][s][a][s'], "r": [h][s][a], "c": [h][s][a],
#    "b":, "s1":}


def _instance_payload(m: TabularCmdp) -> dict:
    return {"S": m.num_states, "A": m.num_actions, "H": m.horizon, "P": m.transition.tolist(),
            "r": m.reward.tolist(), "c": m.cost.tolist(), "b": m.budget, "s1": m.initial_state}


def _indented_json(x, indent="\n") -> str:
    """json.dumps(x, indent=2, sort_keys=True) for a dict of numbers and of
    regular lists of finite floats, byte for byte and without the pure-Python
    encoder: an innermost list joins the reprs of its floats, which json uses."""
    inner = indent + "  "
    if isinstance(x, dict):
        return "{" + ",".join(f"{inner}{json.dumps(k)}: {_indented_json(v, inner)}"
                              for k, v in sorted(x.items())) + indent + "}"
    if not isinstance(x, list) or not x:
        return json.dumps(x)
    rows = map(_indented_json, x, [inner] * len(x)) if isinstance(x[0], list) else map(repr, x)
    return "[" + inner + ("," + inner).join(rows) + indent + "]"


def save_instance(m: TabularCmdp, path) -> str:
    """Write m as indented JSON. Returns instance_hash(m): the text less its
    whitespace is the compact JSON instance_hash encodes."""
    text = _indented_json(_instance_payload(m))
    with open(path, "w") as f:
        f.write(text + "\n")
    return hashlib.sha256("".join(text.split()).encode()).hexdigest()


def _int_field(raw: dict, key: str) -> int:
    """raw[key] as an int; booleans and non-integral numbers raise ValueError."""
    x = raw[key]
    if type(x) is int or type(x) is float and x.is_integer():
        return int(x)
    raise ValueError(f"field {key!r} must be an integer, got {x!r}")


def _float_field(raw: dict, key: str) -> float:
    """raw[key] as a float; only JSON numbers pass (no booleans, no strings)."""
    x = raw[key]
    if type(x) in (int, float):
        return float(x)
    raise ValueError(f"field {key!r} must be a number, got {x!r}")


def _number_table(raw: dict, key: str) -> np.ndarray:
    """raw[key] as a float array; booleans, strings and ragged lists raise."""
    table = np.asarray(raw[key], dtype=object)  # a ragged list keeps list entries
    if not set(map(type, table.ravel())) <= {int, float}:  # .flat stops at 32 axes
        raise ValueError(f"field {key!r} must hold numbers in a regular array")
    return table.astype(float)


def load_instance(path) -> TabularCmdp:
    """Read, validate, and renormalize an instance file.

    S, A, H and s1 must be integers (an integral float like 2.0 is accepted).
    Any validation violation rejects the file. Transition rows are
    renormalized exactly once here so downstream arithmetic sees rows that
    sum to 1 at machine precision.
    """
    try:
        with open(path) as f:
            raw = json.load(f)
        m = TabularCmdp(
            num_states=_int_field(raw, "S"),
            num_actions=_int_field(raw, "A"),
            horizon=_int_field(raw, "H"),
            transition=_number_table(raw, "P"),
            reward=_number_table(raw, "r"),
            cost=_number_table(raw, "c"),
            budget=_float_field(raw, "b"),
            initial_state=_int_field(raw, "s1"),
        )
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as e:
        raise ValueError(f"malformed instance file {path}: {e}") from e
    problems = validate_cmdp(m)
    if problems:
        head = "; ".join(str(p) for p in problems[:5])
        more = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        raise ValueError(f"invalid instance {path}: {head}{more}")
    return replace(m, transition=normalize_transition_rows(m.transition))


# ---------------------------------------------------------------------------
# Policy files: {"S":, "A":, "H":, "components": [...]}. A component whose rule
# is exactly one-hot is written {"weight":, "actions": [h][s]} (the action
# index per step and state); any other is {"weight":, "rule": [h][s][a]}.


def _component_json(w: float, p: Policy) -> dict:
    if p.actions is not None:
        return {"weight": w, "actions": p.actions}
    return {"weight": w, "rule": p.rule.tolist()}


def _mixture_json(mix: MixturePolicy, m: TabularCmdp) -> dict:
    return {"S": m.num_states, "A": m.num_actions, "H": m.horizon,
            "components": [_component_json(w, p) for w, p in mix.components]}


def save_policy(mix: MixturePolicy, m: TabularCmdp, path) -> None:
    # json.dumps without indent runs the C encoder; json.dump never does
    with open(path, "w") as f:
        f.write(json.dumps(_mixture_json(mix, m), sort_keys=True, separators=(",", ":")))
        f.write("\n")


def _int_table(raw: dict, key: str) -> np.ndarray:
    """raw[key] as an int array, each entry typed like _int_field; booleans,
    strings, non-integral numbers and ragged lists raise."""
    table = np.asarray(raw[key], dtype=object)
    types = set(map(type, table.ravel()))  # as in _number_table
    if not types <= {int, float} or float in types and not all(
            x.is_integer() for x in table.ravel() if type(x) is float):
        raise ValueError(f"field {key!r} must hold integers in a regular array")
    return table.astype(int)


def _component(c: dict):
    """A component's weight and its Policy ("rule") or int table ("actions")."""
    if ("rule" in c) == ("actions" in c):
        raise ValueError("a component needs exactly one of 'rule' and 'actions'")
    body = Policy(_number_table(c, "rule")) if "rule" in c else _int_table(c, "actions")
    return _float_field(c, "weight"), body


def _component_policy(body, m: TabularCmdp) -> Policy:
    """The Policy of a parsed component body; ValueError lists what does not
    fit instance m."""
    if isinstance(body, Policy):
        if body.rule.shape != (m.horizon, m.num_states, m.num_actions):
            problems = [f"rule shape {body.rule.shape}"]
        else:
            problems = body.validate()
    elif body.shape != (m.horizon, m.num_states):
        problems = [f"actions shape {body.shape}"]
    else:
        return Policy.from_actions(body, m.num_actions)  # names out-of-range actions
    if problems:
        raise ValueError("; ".join(problems))
    return body


def load_policy(path, m: TabularCmdp) -> MixturePolicy:
    """Read a policy file for instance m. ValueError if the file is malformed
    (a missing key, a component with both or neither of rule/actions, a weight
    or rule entry that is not a JSON number, an action that is not an
    integer), if its dims or table shapes differ from m's, if an action is
    out of range, or if a rule or the weights are invalid."""
    try:
        with open(path) as f:
            doc = json.load(f)
        dims = tuple(_int_field(doc, k) for k in ("S", "A", "H"))
        comps = [_component(c) for c in doc["components"]]
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as e:
        raise ValueError(f"malformed policy file {path}: {e}") from e
    want = (m.num_states, m.num_actions, m.horizon)
    if dims != want:
        raise ValueError(f"policy dims {dims} do not match instance {want}")
    mix = []
    for j, (w, body) in enumerate(comps):
        try:
            mix.append((w, _component_policy(body, m)))
        except ValueError as e:
            raise ValueError(f"invalid policy {path}, component {j}: {e}") from e
    return MixturePolicy(tuple(mix))


def instance_hash(m: TabularCmdp) -> str:
    """sha256 over the canonical JSON serialization of the instance."""
    blob = json.dumps(_instance_payload(m), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
