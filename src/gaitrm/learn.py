"""Tabular Q-learning over wrapped environments, plus the evaluation
protocol that scores every approach by the same pose-transition count.

Policies are Q-tables mapping discrete observation keys to 16-entry
action-value rows. Training indexes the wrapper's compiled product
table (``GaitEnvWrapper.table``), whose entries carry each step's key.
Evaluation deploys a policy greedily for a fixed number of episodes and
reports mean return, mean pose transitions (counted by stepping the
machine's transition table on each step's labels, regardless of what
the policy observed during training) and mean distance travelled.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple, Union

from .env import check_field_types, label
from .machine import Gait, RewardMachine, transition_table
from .wrappers import WRAPPER_CLASSES, GaitEnvWrapper, WrapperKind, base_pattern

NUM_ACTIONS = 16
# The most episodes one evaluation runs; a reference policy runs them in seconds.
MAX_EVAL_EPISODES = 10_000

QTable = dict[int, list[float]]


@dataclass(frozen=True, slots=True)
class LearnerConfig:
    alpha: float = 0.1
    gamma: float = 0.99
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_fraction: float = 0.5
    total_steps: int = 200_000
    eval_every: int = 5_000
    eval_episodes: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        for name in ("epsilon_start", "epsilon_end"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if not 0.0 < self.epsilon_fraction <= 1.0:
            raise ValueError(
                f"epsilon_fraction must be in (0, 1], got {self.epsilon_fraction}"
            )
        if self.total_steps < 0:
            raise ValueError(f"total_steps must be >= 0, got {self.total_steps}")
        # ``train`` hands ``itertools.islice`` chunks of at most
        # ``total_steps`` steps, and ``islice`` refuses a count above this.
        if self.total_steps > sys.maxsize:
            raise ValueError(
                f"total_steps must be at most {sys.maxsize}, got {self.total_steps}"
            )
        if self.eval_every <= 0:
            raise ValueError(f"eval_every must be positive, got {self.eval_every}")
        if not 0 < self.eval_episodes <= MAX_EVAL_EPISODES:
            raise ValueError(
                f"eval_episodes must be in [1, {MAX_EVAL_EPISODES}], "
                f"got {self.eval_episodes}"
            )


def epsilon_schedule(config: LearnerConfig) -> Iterator[float]:
    """Epsilon for learner steps 0, 1, 2, ...: linear from
    epsilon_start towards epsilon_end over the first ``epsilon_fraction``
    of total steps, then constant.

    Step ``t`` gets ``start + (end - start) * min(1.0, t / horizon)``.
    Past the horizon that is ``start + (end - start)``, which need not
    equal ``epsilon_end`` bit for bit; with no horizon (zero total
    steps) it is ``epsilon_end``.
    """
    start, end = config.epsilon_start, config.epsilon_end
    horizon = config.epsilon_fraction * config.total_steps
    held = end
    if horizon > 0:
        span = end - start
        # t < ceil(horizon) is exactly t / horizon < 1.
        for t in range(math.ceil(horizon)):
            yield start + span * (t / horizon)
        held = start + span
    yield from itertools.repeat(held)


def greedy_action(q: QTable, key: int) -> int:
    """Highest-valued action with lowest-index tie-breaking. Unseen keys
    act on an all-zero row, i.e. deterministically pick action 0."""
    row = q.get(key)
    if row is None:
        return 0
    # max keeps the first item that no later item beats with ``>``.
    return row.index(max(row))


def q_update(
    q: QTable,
    key: int,
    action: int,
    reward: float,
    next_key: int,
    done: bool,
    config: LearnerConfig,
) -> QTable:
    """One-step Q-learning update, in place."""
    row = q.get(key)
    if row is None:
        row = [0.0] * NUM_ACTIONS
        q[key] = row
    if done:
        target = reward
    else:
        next_row = q.get(next_key)
        target = reward + config.gamma * (max(next_row) if next_row else 0.0)
    row[action] += config.alpha * (target - row[action])
    return q


def discretize(observation: Any, kind: WrapperKind) -> int:
    """Table key of an observation: the wrapper class's own ``key``."""
    return WRAPPER_CLASSES[kind].key(observation)


PolicyFn = Callable[[Any, int], int]
Policy = Union[QTable, PolicyFn]


class ReferenceGaitPolicy:
    """Hand-coded gait controller used as the evaluation yardstick.

    It spends its first action settling at the rest pose (reading the
    contact sensors before committing to a swing), then reacts: from
    pose A it commands pose B, from anything else it commands pose A.
    Over a 100-action episode this walks exactly 99 milestone
    transitions and 99 strides.
    """

    def __init__(self, gait: Gait):
        self.gait = gait

    def __call__(self, observation: Any, step_index: int) -> int:
        if step_index == 0:
            return 0
        pattern = base_pattern(observation)
        if pattern == self.gait.pose_a.code:
            return self.gait.pose_b.code
        return self.gait.pose_a.code


def as_policy_fn(policy: Policy, kind: WrapperKind) -> PolicyFn:
    """A Q-table as its greedy policy; a function is returned as is.

    The greedy action of each key is looked up once and remembered, so
    the table must not change while the returned function is in use.
    The returned function's ``chosen`` attribute is that memo: a dict
    from every key the function has been asked about to the action it
    gave, an unseen key's 0 included. ``rollout`` reads it to decide
    when a later rollout of the same wrapper may reuse this one.
    """
    if not isinstance(policy, dict):
        return policy
    chosen: dict[int, int] = {}

    def act(obs: Any, t: int) -> int:
        key = discretize(obs, kind)
        action = chosen.get(key)
        if action is None:
            action = chosen[key] = greedy_action(policy, key)
        return action

    act.chosen = chosen
    return act


class RolloutStep(NamedTuple):
    """One logged environment step of a greedy rollout."""

    index: int
    action: int
    foot_heights: tuple[float, float, float, float]
    label_bits: tuple[int, int, int, int]
    delta_x: float
    power: float
    reward: float
    rm_state: str
    transition: bool
    terminated: bool
    truncated: bool


@dataclass(frozen=True, slots=True)
class Rollout:
    steps: tuple[RolloutStep, ...]
    total_reward: float
    pose_transitions: int
    distance: float


# Each wrapper's last Q-table rollout: (setup, the ``chosen`` memo of the
# policy it ran, the Rollout, the wrapper snapshot it ended in). An entry
# dies with its wrapper.
_last_rollouts: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def rollout(
    policy: Policy,
    wrapper: GaitEnvWrapper,
    tracker_rm: RewardMachine | None = None,
) -> Rollout:
    """Deploy a policy greedily for one episode, logging every step.

    Pose transitions are counted by stepping ``tracker_rm`` (default:
    the wrapper's machine) from its initial state on each step's labels,
    whatever the policy observed; with no machine they stay 0.

    A Q-table rollout is remembered per wrapper. The next Q-table
    rollout of that wrapper under the same env config, machine, reward
    params and tracker machine, while every key the remembered rollout
    visited still has the greedy action taken there, returns the same
    ``Rollout`` without stepping, and restores the wrapper to the
    snapshot that rollout ended in. This is exact: every rollout starts
    from the same deterministic ``reset`` and acts only through the
    greedy action of the key it observes (an unseen key acts 0), so step
    by step it visits the same keys, takes the same actions and sums the
    same floats. A callable policy may keep state, so it always steps.
    """
    if tracker_rm is None:
        tracker_rm = wrapper.machine
    cached = isinstance(policy, dict)
    if cached:
        setup = (wrapper.config, wrapper.machine, wrapper.params, tracker_rm)
        last = _last_rollouts.get(wrapper)
        if (
            last is not None
            and last[0] == setup
            and all(greedy_action(policy, k) == a for k, a in last[1].items())
        ):
            wrapper.restore(last[3])
            return last[2]
    table = transition_table(tracker_rm) if tracker_rm is not None else None
    u = tracker_rm.initial if tracker_rm is not None else None
    policy_fn = as_policy_fn(policy, wrapper.kind)
    clearance = wrapper.config.clearance

    obs = wrapper.reset()
    steps = []
    total_reward = 0.0
    transitions = 0
    rm_name, transitioned = "", False
    for t in range(wrapper.config.episode_length):
        action = policy_fn(obs, t)
        obs, reward, terminated, truncated, info = wrapper.step(action)
        labels = label(info, clearance)
        total_reward += reward
        if table is not None:
            nxt, _ = table[(u.index, labels.code)]
            transitioned = nxt.index != u.index
            transitions += transitioned
            u = nxt
            rm_name = u.name
        steps.append(
            RolloutStep(
                t + 1,
                action,
                info.foot_heights,
                labels.bits(),
                info.delta_x,
                info.power,
                reward,
                rm_name,
                transitioned,
                terminated,
                truncated,
            )
        )
        if terminated or truncated:
            break
    run = Rollout(
        steps=tuple(steps),
        total_reward=total_reward,
        pose_transitions=transitions,
        distance=wrapper.env.state.base_x,
    )
    if cached:
        _last_rollouts[wrapper] = (setup, policy_fn.chosen, run, wrapper.snapshot())
    return run


@dataclass(frozen=True, slots=True)
class EvalMetrics:
    """Evaluation summary across greedy episodes."""

    mean_return: float
    mean_pose_transitions: float
    mean_distance: float
    episodes: int


def evaluate(
    policy: Policy,
    wrapper: GaitEnvWrapper,
    tracker_rm: RewardMachine | None = None,
    episodes: int = 10,
) -> EvalMetrics:
    """Deploy a policy greedily for ``episodes`` full episodes: one
    ``rollout`` per episode, summed in episode order. A Q-table's
    episodes after the first reuse the first's rollout (see
    ``rollout``), unless the table changes under them."""
    if not 0 < episodes <= MAX_EVAL_EPISODES:
        raise ValueError(f"episodes must be in [1, {MAX_EVAL_EPISODES}], got {episodes}")
    returns = 0.0
    transitions = 0
    distance = 0.0
    for _ in range(episodes):
        run = rollout(policy, wrapper, tracker_rm)
        returns += run.total_reward
        transitions += run.pose_transitions
        distance += run.distance
    return EvalMetrics(
        mean_return=returns / episodes,
        mean_pose_transitions=transitions / episodes,
        mean_distance=distance / episodes,
        episodes=episodes,
    )


def train(
    wrapper: GaitEnvWrapper,
    config: LearnerConfig,
    tracker_rm: RewardMachine | None = None,
) -> tuple[QTable, list[tuple[int, EvalMetrics]]]:
    """Epsilon-greedy tabular Q-learning on the wrapper's observations.

    Steps index the wrapper's product table (``GaitEnvWrapper.table``)
    from the reset cursor, as ``wrapper.step`` does, and read each
    step's Q-table key from the entry; the wrapper itself is only
    cloned. Returns the learned table and a curve of periodic greedy
    evaluations. Fully determined by (config.seed, configs).

    Every evaluation point calls ``evaluate`` on one clone that lives
    for the whole run, so a point whose greedy path is unchanged since
    the clone last stepped reuses that rollout (see ``rollout``); keys
    off that path may change freely.
    """
    rng = random.Random(config.seed)
    random_, getrandbits = rng.random, rng.getrandbits
    # Bound once per call; the benchmark's tracer patches the module
    # names before ``train`` runs, so it still sees every call.
    greedy, update = greedy_action, q_update
    q: QTable = {}
    eval_wrapper = wrapper.clone()
    curve: list[tuple[int, EvalMetrics]] = []

    table = eval_wrapper.table
    initial_key = eval_wrapper.key(eval_wrapper.reset())
    initial_cursor = eval_wrapper.cursor
    # A stack3 entry's key is the newest frame's share; the older two
    # frames are the previous key shifted down one frame.
    stacked = eval_wrapper.kind is WrapperKind.STACK3
    n_actions = NUM_ACTIONS
    # ``rng.randrange(n_actions)`` draws ``getrandbits`` of this many bits
    # until the result is below ``n_actions``; drawing the same way here
    # keeps the random stream and skips its per-call argument checks.
    action_bits = n_actions.bit_length()
    episode_length = wrapper.config.episode_length
    total, every = config.total_steps, config.eval_every
    epsilons = epsilon_schedule(config)
    # Walked lazily: a budget may have more points than a list can hold.
    eval_points = itertools.chain(range(every, total, every), (total,) if total else ())

    cursor, key, episode_step = initial_cursor, initial_key, 0
    done_steps = 0
    for step_number in eval_points:
        for eps in itertools.islice(epsilons, step_number - done_steps):
            if random_() < eps:
                action = getrandbits(action_bits)
                while action >= n_actions:
                    action = getrandbits(action_bits)
            else:
                action = greedy(q, key)
            cursor, _, reward, terminated, next_key = table[cursor << 4 | action]
            if stacked:
                next_key += key >> 4
            # The task is continuing; the 100-action cutoff is a rollout
            # boundary, not a terminal state, so bootstrap across it.
            # Treating truncation as terminal makes cycle values depend on
            # the hidden time-to-cutoff and destabilizes the greedy policy.
            update(q, key, action, reward, next_key, terminated, config)
            episode_step += 1
            if terminated or episode_step >= episode_length:
                cursor, key, episode_step = initial_cursor, initial_key, 0
            else:
                key = next_key
        done_steps = step_number
        metrics = evaluate(
            q, eval_wrapper, tracker_rm=tracker_rm, episodes=config.eval_episodes
        )
        curve.append((step_number, metrics))
    return q, curve
