"""Environment wrappers: the cross-product construction plus the
baseline observation schemes, all reward-equivalent except no-gait.

The cross-product wrapper pairs the base observation with the automaton
state, making the gait reward Markovian. The naive, stacked and
augmented wrappers instead score steps with a history-based oracle that
remembers one bit, whether pose A is latched; their reward streams match
the cross-product stream step for step, they only differ in what the
agent gets to observe.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Any, NamedTuple

from .env import StepInfo, ToyEnvConfig, ToyQuadrupedEnv, label
from .guards import LabelSet, truth_table
from .machine import (
    RewardMachine,
    RewardParams,
    RewardSpec,
    RmState,
    Walk,
    compute_reward,
    transition_table,
)


class WrapperKind(enum.Enum):
    CROSS_PRODUCT = "cross_product"
    NO_GAIT = "no_gait"
    NAIVE = "naive"
    STACK3 = "stack3"
    AUGMENTED = "augmented"

    # Members are singletons compared by identity, so the identity hash
    # agrees with equality; ``Enum.__hash__`` hashes the name in Python.
    __hash__ = object.__hash__


class CrossProductObservation(NamedTuple):
    """Base environment observation paired with the automaton state."""

    base: int
    rm_state: RmState


# Builds a per-step observation without the NamedTuple's generated
# ``__new__``, a Python-level call.
_new_tuple = tuple.__new__


class MilestoneLatch(enum.Enum):
    """Whether pose A is latched: its bonus paid, and no pose-B bonus since."""

    NONE = "none"
    POSE_A = "pose_a"


class GaitShapeError(ValueError):
    """The machine is not a two-state gait machine."""


@dataclass(frozen=True)
class GaitShape:
    """The two-state gait structure extracted from a machine: the
    16-bit satisfying-set masks of the pose guards on the cross
    transitions and the reward specs on all four edges."""

    mask_a: int
    mask_b: int
    bonus_a: RewardSpec
    bonus_b: RewardSpec
    loop_q0: RewardSpec
    loop_q1: RewardSpec


@functools.lru_cache(maxsize=None)
def gait_shape(rm: RewardMachine) -> GaitShape:
    """Extract the gait structure, or raise GaitShapeError if the
    machine does not have exactly two states with one transition each
    way plus one self-loop each."""
    if len(rm.states) != 2:
        raise GaitShapeError(f"expected 2 states, found {len(rm.states)}")
    q0 = rm.initial
    (q1,) = tuple(s for s in rm.states if s != q0)
    forward = [t for t in rm.transitions_from(q0) if t.dst == q1]
    loop0 = [t for t in rm.transitions_from(q0) if t.dst == q0]
    backward = [t for t in rm.transitions_from(q1) if t.dst == q0]
    loop1 = [t for t in rm.transitions_from(q1) if t.dst == q1]
    if len(forward) != 1 or len(backward) != 1 or len(loop0) != 1 or len(loop1) != 1:
        raise GaitShapeError(
            "expected exactly one transition each way and one self-loop per state"
        )
    return GaitShape(
        mask_a=truth_table(forward[0].guard),
        mask_b=truth_table(backward[0].guard),
        bonus_a=forward[0].reward,
        bonus_b=backward[0].reward,
        loop_q0=loop0[0].reward,
        loop_q1=loop1[0].reward,
    )


def _latch_step(
    shape: GaitShape,
    latch: MilestoneLatch,
    code: int,
    info: StepInfo,
    params: RewardParams,
) -> tuple[float, MilestoneLatch]:
    """History-based reward without the automaton, for label code ``code``.

    A pose-A label pays the bonus and latches pose A unless pose A is
    already latched; a pose-B label pays and releases the latch only
    when pose A is latched. Everything else earns the walking reward and
    leaves the latch alone.
    """
    if shape.mask_a >> code & 1 and latch is not MilestoneLatch.POSE_A:
        return compute_reward(shape.bonus_a, info, params), MilestoneLatch.POSE_A
    if shape.mask_b >> code & 1 and latch is MilestoneLatch.POSE_A:
        return compute_reward(shape.bonus_b, info, params), MilestoneLatch.NONE
    loop = shape.loop_q1 if latch is MilestoneLatch.POSE_A else shape.loop_q0
    return compute_reward(loop, info, params), latch


def base_pattern(observation: Any) -> int:
    """The current 4-bit contact pattern under any wrapper's observation."""
    if isinstance(observation, int):
        return observation
    if isinstance(observation, CrossProductObservation):
        return observation.base
    if isinstance(observation, tuple):
        if len(observation) == 3:
            return observation[-1]
        if len(observation) == 5:
            return observation[0]
    raise TypeError(f"unrecognized observation: {observation!r}")


class GaitEnvWrapper:
    """Shared wrapper shell: owns the environment instance, the machine,
    the reward params and the wrapper-specific reward/observation state.
    One instance per run.

    Each wrapper kind also owns its observation encoding: ``key`` maps an
    observation injectively into ``range(key_space)``, the Q-table keys."""

    kind: WrapperKind
    key_space = 16

    def __init__(
        self,
        env: ToyQuadrupedEnv | None = None,
        rm: RewardMachine | None = None,
        params: RewardParams | None = None,
    ):
        if rm is None:
            raise ValueError(f"{type(self).__name__} requires a reward machine")
        self.env = env if env is not None else ToyQuadrupedEnv()
        self.machine: RewardMachine | None = rm
        self.params = params if params is not None else RewardParams()
        self._clearance = self.env.config.clearance

    @property
    def config(self) -> ToyEnvConfig:
        return self.env.config

    @staticmethod
    def key(observation: Any) -> int:
        return observation

    def reset(self) -> Any:
        raise NotImplementedError

    def step(self, action: int) -> tuple[Any, float, bool, bool, StepInfo]:
        raise NotImplementedError

    def snapshot(self) -> tuple:
        raise NotImplementedError

    def restore(self, snap: tuple) -> None:
        raise NotImplementedError

    def clone(self) -> "GaitEnvWrapper":
        """A fresh wrapper of the same kind, config, machine and params."""
        return type(self)(ToyQuadrupedEnv(self.config), self.machine, self.params)


class CrossProductWrapper(GaitEnvWrapper):
    """Observations live in (environment observation) x (machine state);
    rewards come from the machine's transitions."""

    kind = WrapperKind.CROSS_PRODUCT

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        rm = self.machine
        self.key_space = 16 * len(rm.states)
        self._table = transition_table(rm)
        self._accepting = tuple(u in rm.accepting for u in rm.states)
        self._u = rm.initial

    @staticmethod
    def key(observation: CrossProductObservation) -> int:
        return observation.base + 16 * observation.rm_state.index

    @property
    def rm_state(self) -> RmState:
        return self._u

    def reset(self) -> CrossProductObservation:
        base = self.env.reset()
        self._u = self.machine.initial
        return CrossProductObservation(base, self._u)

    def step(
        self, action: int
    ) -> tuple[CrossProductObservation, float, bool, bool, StepInfo]:
        base, info = self.env.step(action)
        labels = label(info, self._clearance)
        dst, spec = self._table[(self._u.index, labels.code)]
        reward = compute_reward(spec, info, self.params)
        self._u = dst
        terminated = info.terminated or self._accepting[dst.index]
        return (
            _new_tuple(CrossProductObservation, (base, dst)),
            reward,
            terminated,
            info.truncated,
            info,
        )

    def snapshot(self) -> tuple:
        return (self.env.state, self._u)

    def restore(self, snap: tuple) -> None:
        state, u = snap
        self.env.set_state(state)
        self._u = u


class NoGaitWrapper(GaitEnvWrapper):
    """Plain walking reward on the base observation; no machine."""

    kind = WrapperKind.NO_GAIT

    def __init__(
        self,
        env: ToyQuadrupedEnv | None = None,
        rm: RewardMachine | None = None,
        params: RewardParams | None = None,
    ):
        # The walk reward reads no machine, so none is required or kept.
        self.env = env if env is not None else ToyQuadrupedEnv()
        self.machine = None
        self.params = params if params is not None else RewardParams()
        self._walk = Walk()

    def reset(self) -> int:
        return self.env.reset()

    def step(self, action: int) -> tuple[int, float, bool, bool, StepInfo]:
        base, info = self.env.step(action)
        reward = compute_reward(self._walk, info, self.params)
        return base, reward, info.terminated, info.truncated, info

    def snapshot(self) -> tuple:
        return (self.env.state,)

    def restore(self, snap: tuple) -> None:
        self.env.set_state(snap[0])


class _LatchRewardWrapper(GaitEnvWrapper):
    """Shared core for the baselines that score with the milestone-latch
    oracle instead of the automaton. The observation process of these
    wrappers is non-Markovian: the reward depends on the latch, which the
    agent never sees."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._shape = gait_shape(self.machine)
        self._latch = MilestoneLatch.NONE

    @property
    def latch(self) -> MilestoneLatch:
        return self._latch

    def _reset_observation(self, base: int) -> Any:
        return base

    def _step_observation(self, base: int, labels: LabelSet) -> Any:
        return base

    def reset(self) -> Any:
        base = self.env.reset()
        self._latch = MilestoneLatch.NONE
        return self._reset_observation(base)

    def step(self, action: int) -> tuple[Any, float, bool, bool, StepInfo]:
        base, info = self.env.step(action)
        labels = label(info, self._clearance)
        reward, self._latch = _latch_step(
            self._shape, self._latch, labels.code, info, self.params
        )
        return (
            self._step_observation(base, labels),
            reward,
            info.terminated,
            info.truncated,
            info,
        )

    def snapshot(self) -> tuple:
        return (self.env.state, self._latch)

    def restore(self, snap: tuple) -> None:
        state, latch = snap
        self.env.set_state(state)
        self._latch = latch


class NaiveWrapper(_LatchRewardWrapper):
    """Base observation only; the gait reward stays non-Markovian."""

    kind = WrapperKind.NAIVE


class Stack3Wrapper(_LatchRewardWrapper):
    """Observation is the three most recent base observations in
    chronological order, padded by repeating the reset observation."""

    kind = WrapperKind.STACK3
    key_space = 16**3

    @staticmethod
    def key(observation: tuple[int, int, int]) -> int:
        a, b, c = observation
        return a + 16 * b + 256 * c

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._stack = (0, 0, 0)

    def _reset_observation(self, base: int) -> tuple[int, int, int]:
        self._stack = (base, base, base)
        return self._stack

    def _step_observation(self, base: int, labels: LabelSet) -> tuple[int, int, int]:
        self._stack = (self._stack[1], self._stack[2], base)
        return self._stack

    def snapshot(self) -> tuple:
        return (self.env.state, self._latch, self._stack)

    def restore(self, snap: tuple) -> None:
        state, latch, stack = snap
        self.env.set_state(state)
        self._latch = latch
        self._stack = stack


class AugmentedWrapper(_LatchRewardWrapper):
    """Base observation with the labeling function's four bits appended.

    In the toy environment these bits duplicate the base pattern; the
    scheme is kept for protocol fidelity with richer environments.
    """

    kind = WrapperKind.AUGMENTED
    key_space = 16 * 16

    @staticmethod
    def key(observation: tuple[int, int, int, int, int]) -> int:
        base, fl, fr, bl, br = observation
        return base + 16 * (fl | fr << 1 | bl << 2 | br << 3)

    def _reset_observation(self, base: int) -> tuple[int, int, int, int, int]:
        labels = label(self.env.state, self._clearance)
        return self._step_observation(base, labels)

    def _step_observation(
        self, base: int, labels: LabelSet
    ) -> tuple[int, int, int, int, int]:
        return (base, *labels.bits())


WRAPPER_CLASSES: dict[WrapperKind, type[GaitEnvWrapper]] = {
    cls.kind: cls
    for cls in (
        CrossProductWrapper,
        NoGaitWrapper,
        NaiveWrapper,
        Stack3Wrapper,
        AugmentedWrapper,
    )
}


def make_wrapper(
    kind: WrapperKind | str,
    env: ToyQuadrupedEnv | None = None,
    rm: RewardMachine | None = None,
    params: RewardParams | None = None,
) -> GaitEnvWrapper:
    return WRAPPER_CLASSES[WrapperKind(kind)](env, rm, params)
