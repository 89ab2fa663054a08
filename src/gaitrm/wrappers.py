"""Environment wrappers: the cross-product construction plus the
baseline observation schemes, all reward-equivalent except no-gait.

The cross-product wrapper pairs the base observation with the automaton
state, making the gait reward Markovian. The naive, stacked and
augmented wrappers instead score steps with a history-based oracle that
remembers one bit, whether pose A is latched; their reward streams match
the cross-product stream step for step, they only differ in what the
agent gets to observe.

Each wrapper is a cursor over a product table compiled from the sources
at its first reset or step (see ``_product_table``). Each kind's
observation is a function of the cursor, written once in ``_observe``,
which the table and ``reset`` both call. A step makes one call of the
functional ``env.step`` on the environment's ``state``, for the
``StepInfo``, truncation, position, step count and episode errors, and
reads the rest from one table entry. ``env.step`` is looked up on the
module at every call, never bound here by name, so whatever
``gaitrm.env.step`` is at call time runs: the benchmark's tracer
(``perfbench/tracing.py``) replaces that module attribute and counts
one call per wrapper step. ``learn.train`` indexes the same table
directly, from the reset cursor.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Any, NamedTuple

from . import env as _env
# Nothing here calls ``label``; perfbench's tracer patches ``wrappers.label``.
from .env import StepInfo, ToyEnvConfig, ToyQuadrupedEnv, _outcomes, label
from .guards import ALL_LABEL_SETS, LabelSet, truth_table
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
    way plus one self-loop each, or has an accepting state.

    The latch oracle has no terminate rule: a machine whose accepting
    set is non-empty ends cross-product episodes that the latch
    wrappers would continue, with equal rewards, so the two would no
    longer be equivalent."""
    if len(rm.states) != 2:
        raise GaitShapeError(f"expected 2 states, found {len(rm.states)}")
    if rm.accepting:
        names = sorted(s.name for s in rm.accepting)
        raise GaitShapeError(f"expected no accepting states, found {names}")
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


# Latch values in level order: a latch wrapper's level indexes this.
_LATCHES = tuple(MilestoneLatch)


@functools.lru_cache(maxsize=64, typed=True)
def _product_table(
    cls: type[GaitEnvWrapper],
    rm: RewardMachine | None,
    w_e: float,
    stride_gain: float,
    lift_power_cost: float,
    stumble_terminates: bool,
) -> tuple[tuple[int, Any, float, bool, int], ...]:
    """Every step from every cursor, reachable or not: entry ``cursor
    << 4 | action`` holds the next cursor, its observation
    (``cls._observe``), the reward and ``terminated`` (``cls._compile_step``
    on the untruncated ``env._outcomes`` entry; no reward reads
    truncation) and the observation's Q-table key. A stack3 entry holds
    the newest frame and that frame's share of the key, ``256 * code``.

    A step's labels are its outcome's next airborne set. A valid config
    has ``0 < clearance <= lift_height``, and a commanded foot reaches
    ``lift_height`` in one step, so ``label(info, clearance)`` is that
    set for every outcome (``tests/test_env.py`` proves it).

    The memo is keyed on exactly what the entries read, so neither on
    ``clearance`` nor on ``lift_height``, and typed, so an int-valued
    argument never shares its equal float twin's table (its rewards may
    be ints). Entries of equal ``repr`` are one object; equal value is
    not enough, as ``1 == 1.0``."""
    wrapper = cls(None, rm, RewardParams(w_e=w_e))
    # ``lift_height`` sets only foot heights, and no entry reads a foot height.
    outcomes = _outcomes(
        ToyEnvConfig.lift_height, stride_gain, lift_power_cost, stumble_terminates
    )
    stacked = cls.kind is WrapperKind.STACK3
    entries, shared = [], {}
    for level in range(wrapper._levels):
        for settled in range(16):
            for action in range(16):
                info, airborne, _ = outcomes[settled << 5 | action << 1]
                next_level, reward, terminated = wrapper._compile_step(level, airborne, info)
                cursor = next_level << 4 | airborne.code
                obs = wrapper._observe(cursor)
                key = cls.key((0, 0, obs) if stacked else obs)
                entry = (cursor, obs, reward, terminated, key)
                entries.append(shared.setdefault(repr(entry), entry))
    return tuple(entries)


class GaitEnvWrapper:
    """Shared wrapper shell: owns the environment instance, the machine,
    the reward params and the cursor into the product table, which is
    the level (machine state, latch, or 0) times 16 plus the settled
    contact pattern. One instance per run. Each kind fills the hooks
    ``_initial_level``, ``_compile_step`` (a step's next level, reward
    and ``terminated``) and ``_observe`` (the observation at a cursor,
    for the table and ``reset``); ``key`` maps an observation
    injectively into ``range(key_space)``, the Q-table keys."""

    kind: WrapperKind
    key_space = 16
    _levels = 1
    _uses_machine = True

    def __init__(
        self,
        env: ToyQuadrupedEnv | None = None,
        rm: RewardMachine | None = None,
        params: RewardParams | None = None,
    ):
        if not self._uses_machine:
            rm = None
        elif rm is None:
            raise ValueError(f"{type(self).__name__} requires a reward machine")
        self.env = env if env is not None else ToyQuadrupedEnv()
        self.machine: RewardMachine | None = rm
        self.params = params if params is not None else RewardParams()
        self.cursor = self._initial_level() << 4 | self.env.state.airborne.code

    @property
    def config(self) -> ToyEnvConfig:
        return self.env.config

    @staticmethod
    def key(observation: Any) -> int:
        return observation

    @functools.cached_property
    def table(self) -> tuple[tuple[int, Any, float, bool, int], ...]:
        """The product table, compiled at the first reset or step."""
        c = self.env.config
        return _product_table(
            type(self), self.machine, self.params.w_e,
            c.stride_gain, c.lift_power_cost, c.stumble_terminates,
        )

    def _initial_level(self) -> int:
        return 0

    def _compile_step(
        self, level: int, labels: LabelSet, info: StepInfo
    ) -> tuple[int, float, bool]:
        """Next level, reward and ``terminated`` of a step."""
        raise NotImplementedError

    def _observe(self, cursor: int) -> Any:
        """The observation at a cursor: its settled contact code."""
        return cursor & 15

    def reset(self) -> Any:
        self.table  # compiled here or at the first step, never at construction
        self.cursor = self._initial_level() << 4 | self.env.reset()
        return self._observe(self.cursor)

    def step(self, action: int) -> tuple[Any, float, bool, bool, StepInfo]:
        env = self.env
        env.state, info = _env.step(env.state, action, env.config)
        self.cursor, obs, reward, terminated, _ = self.table[self.cursor << 4 | action]
        return obs, reward, terminated, info.truncated, info

    def snapshot(self) -> tuple:
        return (self.env.state,)

    def restore(self, snap: tuple) -> None:
        (state,) = snap
        self.env.state = state
        self.cursor = state.airborne.code

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
        self._levels = len(rm.states)

    @staticmethod
    def key(observation: CrossProductObservation) -> int:
        return observation.base + 16 * observation.rm_state.index

    @property
    def rm_state(self) -> RmState:
        return self.machine.states[self.cursor >> 4]

    def _initial_level(self) -> int:
        return self.machine.initial.index

    def _observe(self, cursor: int) -> CrossProductObservation:
        return CrossProductObservation(cursor & 15, self.machine.states[cursor >> 4])

    def _compile_step(self, level: int, labels: LabelSet, info: StepInfo):
        dst, spec = transition_table(self.machine)[(level, labels.code)]
        terminated = info.terminated or dst in self.machine.accepting
        return dst.index, compute_reward(spec, info, self.params), terminated

    def snapshot(self) -> tuple:
        return (self.env.state, self.rm_state)

    def restore(self, snap: tuple) -> None:
        state, u = snap
        self.env.state = state
        self.cursor = u.index << 4 | state.airborne.code


class NoGaitWrapper(GaitEnvWrapper):
    """Plain walking reward on the base observation; no machine."""

    kind = WrapperKind.NO_GAIT

    # The walk reward reads no machine, so none is required or kept.
    _uses_machine = False

    def _compile_step(self, level: int, labels: LabelSet, info: StepInfo):
        return 0, compute_reward(Walk(), info, self.params), info.terminated


class _LatchRewardWrapper(GaitEnvWrapper):
    """Shared core for the baselines that score with the milestone-latch
    oracle instead of the automaton. The observation process of these
    wrappers is non-Markovian: the reward depends on the latch, which the
    agent never sees."""

    _levels = len(_LATCHES)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._shape = gait_shape(self.machine)

    @property
    def latch(self) -> MilestoneLatch:
        return _LATCHES[self.cursor >> 4]

    def _compile_step(self, level: int, labels: LabelSet, info: StepInfo):
        reward, latch = _latch_step(
            self._shape, _LATCHES[level], labels.code, info, self.params
        )
        return _LATCHES.index(latch), reward, info.terminated

    def snapshot(self) -> tuple:
        return (self.env.state, self.latch)

    def restore(self, snap: tuple) -> None:
        state, latch = snap
        self.env.state = state
        self.cursor = _LATCHES.index(latch) << 4 | state.airborne.code


class NaiveWrapper(_LatchRewardWrapper):
    """Base observation only; the gait reward stays non-Markovian."""

    kind = WrapperKind.NAIVE


class Stack3Wrapper(_LatchRewardWrapper):
    """Observation is the three most recent base observations in
    chronological order, padded by repeating the reset observation.
    The table holds the newest frame; the history is kept per step."""

    kind = WrapperKind.STACK3
    key_space = 16**3

    @staticmethod
    def key(observation: tuple[int, int, int]) -> int:
        a, b, c = observation
        return a + 16 * b + 256 * c

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._stack = (0, 0, 0)

    def reset(self) -> tuple[int, int, int]:
        base = super().reset()
        self._stack = (base, base, base)
        return self._stack

    def step(self, action: int) -> tuple[Any, float, bool, bool, StepInfo]:
        base, reward, terminated, truncated, info = super().step(action)
        self._stack = (self._stack[1], self._stack[2], base)
        return self._stack, reward, terminated, truncated, info

    def snapshot(self) -> tuple:
        return (self.env.state, self.latch, self._stack)

    def restore(self, snap: tuple) -> None:
        state, latch, stack = snap
        super().restore((state, latch))
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

    def _observe(self, cursor: int) -> tuple[int, int, int, int, int]:
        code = cursor & 15
        return (code, *ALL_LABEL_SETS[code].bits())


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
