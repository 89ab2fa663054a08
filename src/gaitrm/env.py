"""Desk-scale toy quadruped environment.

The environment keeps exactly what the gait rewards read: forward
progress, a power scalar, and per-foot heights. Actions are target
contact patterns (one bit per foot, bit set = lift that foot); a
commanded foot settles in a single step, so the state holds the
commanded pattern itself; that pattern is the whole observation and
tabular learners apply directly.

Dynamics per step:
  - a lifted foot reaches ``lift_height``, a dropped foot returns to 0;
  - the base advances by ``stride_gain`` iff at least two feet stay
    planted and the airborne set changed this step;
  - power is ``lift_power_cost`` per airborne foot;
  - fewer than two planted feet is a stumble: no progress and, when
    ``stumble_terminates``, the episode ends;
  - the episode truncates after ``episode_length`` actions.

Apart from the base position and the step count, a step's outcome
depends only on the settled pattern, the action and whether the step
truncates. These time-free outcomes are built once per physical config
(lift height, stride gain, power cost, stumble rule) and bound to each
config object at its first step (``ToyEnvConfig.outcomes``), so ``step``
reads them with one attribute lookup and one index.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .guards import ALL_LABEL_SETS, EMPTY_LABEL_SET, LabelSet, PROP_ORDER


class InvalidConfigError(ValueError):
    """Environment configuration violates a construction invariant."""


class EpisodeFinishedError(RuntimeError):
    """step() was called on a terminated or truncated episode."""


# The longest episode a config allows; a reference policy runs it in seconds.
MAX_EPISODE_LENGTH = 100_000

_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool}


def check_field_types(config) -> None:
    """Raise TypeError unless every field of the config dataclass holds
    its declared type: an int for ``int``, an int or float for
    ``float``, a bool for ``bool``. A bool is never taken as a number.
    Raise ValueError for a ``float`` field that is NaN or infinite."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if not isinstance(value, _FIELD_TYPES[field.type]) or (
            isinstance(value, bool) and field.type != "bool"
        ):
            raise TypeError(f"{field.name} must be {field.type}, got {value!r}")
        if field.type == "float" and not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ToyEnvConfig:
    clearance: float = 0.05
    lift_height: float = 0.10
    stride_gain: float = 0.05
    lift_power_cost: float = 5.0
    episode_length: int = 100
    stumble_terminates: bool = True
    rng_seed: int = 0

    def __post_init__(self) -> None:
        check_field_types(self)
        for name in ("clearance", "lift_height", "stride_gain", "lift_power_cost"):
            # -0.0 == 0.0 with equal hashes: config-keyed memos would mix them.
            value = getattr(self, name)
            if value == 0.0 and math.copysign(1.0, value) < 0.0:
                raise InvalidConfigError(f"{name} must not be -0.0")
        if self.clearance <= 0.0:
            raise InvalidConfigError(f"clearance must be > 0, got {self.clearance}")
        if self.lift_height < self.clearance:
            raise InvalidConfigError(
                f"lift_height {self.lift_height} is below clearance "
                f"{self.clearance}; no foot could ever register as airborne"
            )
        if self.stride_gain < 0.0:
            raise InvalidConfigError(f"stride_gain must be >= 0, got {self.stride_gain}")
        if self.lift_power_cost < 0.0:
            raise InvalidConfigError(
                f"lift_power_cost must be >= 0, got {self.lift_power_cost}"
            )
        if not 0 < self.episode_length <= MAX_EPISODE_LENGTH:
            raise InvalidConfigError(
                f"episode_length must be in [1, {MAX_EPISODE_LENGTH}], "
                f"got {self.episode_length}"
            )

    @functools.cached_property
    def outcomes(self) -> tuple[tuple[StepInfo, LabelSet, bool], ...]:
        """This config's entry of the ``_outcomes`` memo, looked up at
        the first read and kept on the instance. It is not a field:
        equality, hashing, ``repr``, ``asdict``, ``replace``, copies and
        pickles see only the fields."""
        return _outcomes(
            self.lift_height,
            self.stride_gain,
            self.lift_power_cost,
            self.stumble_terminates,
        )

    def __getstate__(self) -> dict:
        # Copies and pickles carry the fields; the copy looks its
        # outcomes up again in its own process's memo.
        return {k: v for k, v in vars(self).items() if k != "outcomes"}


class StepInfo(NamedTuple):
    """Per-step physical outcome read by the reward functions.

    ``power`` is the precomputed mechanical power scalar; adapters with
    access to raw joint data may instead supply ``torques`` and
    ``joint_velocities``, which take precedence in the walk reward.
    """

    delta_x: float
    power: float
    foot_heights: tuple[float, float, float, float]
    terminated: bool
    truncated: bool
    torques: tuple[float, ...] | None = None
    joint_velocities: tuple[float, ...] | None = None


class ToyEnvState(NamedTuple):
    """The settled contact pattern (the last command, none at rest) and
    its foot heights, the base position, the stumble flag and the step
    count."""

    airborne: LabelSet
    foot_heights: tuple[float, float, float, float]
    base_x: float
    fallen: bool
    step_count: int


@functools.lru_cache(maxsize=None, typed=True)
def _outcomes(
    lift_height: float,
    stride_gain: float,
    lift_power_cost: float,
    stumble_terminates: bool,
) -> tuple[tuple[StepInfo, LabelSet, bool], ...]:
    """The time-free outcome of every step under one physical config:
    ``(info, next airborne set, stumbled)`` at index
    ``settled << 5 | action << 1 | truncated``. The memo is typed, so an
    int-valued config never shares outcomes with its float twin."""
    # A lifted foot is at ``lift_height``, a planted one at 0.
    heights = [
        tuple(lift_height if code >> prop.value & 1 else 0.0 for prop in PROP_ORDER)
        for code in range(16)
    ]
    outcomes = []
    for settled in range(16):
        for code in range(16):
            n_airborne = code.bit_count()
            n_planted = 4 - n_airborne
            stumbled = n_planted < 2
            changed = code != settled

            # Balanced support = at least two planted feet; a stumble never advances.
            delta_x = stride_gain if (changed and not stumbled) else 0.0
            power = lift_power_cost * n_airborne
            terminated = stumbled and stumble_terminates
            foot_heights = heights[code]
            for truncated in (False, True):
                info = StepInfo(delta_x, power, foot_heights, terminated, truncated)
                outcomes.append((info, ALL_LABEL_SETS[code], stumbled))
    return tuple(outcomes)


# Builds the per-step state without the NamedTuple's generated
# ``__new__``, a Python-level call.
_new_tuple = tuple.__new__


def reset(config: ToyEnvConfig) -> ToyEnvState:
    """Initial rest state: all feet planted at the origin. The dynamics
    are deterministic, so every reset gives the same state."""
    return ToyEnvState(
        airborne=EMPTY_LABEL_SET,
        foot_heights=(0.0, 0.0, 0.0, 0.0),
        base_x=0.0,
        fallen=False,
        step_count=0,
    )


def step(
    state: ToyEnvState, action: int, config: ToyEnvConfig
) -> tuple[ToyEnvState, StepInfo]:
    """Apply one target contact pattern, a 4-bit action code; returns
    the settled state and the step's physical outcome."""
    if (
        state.fallen and config.stumble_terminates
    ) or state.step_count >= config.episode_length:
        raise EpisodeFinishedError(
            "episode already finished; reset before stepping again"
        )
    if not 0 <= action < 16:
        raise ValueError(f"action code must be in [0, 16), got {action}")
    step_count = state.step_count + 1
    truncated = step_count >= config.episode_length
    info, airborne, stumbled = config.outcomes[
        state.airborne.code << 5 | action << 1 | truncated
    ]
    base_x = state.base_x + info.delta_x
    next_state = _new_tuple(
        ToyEnvState, (airborne, info.foot_heights, base_x, stumbled, step_count)
    )
    return next_state, info


def label(
    source: StepInfo | ToyEnvState | tuple[float, float, float, float],
    clearance: float,
) -> LabelSet:
    """Labeling function: a foot's proposition is true iff its height is
    at least ``clearance`` above the ground."""
    if isinstance(source, (StepInfo, ToyEnvState)):
        source = source.foot_heights
    fl, fr, bl, br = source
    return ALL_LABEL_SETS[
        (fl >= clearance)
        | (fr >= clearance) << 1
        | (bl >= clearance) << 2
        | (br >= clearance) << 3
    ]


def observe(state: ToyEnvState) -> int:
    """Canonical discrete observation: the contact pattern as a 4-bit
    code (bit set = foot in the air), FL=bit0, FR=bit1, BL=bit2, BR=bit3."""
    return state.airborne.code


class ToyQuadrupedEnv:
    """Stateful shell over the functional dynamics: ``state`` is a plain
    attribute holding the current ``ToyEnvState``, which ``step`` and
    ``reset`` replace and a caller may assign (as ``set_state`` does).

    Single-threaded; run one instance per training run. Distinct
    instances are independent.
    """

    def __init__(self, config: ToyEnvConfig | None = None):
        self.config = config if config is not None else ToyEnvConfig()
        self.state = reset(self.config)

    def reset(self) -> int:
        self.state = reset(self.config)
        return observe(self.state)

    def step(self, action: int) -> tuple[int, StepInfo]:
        self.state, info = step(self.state, action, self.config)
        return observe(self.state), info

    def set_state(self, state: ToyEnvState) -> None:
        self.state = state
