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


@dataclass(frozen=True, slots=True)
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
        if self.episode_length <= 0:
            raise InvalidConfigError(
                f"episode_length must be positive, got {self.episode_length}"
            )


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


@functools.lru_cache(maxsize=None)
def _foot_heights(lift_height: float) -> tuple:
    """Foot heights indexed by airborne code: a lifted foot is at
    ``lift_height``, a planted one at 0."""
    return tuple(
        tuple(lift_height if code >> prop.value & 1 else 0.0 for prop in PROP_ORDER)
        for code in range(16)
    )


def reset(config: ToyEnvConfig) -> ToyEnvState:
    """Initial rest state: all feet planted at the origin. The dynamics
    are deterministic, so every reset gives the same state."""
    return ToyEnvState(
        airborne=EMPTY_LABEL_SET,
        foot_heights=_foot_heights(config.lift_height)[EMPTY_LABEL_SET.code],
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
    code = action
    n_airborne = code.bit_count()
    n_planted = 4 - n_airborne
    stumbled = n_planted < 2
    changed = code != state.airborne.code

    # Balanced support = at least two planted feet; a stumble never advances.
    delta_x = config.stride_gain if (changed and not stumbled) else 0.0
    power = config.lift_power_cost * n_airborne
    step_count = state.step_count + 1
    terminated = stumbled and config.stumble_terminates
    truncated = step_count >= config.episode_length

    foot_heights = _foot_heights(config.lift_height)[code]
    next_state = ToyEnvState(
        ALL_LABEL_SETS[code], foot_heights, state.base_x + delta_x, stumbled, step_count
    )
    info = StepInfo(delta_x, power, foot_heights, terminated, truncated)
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
    """Stateful shell over the functional dynamics.

    Single-threaded; run one instance per training run. Distinct
    instances are independent.
    """

    def __init__(self, config: ToyEnvConfig | None = None):
        self.config = config if config is not None else ToyEnvConfig()
        self._state = reset(self.config)

    @property
    def state(self) -> ToyEnvState:
        return self._state

    def reset(self) -> int:
        self._state = reset(self.config)
        return observe(self._state)

    def step(self, action: int) -> tuple[int, StepInfo]:
        self._state, info = step(self._state, action, self.config)
        return observe(self._state), info

    def set_state(self, state: ToyEnvState) -> None:
        self._state = state
