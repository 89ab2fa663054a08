"""Reward machines: guarded two-way automata whose transitions emit
reward functions, plus the three built-in gait machines.

A machine is a tuple of named states, an initial state, an (optionally
empty) accepting set, and guarded transitions. Each transition carries a
reward spec: either the plain walking reward (forward progress minus an
energy penalty) or a pose-switch bonus ``b * tanh(dx)``.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import IO, Union

from .env import StepInfo, check_field_types
from .guards import (
    ALL_LABEL_SETS,
    Guard,
    LabelSet,
    Not,
    Prop,
    conjunction_for,
    eval_guard,
    parse_guard,
    render_guard,
)

RM_FILE_VERSION = 1


@dataclass(frozen=True, slots=True)
class RmState:
    """Automaton state: index into the owning machine's state tuple plus
    a display name such as "q0"."""

    index: int
    name: str


@dataclass(frozen=True, slots=True)
class Walk:
    """Forward progress minus energy penalty; parameters come from the
    shared RewardParams at evaluation time."""


@dataclass(frozen=True, slots=True)
class SwitchPoseBonus:
    """Bonus ``b * tanh(dx)`` emitted when a milestone pose is reached."""

    b: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.b):
            raise ValueError(f"bonus scale must be finite, got {self.b}")


RewardSpec = Union[Walk, SwitchPoseBonus]


@dataclass(frozen=True, slots=True)
class Transition:
    src: RmState
    guard: Guard
    dst: RmState
    reward: RewardSpec


@dataclass(frozen=True, slots=True)
class RewardParams:
    """Shared reward constants: energy weight, discount, default bonus."""

    w_e: float = 0.001
    gamma: float = 0.99
    bonus_b: float = 10000.0

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if not 0.0 <= self.w_e < math.inf:
            raise ValueError(f"energy weight must be finite and >= 0, got {self.w_e}")
        if not math.isfinite(self.bonus_b):
            raise ValueError(f"bonus_b must be finite, got {self.bonus_b}")
        check_field_types(self)


@dataclass(frozen=True)
class RewardMachine:
    states: tuple[RmState, ...]
    initial: RmState
    accepting: frozenset[RmState]
    transitions: tuple[Transition, ...]

    def __post_init__(self) -> None:
        names = [s.name for s in self.states]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate state names: {names}")
        for i, s in enumerate(self.states):
            if s.index != i:
                raise ValueError(f"state {s.name!r} has index {s.index}, expected {i}")
        known = set(self.states)
        if self.initial not in known:
            raise ValueError(f"initial state {self.initial} not in state list")
        for s in self.accepting:
            if s not in known:
                raise ValueError(f"accepting state {s} not in state list")
        for t in self.transitions:
            if t.src not in known or t.dst not in known:
                raise ValueError(f"transition endpoints not in state list: {t}")
        # Hashed once: the cached tables keyed by machine would otherwise
        # walk every state, transition and guard tree on each lookup.
        object.__setattr__(
            self,
            "_hash",
            hash((self.states, self.initial, self.accepting, self.transitions)),
        )

    def __hash__(self) -> int:
        return self._hash

    def transitions_from(self, state: RmState) -> tuple[Transition, ...]:
        return tuple(t for t in self.transitions if t.src == state)


class Gait(enum.Enum):
    """The three built-in gaits, each defined by its two milestone poses
    (which feet are lifted together)."""

    TROT = "trot"
    PACE = "pace"
    BOUND = "bound"

    @property
    def pose_a(self) -> LabelSet:
        return _GAIT_POSES[self][0]

    @property
    def pose_b(self) -> LabelSet:
        return _GAIT_POSES[self][1]


_GAIT_POSES = {
    Gait.TROT: (LabelSet.of(Prop.FL, Prop.BR), LabelSet.of(Prop.FR, Prop.BL)),
    Gait.PACE: (LabelSet.of(Prop.FL, Prop.BL), LabelSet.of(Prop.FR, Prop.BR)),
    Gait.BOUND: (LabelSet.of(Prop.FL, Prop.FR), LabelSet.of(Prop.BL, Prop.BR)),
}


def build_gait_rm(gait: Gait, params: RewardParams | None = None) -> RewardMachine:
    """Two-state machine for a gait: q0 -> q1 on pose A with a bonus,
    self-loop on its negation with the walk reward; q1 -> q0 on pose B
    symmetrically. The accepting set is empty (infinite-horizon task).
    """
    if params is None:
        params = RewardParams()
    q0 = RmState(0, "q0")
    q1 = RmState(1, "q1")
    guard_a = conjunction_for(gait.pose_a)
    guard_b = conjunction_for(gait.pose_b)
    bonus = SwitchPoseBonus(params.bonus_b)
    transitions = (
        Transition(q0, guard_a, q1, bonus),
        Transition(q0, Not(guard_a), q0, Walk()),
        Transition(q1, guard_b, q0, bonus),
        Transition(q1, Not(guard_b), q1, Walk()),
    )
    return RewardMachine(
        states=(q0, q1), initial=q0, accepting=frozenset(), transitions=transitions
    )


@dataclass(frozen=True)
class ValidationReport:
    """Exhaustive determinism/totality/reachability check results.

    ``coverage_gaps`` lists (state, label) pairs matched by no
    transition, ``ambiguities`` pairs matched by two or more, and
    ``unreachable`` states with no label-driven path from the initial
    state. The machine is valid iff all three are empty.
    """

    coverage_gaps: tuple[tuple[RmState, LabelSet], ...]
    ambiguities: tuple[tuple[RmState, LabelSet], ...]
    unreachable: tuple[RmState, ...]

    @property
    def valid(self) -> bool:
        return not (self.coverage_gaps or self.ambiguities or self.unreachable)

    def describe(self) -> str:
        lines = [
            f"deterministic: {'yes' if not self.ambiguities else 'no'}",
            f"total: {'yes' if not self.coverage_gaps else 'no'}",
            f"reachable: {'yes' if not self.unreachable else 'no'}",
        ]
        for state, labels in self.coverage_gaps:
            lines.append(f"coverage gap: state {state.name}, labels {labels}")
        for state, labels in self.ambiguities:
            lines.append(f"ambiguity: state {state.name}, labels {labels}")
        for state in self.unreachable:
            lines.append(f"unreachable state: {state.name}")
        lines.append(f"valid: {'yes' if self.valid else 'no'}")
        return "\n".join(lines)


def validate(rm: RewardMachine) -> ValidationReport:
    """Check determinism and totality over every (state, label) pair and
    reachability from the initial state. Exhaustive: |U| x 16 pairs."""
    gaps = []
    ambiguities = []
    successors: dict[RmState, set[RmState]] = {s: set() for s in rm.states}
    for state in rm.states:
        outgoing = rm.transitions_from(state)
        for labels in ALL_LABEL_SETS:
            matches = [t for t in outgoing if eval_guard(t.guard, labels)]
            if not matches:
                gaps.append((state, labels))
            elif len(matches) > 1:
                ambiguities.append((state, labels))
            for t in matches:
                successors[state].add(t.dst)
    reached = {rm.initial}
    frontier = [rm.initial]
    while frontier:
        state = frontier.pop()
        for nxt in successors[state]:
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    unreachable = tuple(s for s in rm.states if s not in reached)
    return ValidationReport(tuple(gaps), tuple(ambiguities), unreachable)


class RmStepError(RuntimeError):
    """The machine is not deterministic/total at the queried pair."""


def rm_step(
    rm: RewardMachine, state: RmState, labels: LabelSet
) -> tuple[RmState, RewardSpec]:
    """Take the unique transition enabled at (state, labels)."""
    matches = [
        t for t in rm.transitions_from(state) if eval_guard(t.guard, labels)
    ]
    if len(matches) == 1:
        t = matches[0]
        return t.dst, t.reward
    if not matches:
        raise RmStepError(f"no transition from {state.name} on {labels}")
    raise RmStepError(
        f"{len(matches)} transitions from {state.name} on {labels}"
    )


@functools.lru_cache(maxsize=None)
def transition_table(
    rm: RewardMachine,
) -> dict[tuple[int, int], tuple[RmState, RewardSpec]]:
    """Dense (state index, label code) -> (next state, reward spec) map.

    Precomputing this makes stepping O(1); requires a valid machine.
    Built at first use and cached: machines equal by value share one
    table, so the returned dict is shared and must not be mutated.
    """
    table = {}
    for state in rm.states:
        for labels in ALL_LABEL_SETS:
            table[(state.index, labels.code)] = rm_step(rm, state, labels)
    return table


def compute_reward(
    spec: RewardSpec, info: "StepInfo", params: RewardParams
) -> float:
    """Evaluate a transition's reward spec on one step's outcome.

    Walk: dx - w_e * |tau . v|, with the inner product taken over raw
    joint vectors when present, else the precomputed power scalar.
    SwitchPoseBonus: b * tanh(dx).
    """
    if type(spec) is SwitchPoseBonus:
        reward = spec.b * math.tanh(info.delta_x)
        # tanh saturates to +-1.0 in float64 around |dx| ~ 19 while the
        # true value stays strictly inside; keep the |reward| < |b|
        # contract at the cost of one ulp.
        bound = abs(spec.b)
        if reward >= bound:
            reward = math.nextafter(bound, 0.0)
        elif reward <= -bound:
            reward = -math.nextafter(bound, 0.0)
        return reward
    if type(spec) is Walk:
        if info.torques is not None and info.joint_velocities is not None:
            power = sum(t * v for t, v in zip(info.torques, info.joint_velocities))
        else:
            power = info.power
        return info.delta_x - params.w_e * abs(power)
    raise TypeError(f"not a reward spec: {spec!r}")


class RmFormatError(ValueError):
    """Malformed reward machine document."""


class RmValidationWarning(UserWarning):
    """A machine loaded fine but failed validation; ``report`` has details."""

    def __init__(self, message: str, report: ValidationReport):
        super().__init__(message)
        self.report = report


def _reward_to_doc(spec: RewardSpec) -> dict:
    if type(spec) is Walk:
        return {"type": "walk"}
    if type(spec) is SwitchPoseBonus:
        return {"type": "switch_pose_bonus", "b": spec.b}
    raise TypeError(f"not a reward spec: {spec!r}")


def _reward_from_doc(doc: dict, where: str) -> RewardSpec:
    if not isinstance(doc, dict):
        raise RmFormatError(f"{where}: reward must be an object")
    kind = doc.get("type")
    if kind == "walk":
        _reject_unknown(doc, {"type"}, where)
        return Walk()
    if kind == "switch_pose_bonus":
        _reject_unknown(doc, {"type", "b"}, where)
        if "b" not in doc:
            raise RmFormatError(f"{where}: switch_pose_bonus requires field 'b'")
        b = _number(doc["b"], f"{where}: 'b'")
        if not math.isfinite(b):
            raise RmFormatError(f"{where}: 'b' must be finite, got {b}")
        return SwitchPoseBonus(b)
    raise RmFormatError(f"{where}: unknown reward type {kind!r}")


def _number(raw: object, what: str) -> float:
    """A JSON number as a float; anything else, a bool included, and an
    integer too large for a float are format errors."""
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise RmFormatError(f"{what} must be a number")
    try:
        return float(raw)
    except OverflowError:
        raise RmFormatError(f"{what} is too large for a float") from None


def _reject_unknown(doc: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise RmFormatError(f"{where}: unknown fields {unknown}")


def machine_to_document(
    rm: RewardMachine, params: RewardParams | None = None
) -> dict:
    if params is None:
        params = RewardParams()
    return {
        "version": RM_FILE_VERSION,
        "states": [s.name for s in rm.states],
        "initial": rm.initial.name,
        "accepting": [s.name for s in rm.states if s in rm.accepting],
        "transitions": [
            {
                "from": t.src.name,
                "to": t.dst.name,
                "guard": render_guard(t.guard),
                "reward": _reward_to_doc(t.reward),
            }
            for t in rm.transitions
        ],
        "params": asdict(params),
    }


def machine_from_document(doc: dict) -> tuple[RewardMachine, RewardParams]:
    if not isinstance(doc, dict):
        raise RmFormatError("document root must be an object")
    required = {"version", "states", "initial", "accepting", "transitions", "params"}
    _reject_unknown(doc, required, "document")
    missing = sorted(required - set(doc))
    if missing:
        raise RmFormatError(f"document: missing fields {missing}")
    # A bool is never taken as a number, and ``1.0 == 1``: only the int
    # itself names the version.
    if type(doc["version"]) is not int or doc["version"] != RM_FILE_VERSION:
        raise RmFormatError(f"unsupported version {doc['version']!r}")

    names = doc["states"]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise RmFormatError("states: must be a list of names")
    states = tuple(RmState(i, n) for i, n in enumerate(names))
    by_name = {s.name: s for s in states}
    if len(by_name) != len(states):
        raise RmFormatError(f"states: duplicate names in {names}")

    def resolve(name: object, where: str) -> RmState:
        if not isinstance(name, str) or name not in by_name:
            raise RmFormatError(f"{where}: unknown state {name!r}")
        return by_name[name]

    initial = resolve(doc["initial"], "initial")
    accepting_doc = doc["accepting"]
    if not isinstance(accepting_doc, list):
        raise RmFormatError("accepting: must be a list of names")
    accepting = frozenset(
        resolve(n, f"accepting[{i}]") for i, n in enumerate(accepting_doc)
    )

    transitions_doc = doc["transitions"]
    if not isinstance(transitions_doc, list):
        raise RmFormatError("transitions: must be a list")
    transitions = []
    for i, t in enumerate(transitions_doc):
        where = f"transitions[{i}]"
        if not isinstance(t, dict):
            raise RmFormatError(f"{where}: must be an object")
        _reject_unknown(t, {"from", "to", "guard", "reward"}, where)
        for key in ("from", "to", "guard", "reward"):
            if key not in t:
                raise RmFormatError(f"{where}: missing field {key!r}")
        if not isinstance(t["guard"], str):
            raise RmFormatError(f"{where}: guard must be a string")
        try:
            guard = parse_guard(t["guard"])
        except ValueError as exc:
            raise RmFormatError(f"{where}: bad guard: {exc}") from exc
        transitions.append(
            Transition(
                src=resolve(t["from"], where),
                guard=guard,
                dst=resolve(t["to"], where),
                reward=_reward_from_doc(t["reward"], where),
            )
        )

    params_doc = doc["params"]
    if not isinstance(params_doc, dict):
        raise RmFormatError("params: must be an object")
    defaults = {f.name: f.default for f in fields(RewardParams)}
    _reject_unknown(params_doc, set(defaults), "params")
    values = {
        key: _number(params_doc.get(key, default), f"params: {key}")
        for key, default in defaults.items()
    }
    try:
        params = RewardParams(**values)
    except ValueError as exc:
        raise RmFormatError(f"params: {exc}") from exc

    try:
        rm = RewardMachine(
            states=states,
            initial=initial,
            accepting=accepting,
            transitions=tuple(transitions),
        )
    except ValueError as exc:
        raise RmFormatError(str(exc)) from exc
    return rm, params


def dumps_rm(rm: RewardMachine, params: RewardParams | None = None) -> str:
    return json.dumps(machine_to_document(rm, params), indent=2) + "\n"


def save_rm(
    rm: RewardMachine, path: str | Path, params: RewardParams | None = None
) -> None:
    """Write the machine (and its reward params) as a JSON document."""
    Path(path).write_text(dumps_rm(rm, params))


def loads_json(text: str) -> object:
    """Decode a JSON document; malformed text, or text nested too deeply
    to decode, is an RmFormatError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise RmFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise RmFormatError("JSON nested too deeply") from None


def load_rm(source: str | Path | IO[str]) -> tuple[RewardMachine, RewardParams]:
    """Read a machine document. Validation problems do not fail the load;
    they are raised as an RmValidationWarning carrying the report."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text()
    rm, params = machine_from_document(loads_json(text))
    report = validate(rm)
    if not report.valid:
        warnings.warn(
            RmValidationWarning(
                "loaded machine failed validation:\n" + report.describe(), report
            ),
            stacklevel=2,
        )
    return rm, params
