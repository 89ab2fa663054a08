"""Tests for reward machines: gait builders, validation, stepping,
reward computation and serialization."""

import io
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitrm.env import StepInfo
from gaitrm.guards import (
    ALL_LABEL_SETS,
    LabelSet,
    Not,
    Or,
    Prop,
    conjunction_for,
    satisfying_sets,
    truth_table,
)
from gaitrm.machine import (
    Gait,
    RewardMachine,
    RewardParams,
    RmFormatError,
    RmState,
    RmStepError,
    RmValidationWarning,
    SwitchPoseBonus,
    Transition,
    Walk,
    build_gait_rm,
    compute_reward,
    dumps_rm,
    load_rm,
    machine_from_document,
    machine_to_document,
    rm_step,
    save_rm,
    transition_table,
    validate,
)

MACHINES_DIR = Path(__file__).resolve().parent.parent / "machines"

POSE_A = {
    Gait.TROT: LabelSet.of(Prop.FL, Prop.BR),
    Gait.PACE: LabelSet.of(Prop.FL, Prop.BL),
    Gait.BOUND: LabelSet.of(Prop.FL, Prop.FR),
}
POSE_B = {
    Gait.TROT: LabelSet.of(Prop.FR, Prop.BL),
    Gait.PACE: LabelSet.of(Prop.FR, Prop.BR),
    Gait.BOUND: LabelSet.of(Prop.BL, Prop.BR),
}


def step_info(delta_x=0.0, power=0.0, torques=None, joint_velocities=None):
    return StepInfo(
        delta_x=delta_x,
        power=power,
        foot_heights=(0.0, 0.0, 0.0, 0.0),
        terminated=False,
        truncated=False,
        torques=torques,
        joint_velocities=joint_velocities,
    )


class TestGaitBuilders:
    @pytest.mark.parametrize("gait", list(Gait))
    def test_bonus_guards_satisfy_exactly_the_poses(self, gait):
        rm = build_gait_rm(gait)
        q0, q1 = rm.states
        (forward,) = [t for t in rm.transitions_from(q0) if t.dst == q1]
        (backward,) = [t for t in rm.transitions_from(q1) if t.dst == q0]
        assert satisfying_sets(forward.guard) == frozenset({POSE_A[gait]})
        assert satisfying_sets(backward.guard) == frozenset({POSE_B[gait]})
        assert forward.reward == SwitchPoseBonus(10000.0)
        assert backward.reward == SwitchPoseBonus(10000.0)

    def test_two_states_initial_q0_accepting_empty(self):
        rm = build_gait_rm(Gait.TROT)
        assert [s.name for s in rm.states] == ["q0", "q1"]
        assert rm.initial.name == "q0"
        assert rm.accepting == frozenset()
        assert len(rm.transitions) == 4

    def test_custom_bonus_scale(self):
        rm = build_gait_rm(Gait.TROT, RewardParams(bonus_b=5.0))
        bonuses = [t.reward for t in rm.transitions if isinstance(t.reward, SwitchPoseBonus)]
        assert bonuses == [SwitchPoseBonus(5.0), SwitchPoseBonus(5.0)]

    @pytest.mark.parametrize("gait", [Gait.PACE, Gait.BOUND])
    def test_isomorphic_to_trot_up_to_pose_guards(self, gait):
        trot = build_gait_rm(Gait.TROT)
        other = build_gait_rm(gait)
        assert [s.name for s in other.states] == [s.name for s in trot.states]
        for t_trot, t_other in zip(trot.transitions, other.transitions):
            assert (t_trot.src, t_trot.dst) == (t_other.src, t_other.dst)
            assert type(t_trot.reward) is type(t_other.reward)


class TestValidate:
    @pytest.mark.parametrize("gait", list(Gait))
    def test_gait_machines_valid(self, gait):
        report = validate(build_gait_rm(gait))
        assert report.valid
        assert report.coverage_gaps == ()
        assert report.ambiguities == ()
        assert report.unreachable == ()

    def test_missing_self_loop_leaves_fifteen_gaps(self):
        rm = build_gait_rm(Gait.TROT)
        q0 = rm.initial
        pruned = RewardMachine(
            states=rm.states,
            initial=rm.initial,
            accepting=rm.accepting,
            transitions=tuple(
                t for t in rm.transitions if not (t.src == q0 and t.dst == q0)
            ),
        )
        report = validate(pruned)
        gaps_at_q0 = [g for g in report.coverage_gaps if g[0] == q0]
        assert len(gaps_at_q0) == 15
        assert not report.valid

    def test_duplicate_pose_transition_is_ambiguous(self):
        rm = build_gait_rm(Gait.TROT)
        duplicated = RewardMachine(
            states=rm.states,
            initial=rm.initial,
            accepting=rm.accepting,
            transitions=rm.transitions + (rm.transitions[0],),
        )
        report = validate(duplicated)
        assert (rm.initial, LabelSet.of(Prop.FL, Prop.BR)) in report.ambiguities
        assert not report.valid

    def test_unreachable_state_detected(self):
        q0 = RmState(0, "q0")
        q1 = RmState(1, "q1")
        always = Or(conjunction_for(ALL_LABEL_SETS[0]), Not(conjunction_for(ALL_LABEL_SETS[0])))
        rm = RewardMachine(
            states=(q0, q1),
            initial=q0,
            accepting=frozenset(),
            transitions=(
                Transition(q0, always, q0, Walk()),
                Transition(q1, always, q1, Walk()),
            ),
        )
        report = validate(rm)
        assert report.unreachable == (q1,)


class TestRmStep:
    def test_pose_a_from_q0_pays_bonus(self):
        rm = build_gait_rm(Gait.TROT)
        nxt, spec = rm_step(rm, rm.initial, LabelSet.of(Prop.FL, Prop.BR))
        assert nxt.name == "q1"
        assert spec == SwitchPoseBonus(10000.0)

    def test_empty_label_self_loops_with_walk(self):
        rm = build_gait_rm(Gait.TROT)
        nxt, spec = rm_step(rm, rm.initial, ALL_LABEL_SETS[0])
        assert nxt == rm.initial
        assert spec == Walk()

    def test_repeated_pose_a_in_q1_earns_no_second_bonus(self):
        rm = build_gait_rm(Gait.TROT)
        q1 = rm.state_named("q1")
        nxt, spec = rm_step(rm, q1, LabelSet.of(Prop.FL, Prop.BR))
        assert nxt == q1
        assert spec == Walk()

    @pytest.mark.parametrize("gait", list(Gait))
    def test_exactly_one_transition_applies_everywhere(self, gait):
        rm = build_gait_rm(gait)
        for state in rm.states:
            outgoing = rm.transitions_from(state)
            for labels in ALL_LABEL_SETS:
                matches = [
                    t for t in outgoing
                    if labels in satisfying_sets(t.guard)
                ]
                assert len(matches) == 1

    @pytest.mark.parametrize("gait", list(Gait))
    def test_pose_cycle_returns_to_initial(self, gait):
        rm = build_gait_rm(gait)
        mid, _ = rm_step(rm, rm.initial, POSE_A[gait])
        assert mid.name == "q1"
        back, _ = rm_step(rm, mid, POSE_B[gait])
        assert back == rm.initial

    def test_gap_raises_at_runtime(self):
        rm = build_gait_rm(Gait.TROT)
        q0 = rm.initial
        pruned = RewardMachine(
            rm.states,
            rm.initial,
            rm.accepting,
            tuple(t for t in rm.transitions if not (t.src == q0 and t.dst == q0)),
        )
        with pytest.raises(RmStepError):
            rm_step(pruned, q0, ALL_LABEL_SETS[0])

    def test_ambiguity_raises_at_runtime(self):
        rm = build_gait_rm(Gait.TROT)
        duplicated = RewardMachine(
            rm.states, rm.initial, rm.accepting, rm.transitions + (rm.transitions[0],)
        )
        with pytest.raises(RmStepError):
            rm_step(duplicated, rm.initial, LabelSet.of(Prop.FL, Prop.BR))

    def test_transition_table_matches_rm_step(self):
        machines = {gait.value: build_gait_rm(gait) for gait in Gait}
        for path in sorted(MACHINES_DIR.glob("*.json")):
            machines[path.name], _ = load_rm(path)
        assert len(machines) == 6
        for name, rm in machines.items():
            table = transition_table(rm)
            assert len(table) == len(rm.states) * len(ALL_LABEL_SETS), name
            for state in rm.states:
                for labels in ALL_LABEL_SETS:
                    expected = rm_step(rm, state, labels)
                    assert table[(state.index, labels.code)] == expected, name

    def test_transition_table_shared_by_equal_machines(self):
        trot = transition_table(build_gait_rm(Gait.TROT))
        loaded, _ = load_rm(MACHINES_DIR / "trot.json")
        assert transition_table(build_gait_rm(Gait.TROT)) is trot
        assert transition_table(loaded) is trot
        assert transition_table(build_gait_rm(Gait.PACE)) is not trot
        assert transition_table(build_gait_rm(Gait.BOUND)) is not trot

    @pytest.mark.parametrize("gait", list(Gait), ids=lambda g: g.value)
    def test_built_and_loaded_machines_hash_equal(self, gait):
        built = build_gait_rm(gait)
        loaded, _ = load_rm(MACHINES_DIR / f"{gait.value}.json")
        assert loaded is not built and loaded == built
        fields = (built.states, built.initial, built.accepting, built.transitions)
        assert hash(loaded) == hash(built) == hash(fields)
        assert transition_table(loaded) is transition_table(built)


class TestComputeReward:
    def test_walk_all_zero(self):
        assert compute_reward(Walk(), step_info(), RewardParams()) == 0.0

    def test_bonus_zero_displacement(self):
        assert compute_reward(SwitchPoseBonus(10000.0), step_info(), RewardParams()) == 0.0

    def test_walk_with_joint_vectors(self):
        info = step_info(delta_x=0.1, torques=(4.0, 2.0), joint_velocities=(2.0, 6.0))
        reward = compute_reward(Walk(), info, RewardParams())
        assert reward == pytest.approx(0.08, abs=1e-15)

    def test_vectors_take_precedence_over_power_scalar(self):
        info = step_info(
            delta_x=0.1, power=999.0, torques=(4.0, 2.0), joint_velocities=(2.0, 6.0)
        )
        assert compute_reward(Walk(), info, RewardParams()) == pytest.approx(0.08)

    def test_walk_uses_absolute_power(self):
        forward = compute_reward(Walk(), step_info(delta_x=0.0, power=20.0), RewardParams())
        backward = compute_reward(Walk(), step_info(delta_x=0.0, power=-20.0), RewardParams())
        assert forward == backward == pytest.approx(-0.02)

    def test_bonus_bounded_and_sign_matches(self):
        params = RewardParams()
        for delta in (-100.0, -1.0, -1e-6, 1e-6, 0.3, 5.0, 1e9):
            reward = compute_reward(SwitchPoseBonus(10000.0), step_info(delta_x=delta), params)
            assert abs(reward) < 10000.0
            assert math.copysign(1.0, reward) == math.copysign(1.0, delta)

    def test_bonus_monotone_in_displacement(self):
        params = RewardParams()
        deltas = [-2.0, -0.5, 0.0, 0.01, 0.05, 0.2, 1.0, 3.0]
        rewards = [
            compute_reward(SwitchPoseBonus(10000.0), step_info(delta_x=d), params)
            for d in deltas
        ]
        assert rewards == sorted(rewards)

    def test_walk_decreases_with_power_magnitude(self):
        params = RewardParams()
        powers = [0.0, 1.0, 5.0, 20.0, 100.0]
        rewards = [
            compute_reward(Walk(), step_info(delta_x=0.5, power=p), params)
            for p in powers
        ]
        assert rewards == sorted(rewards, reverse=True)


class TestRewardParams:
    def test_defaults(self):
        params = RewardParams()
        assert params.w_e == 0.001
        assert params.gamma == 0.99
        assert params.bonus_b == 10000.0

    @pytest.mark.parametrize("kwargs", [
        {"gamma": 0.0},
        {"gamma": 1.0},
        {"w_e": -0.1},
        {"bonus_b": float("inf")},
        {"bonus_b": True},
        {"w_e": False},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            RewardParams(**kwargs)


def machines_equivalent(a: RewardMachine, b: RewardMachine) -> bool:
    """Same stepping behavior and reward specs over all (state, label)
    pairs, comparing states positionally."""
    if len(a.states) != len(b.states):
        return False
    for sa, sb in zip(a.states, b.states):
        for labels in ALL_LABEL_SETS:
            na, ra = rm_step(a, sa, labels)
            nb, rb = rm_step(b, sb, labels)
            if na.index != nb.index or ra != rb:
                return False
    return True


class TestSerialization:
    @pytest.mark.parametrize("gait", list(Gait))
    def test_round_trip_preserves_behavior(self, gait):
        rm = build_gait_rm(gait)
        buffer = io.StringIO(dumps_rm(rm))
        loaded, params = load_rm(buffer)
        assert machines_equivalent(rm, loaded)
        assert params == RewardParams()

    @pytest.mark.parametrize("gait", list(Gait))
    def test_save_load_save_byte_identical(self, gait, tmp_path):
        rm = build_gait_rm(gait)
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        save_rm(rm, first)
        loaded, params = load_rm(first)
        save_rm(loaded, second, params)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("gait", list(Gait))
    def test_checked_in_fixtures_are_golden(self, gait):
        path = MACHINES_DIR / f"{gait.value}.json"
        assert path.read_text() == dumps_rm(build_gait_rm(gait))

    def test_missing_initial_is_schema_error(self):
        doc = machine_to_document(build_gait_rm(Gait.TROT))
        del doc["initial"]
        with pytest.raises(RmFormatError, match="initial"):
            machine_from_document(doc)

    def test_unknown_field_rejected(self):
        doc = machine_to_document(build_gait_rm(Gait.TROT))
        doc["comment"] = "nope"
        with pytest.raises(RmFormatError, match="comment"):
            machine_from_document(doc)

    def test_unknown_transition_field_rejected(self):
        doc = machine_to_document(build_gait_rm(Gait.TROT))
        doc["transitions"][0]["weight"] = 2
        with pytest.raises(RmFormatError, match=r"transitions\[0\]"):
            machine_from_document(doc)

    def test_bad_guard_reports_location(self):
        doc = machine_to_document(build_gait_rm(Gait.TROT))
        doc["transitions"][2]["guard"] = "FL & & BR"
        with pytest.raises(RmFormatError, match=r"transitions\[2\]"):
            machine_from_document(doc)

    def test_unknown_reward_type_rejected(self):
        doc = machine_to_document(build_gait_rm(Gait.TROT))
        doc["transitions"][0]["reward"] = {"type": "jackpot"}
        with pytest.raises(RmFormatError, match="jackpot"):
            machine_from_document(doc)

    def test_coverage_gap_loads_with_warning_report(self, tmp_path):
        doc = machine_to_document(build_gait_rm(Gait.TROT))
        doc["transitions"] = [doc["transitions"][0], doc["transitions"][2]]
        path = tmp_path / "gappy.json"
        import json

        path.write_text(json.dumps(doc))
        with pytest.warns(RmValidationWarning) as caught:
            rm, _ = load_rm(path)
        assert len(rm.transitions) == 2
        report = caught[0].message.report
        assert report.coverage_gaps
        assert not report.valid

    def test_not_json_is_format_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(RmFormatError):
            load_rm(path)

    @pytest.mark.parametrize("b", ["1e400", "-1e400", "NaN", "Infinity", "-Infinity"])
    def test_non_finite_bonus_is_format_error(self, tmp_path, b):
        text = dumps_rm(build_gait_rm(Gait.TROT)).replace('"b": 10000.0', f'"b": {b}', 1)
        path = tmp_path / "bonus.json"
        path.write_text(text)
        with pytest.raises(RmFormatError, match=r"transitions\[0\]: 'b' must be finite"):
            load_rm(path)

    def test_number_too_large_for_a_float_is_format_error(self):
        doc = machine_to_document(build_gait_rm(Gait.TROT))
        doc["transitions"][0]["reward"]["b"] = 10**400
        with pytest.raises(RmFormatError, match=r"transitions\[0\]: 'b' is too large"):
            machine_from_document(doc)
        doc = machine_to_document(build_gait_rm(Gait.TROT))
        doc["params"]["w_e"] = -(10**400)
        with pytest.raises(RmFormatError, match="params: w_e is too large"):
            machine_from_document(doc)

    def test_json_nested_too_deeply_is_format_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(RmFormatError, match="nested too deeply"):
            load_rm(path)


@st.composite
def random_total_machine(draw):
    """A random deterministic-and-total machine: every (state, label)
    pair is assigned one successor/reward, then transitions are grouped
    into guards as disjunctions of exact-pose conjunctions."""
    n_states = draw(st.integers(min_value=1, max_value=3))
    states = tuple(RmState(i, f"s{i}") for i in range(n_states))
    transitions = []
    for state in states:
        assignment = {}
        for labels in ALL_LABEL_SETS:
            dst = draw(st.integers(min_value=0, max_value=n_states - 1))
            reward_kind = draw(st.booleans())
            assignment[labels] = (dst, reward_kind)
        groups = {}
        for labels, key in assignment.items():
            groups.setdefault(key, []).append(labels)
        for (dst, reward_kind), members in sorted(
            groups.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            guard = conjunction_for(members[0])
            for labels in members[1:]:
                guard = Or(guard, conjunction_for(labels))
            reward = SwitchPoseBonus(draw(st.integers(0, 100)) * 1.0) if reward_kind else Walk()
            transitions.append(Transition(state, guard, states[dst], reward))
    return RewardMachine(
        states=states,
        initial=states[0],
        accepting=frozenset(),
        transitions=tuple(transitions),
    )


@given(rm=random_total_machine())
@settings(max_examples=50, deadline=None)
def test_random_total_machines_validate_and_round_trip(rm):
    report = validate(rm)
    assert not report.coverage_gaps
    assert not report.ambiguities
    with warnings.catch_warnings():
        # Random machines may have unreachable states; reachability is
        # not what this property checks.
        warnings.simplefilter("ignore", RmValidationWarning)
        loaded, _ = load_rm(io.StringIO(dumps_rm(rm)))
    assert machines_equivalent(rm, loaded)
