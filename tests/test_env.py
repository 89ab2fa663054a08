"""Tests for the toy quadruped environment dynamics and labeling."""

import dataclasses
import random

import pytest

from gaitrm.env import (
    EpisodeFinishedError,
    InvalidConfigError,
    StepInfo,
    ToyEnvConfig,
    ToyQuadrupedEnv,
    label,
    observe,
    reset,
    step,
)
from gaitrm.guards import EMPTY_LABEL_SET, LabelSet, Prop

TROT_A = LabelSet.of(Prop.FL, Prop.BR)   # code 9
TROT_B = LabelSet.of(Prop.FR, Prop.BL)   # code 6
PACE_A = LabelSet.of(Prop.FL, Prop.BL)   # code 5
PACE_B = LabelSet.of(Prop.FR, Prop.BR)   # code 10


class TestConfig:
    def test_defaults(self):
        config = ToyEnvConfig()
        assert config.clearance == 0.05
        assert config.lift_height == 0.10
        assert config.stride_gain == 0.05
        assert config.lift_power_cost == 5.0
        assert config.episode_length == 100
        assert config.stumble_terminates is True

    def test_lift_below_clearance_rejected(self):
        with pytest.raises(InvalidConfigError):
            ToyEnvConfig(lift_height=0.01)

    @pytest.mark.parametrize("kwargs", [
        {"clearance": 0.0},
        {"stride_gain": -1.0},
        {"lift_power_cost": -0.5},
        {"episode_length": 0},
    ])
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(InvalidConfigError):
            ToyEnvConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"episode_length": 2.5},
        {"episode_length": True},
        {"stumble_terminates": "no"},
        {"stumble_terminates": 1},
        {"clearance": True},
        {"stride_gain": "0.05"},
    ])
    def test_mistyped_fields_rejected(self, kwargs):
        with pytest.raises(TypeError):
            ToyEnvConfig(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_float_field_rejected(self, value):
        with pytest.raises(ValueError):
            ToyEnvConfig(lift_power_cost=value)

    def test_int_accepted_for_float_field(self):
        assert ToyEnvConfig(lift_power_cost=0).lift_power_cost == 0


class TestReset:
    def test_initial_rest_pose(self):
        config = ToyEnvConfig()
        state = reset(config)
        assert state.airborne == EMPTY_LABEL_SET
        assert state.foot_heights == (0.0, 0.0, 0.0, 0.0)
        assert state.base_x == 0.0
        assert state.step_count == 0
        assert label(state, config.clearance) == EMPTY_LABEL_SET
        assert observe(state) == 0

    def test_reset_is_deterministic(self):
        config = ToyEnvConfig()
        assert reset(config) == reset(config)


class TestStep:
    def test_first_lift_advances_and_costs_power(self):
        config = ToyEnvConfig()
        state = reset(config)
        nxt, info = step(state, TROT_A.code, config)
        assert nxt.airborne == TROT_A
        assert info.delta_x == 0.05
        assert info.power == 10.0
        assert info.foot_heights == (0.10, 0.0, 0.0, 0.10)
        assert not info.terminated and not info.truncated

    def test_lift_all_four_stumbles(self):
        config = ToyEnvConfig()
        state = reset(config)
        nxt, info = step(state, 15, config)
        assert info.terminated is True
        assert info.delta_x == 0.0
        assert nxt.fallen is True

    def test_three_feet_airborne_stumbles(self):
        config = ToyEnvConfig()
        state = reset(config)
        _, info = step(state, 0b0111, config)
        assert info.terminated is True
        assert info.delta_x == 0.0

    def test_repeat_action_no_progress(self):
        config = ToyEnvConfig()
        state = reset(config)
        state, first = step(state, TROT_A.code, config)
        state, second = step(state, TROT_A.code, config)
        assert first.delta_x == 0.05
        assert second.delta_x == 0.0
        assert second.power == 10.0

    def test_stumble_without_termination_allows_recovery(self):
        config = ToyEnvConfig(stumble_terminates=False)
        state = reset(config)
        state, info = step(state, 15, config)
        assert info.terminated is False
        assert state.fallen is True
        state, info = step(state, TROT_A.code, config)
        assert state.fallen is False
        assert info.delta_x == 0.05

    def test_truncates_at_episode_length(self):
        config = ToyEnvConfig(episode_length=3)
        state = reset(config)
        for i in range(3):
            state, info = step(state, (TROT_A if i % 2 == 0 else TROT_B).code, config)
        assert info.truncated is True
        with pytest.raises(EpisodeFinishedError):
            step(state, 0, config)

    def test_step_after_stumble_raises(self):
        config = ToyEnvConfig()
        state = reset(config)
        state, _ = step(state, 15, config)
        with pytest.raises(EpisodeFinishedError):
            step(state, 0, config)

    def test_action_code_validation(self):
        config = ToyEnvConfig()
        state = reset(config)
        with pytest.raises(ValueError):
            step(state, 16, config)


class TestLabel:
    def test_trot_pose_at_clearance(self):
        assert label((0.10, 0.0, 0.0, 0.10), 0.05) == TROT_A

    def test_all_grounded(self):
        assert label((0.0, 0.0, 0.0, 0.0), 0.05) == EMPTY_LABEL_SET

    def test_just_under_threshold_excluded(self):
        assert label((0.049, 0.0, 0.0, 0.0), 0.05) == EMPTY_LABEL_SET

    def test_exactly_at_threshold_included(self):
        assert label((0.05, 0.0, 0.0, 0.0), 0.05) == LabelSet.of(Prop.FL)

    def test_accepts_step_info_and_state(self):
        config = ToyEnvConfig()
        state, info = step(reset(config), TROT_A.code, config)
        assert label(info, config.clearance) == TROT_A
        assert label(state, config.clearance) == TROT_A


class TestObserve:
    def test_bit_mapping(self):
        config = ToyEnvConfig()
        state = reset(config)
        assert observe(state) == 0
        state, _ = step(state, TROT_A.code, config)
        assert observe(state) == 9
        state, _ = step(state, PACE_A.code, config)
        assert observe(state) == 5

    def test_all_airborne_is_code_fifteen(self):
        config = ToyEnvConfig(stumble_terminates=False)
        state, _ = step(reset(config), 15, config)
        assert observe(state) == 15


class TestInvariants:
    def test_determinism_across_instances(self):
        rng = random.Random(11)
        actions = [rng.randrange(16) for _ in range(200)]
        config = ToyEnvConfig(stumble_terminates=False)
        states_a, infos_a = self._run(config, actions)
        states_b, infos_b = self._run(config, actions)
        assert states_a == states_b
        assert infos_a == infos_b

    @staticmethod
    def _run(config, actions):
        state = reset(config)
        states, infos = [], []
        for action in actions:
            if state.step_count >= config.episode_length:
                break
            state, info = step(state, action, config)
            states.append(state)
            infos.append(info)
        return states, infos

    def test_position_conservation(self):
        config = ToyEnvConfig(stumble_terminates=False)
        rng = random.Random(5)
        state = reset(config)
        deltas = []
        for _ in range(config.episode_length):
            state, info = step(state, rng.randrange(16), config)
            deltas.append(info.delta_x)
        assert state.base_x == sum(deltas)

    def test_progress_only_on_changed_airborne_and_never_negative(self):
        config = ToyEnvConfig(stumble_terminates=False)
        rng = random.Random(6)
        state = reset(config)
        for _ in range(config.episode_length):
            before = state.airborne
            state, info = step(state, rng.randrange(16), config)
            assert info.delta_x >= 0.0
            if info.delta_x > 0.0:
                assert state.airborne != before
                assert len(state.airborne) <= 2

    def test_label_tracks_command_after_one_step(self):
        config = ToyEnvConfig(stumble_terminates=False)
        rng = random.Random(7)
        state = reset(config)
        for _ in range(config.episode_length):
            action = rng.randrange(16)
            state, info = step(state, action, config)
            assert label(info, config.clearance).code == action

    def test_trot_cycle_is_feasible_and_advances_every_step(self):
        config = ToyEnvConfig()
        state = reset(config)
        total = 0.0
        for i in range(config.episode_length):
            action = (TROT_A if i % 2 == 0 else TROT_B).code
            state, info = step(state, action, config)
            assert info.delta_x == config.stride_gain
            assert not info.terminated
            total += info.delta_x
        assert info.truncated
        assert state.base_x == total

    def test_pace_cycle_mirrors_trot_progress(self):
        config = ToyEnvConfig()
        state = reset(config)
        for i in range(10):
            action = (PACE_A if i % 2 == 0 else PACE_B).code
            state, info = step(state, action, config)
            assert info.delta_x == config.stride_gain


DYNAMICS_CONFIGS = {
    "default": ToyEnvConfig(),
    "no_stumble_termination": ToyEnvConfig(stumble_terminates=False),
    "custom_geometry": ToyEnvConfig(
        clearance=0.15,
        lift_height=0.2,
        stride_gain=0.07,
        lift_power_cost=2.5,
        episode_length=2,
    ),
}


@pytest.mark.parametrize("config_name", sorted(DYNAMICS_CONFIGS))
def test_dynamics_over_every_pattern_and_action(config_name):
    """Every (previous contact pattern, action) pair, checked against the
    rules in the README recomputed here from bit counts."""
    config = DYNAMICS_CONFIGS[config_name]
    reach = dataclasses.replace(config, stumble_terminates=False)
    env = ToyQuadrupedEnv(config)
    for previous in range(16):
        # The state one step after commanding ``previous`` from rest.
        before, _ = step(reset(reach), previous, reach)
        assert observe(before) == previous
        assert before.fallen == (bin(previous).count("1") > 2)
        for action in range(16):
            if before.fallen and config.stumble_terminates:
                with pytest.raises(EpisodeFinishedError):
                    step(before, action, config)
                continue
            after, info = step(before, action, config)
            n_airborne = bin(action).count("1")
            stumbled = n_airborne > 2
            progress = action != previous and not stumbled
            heights = tuple(
                config.lift_height if action >> i & 1 else 0.0 for i in range(4)
            )
            assert info.delta_x == (config.stride_gain if progress else 0.0)
            assert info.power == config.lift_power_cost * n_airborne
            assert info.foot_heights == heights
            assert info.terminated == (stumbled and config.stumble_terminates)
            assert info.truncated == (2 >= config.episode_length)
            assert info.torques is None and info.joint_velocities is None
            assert after.fallen == stumbled
            assert after.step_count == 2
            assert after.base_x == before.base_x + info.delta_x
            assert label(info, config.clearance).code == action
            assert label(after, config.clearance).code == action
            assert observe(after) == action
            env.set_state(before)
            assert env.step(action) == (action, info)


class TestStatefulShell:
    def test_reset_step_and_finished_error(self):
        env = ToyQuadrupedEnv(ToyEnvConfig(episode_length=2))
        assert env.reset() == 0
        obs, info = env.step(9)
        assert obs == 9 and info.delta_x == 0.05
        obs, info = env.step(6)
        assert info.truncated
        with pytest.raises(EpisodeFinishedError):
            env.step(9)
        assert env.reset() == 0

    def test_default_config(self):
        env = ToyQuadrupedEnv()
        assert env.config == ToyEnvConfig()
