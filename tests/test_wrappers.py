"""Tests for the cross-product wrapper, the baseline wrappers, and the
milestone-latch reward oracle, including reward-stream equivalence."""

import itertools
import math
import random

import pytest

from gaitrm.env import StepInfo, ToyEnvConfig, ToyQuadrupedEnv
from gaitrm.guards import LabelSet, Lit, Not, Prop
from gaitrm.machine import (
    Gait,
    RewardMachine,
    RewardParams,
    RmState,
    SwitchPoseBonus,
    Transition,
    Walk,
    build_gait_rm,
    compute_reward,
    rm_step,
)
from gaitrm.wrappers import (
    AugmentedWrapper,
    CrossProductObservation,
    CrossProductWrapper,
    GaitShapeError,
    MilestoneLatch,
    NaiveWrapper,
    NoGaitWrapper,
    Stack3Wrapper,
    WrapperKind,
    _latch_step,
    base_pattern,
    gait_shape,
    make_wrapper,
)
from helpers import (
    check_equivalence_exhaustive,
    check_equivalence_rollouts,
    joint_walk,
    oracle_reward_step,
)

TROT_A = LabelSet.of(Prop.FL, Prop.BR)
TROT_B = LabelSet.of(Prop.FR, Prop.BL)
PACE_A = LabelSet.of(Prop.FL, Prop.BL)
PACE_B = LabelSet.of(Prop.FR, Prop.BR)


def info_with(delta_x=0.0, power=0.0):
    return StepInfo(delta_x, power, (0.0, 0.0, 0.0, 0.0), False, False)


class TestCrossProduct:
    def test_reset_carries_initial_state(self):
        rm = build_gait_rm(Gait.TROT)
        wrapper = CrossProductWrapper(rm=rm)
        obs = wrapper.reset()
        assert obs == CrossProductObservation(0, rm.initial)

    def test_first_pose_step_pays_scaled_bonus(self):
        rm = build_gait_rm(Gait.TROT)
        wrapper = CrossProductWrapper(rm=rm)
        wrapper.reset()
        obs, reward, terminated, truncated, info = wrapper.step(TROT_A.code)
        assert reward == 10000.0 * math.tanh(0.05)
        assert reward == pytest.approx(499.58, abs=0.01)
        assert obs.rm_state.name == "q1"
        assert not terminated and not truncated

    def test_non_pose_step_walks_and_stays(self):
        rm = build_gait_rm(Gait.TROT)
        params = RewardParams()
        wrapper = CrossProductWrapper(rm=rm, params=params)
        wrapper.reset()
        obs, reward, *_ , info = wrapper.step(LabelSet.of(Prop.FL).code)
        assert obs.rm_state.name == "q0"
        assert reward == compute_reward(Walk(), info, params)

    def test_accepting_state_terminates(self):
        q0 = RmState(0, "q0")
        q1 = RmState(1, "q1")
        base = build_gait_rm(Gait.TROT)
        rm = RewardMachine(
            states=base.states,
            initial=base.initial,
            accepting=frozenset({q1}),
            transitions=base.transitions,
        )
        wrapper = CrossProductWrapper(rm=rm)
        wrapper.reset()
        _, _, terminated, _, info = wrapper.step(TROT_A.code)
        assert terminated is True
        assert info.terminated is False

    def test_requires_machine(self):
        with pytest.raises(ValueError):
            CrossProductWrapper()


class TestOracle:
    def test_pose_b_from_start_gets_no_bonus(self):
        rm = build_gait_rm(Gait.TROT)
        params = RewardParams()
        info = info_with(delta_x=0.05, power=10.0)
        reward, latch = oracle_reward_step(
            MilestoneLatch.NONE, TROT_B, info, rm, params
        )
        assert reward == compute_reward(Walk(), info, params)
        assert latch is MilestoneLatch.NONE

    def test_pose_a_from_start_gets_bonus(self):
        rm = build_gait_rm(Gait.TROT)
        info = info_with(delta_x=0.05)
        reward, latch = oracle_reward_step(
            MilestoneLatch.NONE, TROT_A, info, rm, RewardParams()
        )
        assert reward == 10000.0 * math.tanh(0.05)
        assert latch is MilestoneLatch.POSE_A

    def test_repeated_pose_a_walks(self):
        rm = build_gait_rm(Gait.TROT)
        params = RewardParams()
        info = info_with(delta_x=0.0, power=10.0)
        reward, latch = oracle_reward_step(
            MilestoneLatch.POSE_A, TROT_A, info, rm, params
        )
        assert reward == compute_reward(Walk(), info, params)
        assert latch is MilestoneLatch.POSE_A

    def test_alternation_pays_both_ways(self):
        rm = build_gait_rm(Gait.TROT)
        params = RewardParams()
        info = info_with(delta_x=0.05)
        reward, latch = oracle_reward_step(
            MilestoneLatch.POSE_A, TROT_B, info, rm, params
        )
        assert latch is MilestoneLatch.NONE
        assert reward == 10000.0 * math.tanh(0.05)
        reward, latch = oracle_reward_step(latch, TROT_A, info, rm, params)
        assert latch is MilestoneLatch.POSE_A
        assert reward == 10000.0 * math.tanh(0.05)

    def test_gait_shape_rejects_one_state_machine(self):
        q0 = RmState(0, "q0")
        trot = build_gait_rm(Gait.TROT)
        always_true_guard = trot.transitions[1].guard  # any guard works here
        rm = RewardMachine(
            states=(q0,),
            initial=q0,
            accepting=frozenset(),
            transitions=(Transition(q0, always_true_guard, q0, Walk()),),
        )
        with pytest.raises(GaitShapeError):
            gait_shape(rm)

    @pytest.mark.parametrize("gait", list(Gait))
    def test_latch_wrappers_refuse_an_accepting_machine(self, gait):
        """With q1 accepting, a pose-A step ends the cross-product
        episode, while the latch oracle, which has no terminate rule,
        would pay the same reward and carry on. So every latch wrapper
        refuses a machine with an accepting state, and cross_product
        still runs it."""
        latch_kinds = set(WrapperKind) - {WrapperKind.CROSS_PRODUCT, WrapperKind.NO_GAIT}
        assert latch_kinds == {WrapperKind.NAIVE, WrapperKind.STACK3, WrapperKind.AUGMENTED}
        base = build_gait_rm(gait)
        q0, q1 = base.states
        for accepting in ({q1}, {q0}, {q0, q1}):
            rm = RewardMachine(base.states, q0, frozenset(accepting), base.transitions)
            with pytest.raises(GaitShapeError, match="accepting"):
                gait_shape(rm)
            for kind in latch_kinds:
                with pytest.raises(GaitShapeError, match="accepting"):
                    make_wrapper(kind, rm=rm)
            make_wrapper(WrapperKind.CROSS_PRODUCT, rm=rm).reset()
        rm = RewardMachine(base.states, q0, frozenset({q1}), base.transitions)
        cross = make_wrapper(WrapperKind.CROSS_PRODUCT, rm=rm)
        cross.reset()
        _, _, terminated, _, info = cross.step(gait.pose_a.code)
        assert terminated is True and info.terminated is False

    def test_latch_step_is_the_machine_step_in_all_eight_cases(self):
        """A latch step reads the latch and two bits of the label: ``a``,
        whether pose A's guard holds on it, and ``b``, pose B's. So the
        latch agrees with every two-state machine ``gait_shape`` accepts
        iff it agrees on the 8 cases (latch, a, b). Each (a, b) gets a
        machine whose pose guards give label code 9 that membership and
        whose four edges carry four reward specs; each case must take
        the machine's edge, pay its reward, and latch pose A exactly
        when the machine is in q1, on every outcome of two configs."""
        labels = LabelSet.of(Prop.FL, Prop.BR)
        params = RewardParams()
        infos = {
            repr(info): info
            for config in (ToyEnvConfig(), ToyEnvConfig(stumble_terminates=False))
            for info, _, _ in config.outcomes
        }.values()
        q0, q1 = RmState(0, "q0"), RmState(1, "q1")
        latched = {q0: MilestoneLatch.NONE, q1: MilestoneLatch.POSE_A}
        for a, b in itertools.product((0, 1), repeat=2):
            pose_a = Lit(Prop.FL) if a else Not(Lit(Prop.FL))
            pose_b = Lit(Prop.BR) if b else Not(Lit(Prop.BR))
            rm = RewardMachine((q0, q1), q0, frozenset(), (
                Transition(q0, pose_a, q1, SwitchPoseBonus(3.0)),
                Transition(q0, Not(pose_a), q0, Walk()),
                Transition(q1, pose_b, q0, SwitchPoseBonus(5.0)),
                Transition(q1, Not(pose_b), q1, SwitchPoseBonus(7.0)),
            ))
            shape = gait_shape(rm)
            assert (shape.mask_a >> labels.code & 1, shape.mask_b >> labels.code & 1) == (a, b)
            edges = {(t.src, t.dst): t.reward for t in rm.transitions}
            for state, latch in latched.items():
                dst, spec = rm_step(rm, state, labels)
                for info in infos:
                    reward, next_latch = _latch_step(shape, latch, labels.code, info, params)
                    case = (latch, a, b, info)
                    latch_dst = q1 if next_latch is MilestoneLatch.POSE_A else q0
                    assert edges[(state, latch_dst)] == spec, case
                    assert repr(reward) == repr(compute_reward(spec, info, params)), case
                    assert next_latch is latched[dst], case

    @pytest.mark.parametrize("gait", list(Gait))
    def test_gait_shape_masks(self, gait):
        shape = gait_shape(build_gait_rm(gait))
        a_codes = [c for c in range(16) if shape.mask_a >> c & 1]
        b_codes = [c for c in range(16) if shape.mask_b >> c & 1]
        assert a_codes == [gait.pose_a.code]
        assert b_codes == [gait.pose_b.code]


class TestNaive:
    def test_observations_are_plain_patterns(self):
        rm = build_gait_rm(Gait.TROT)
        wrapper = NaiveWrapper(rm=rm)
        assert wrapper.reset() == 0
        obs, *_ = wrapper.step(TROT_A.code)
        assert obs == 9

    def test_reset_clears_latch(self):
        rm = build_gait_rm(Gait.TROT)
        wrapper = NaiveWrapper(rm=rm)
        wrapper.reset()
        wrapper.step(TROT_A.code)
        assert wrapper.latch is MilestoneLatch.POSE_A
        wrapper.reset()
        assert wrapper.latch is MilestoneLatch.NONE

    def test_consecutive_pose_a_bonus_once(self):
        rm = build_gait_rm(Gait.TROT)
        wrapper = NaiveWrapper(rm=rm)
        wrapper.reset()
        _, first, *_ = wrapper.step(TROT_A.code)
        _, second, *_ = wrapper.step(TROT_A.code)
        assert first == 10000.0 * math.tanh(0.05)
        assert second < 0.0  # walk reward: no progress, lifting costs power

    def test_same_rewards_as_cross_product(self):
        rm = build_gait_rm(Gait.TROT)
        cross = CrossProductWrapper(ToyQuadrupedEnv(), rm)
        naive = NaiveWrapper(ToyQuadrupedEnv(), rm)
        cross.reset()
        naive.reset()
        rng = random.Random(3)
        for _ in range(60):
            action = rng.choice([0, 5, 6, 9, 10, 1, 2])
            _, r_cross, *_ = cross.step(action)
            _, r_naive, *_ = naive.step(action)
            assert r_cross == r_naive


class TestStack3:
    def test_padding_after_reset(self):
        rm = build_gait_rm(Gait.TROT)
        wrapper = Stack3Wrapper(rm=rm)
        assert wrapper.reset() == (0, 0, 0)

    def test_chronological_order(self):
        rm = build_gait_rm(Gait.TROT)
        wrapper = Stack3Wrapper(rm=rm)
        wrapper.reset()
        obs1, *_ = wrapper.step(9)
        obs2, *_ = wrapper.step(6)
        obs3, *_ = wrapper.step(9)
        assert obs1 == (0, 0, 9)
        assert obs2 == (0, 9, 6)
        assert obs3 == (9, 6, 9)

    def test_observation_is_three_times_base(self):
        rm = build_gait_rm(Gait.TROT)
        wrapper = Stack3Wrapper(rm=rm)
        obs = wrapper.reset()
        assert len(obs) == 3

    def test_rewards_match_naive(self):
        rm = build_gait_rm(Gait.PACE)
        stacked = Stack3Wrapper(ToyQuadrupedEnv(), rm)
        naive = NaiveWrapper(ToyQuadrupedEnv(), rm)
        stacked.reset()
        naive.reset()
        rng = random.Random(4)
        for _ in range(60):
            action = rng.choice([0, 5, 10, 9, 6, 3])
            _, r_stacked, *_ = stacked.step(action)
            _, r_naive, *_ = naive.step(action)
            assert r_stacked == r_naive


class TestAugmented:
    def test_label_bits_appended(self):
        rm = build_gait_rm(Gait.TROT)
        wrapper = AugmentedWrapper(rm=rm)
        wrapper.reset()
        obs, *_ = wrapper.step(TROT_A.code)
        assert obs == (9, 1, 0, 0, 1)

    def test_all_planted_appends_zeros(self):
        rm = build_gait_rm(Gait.TROT)
        wrapper = AugmentedWrapper(rm=rm)
        assert wrapper.reset() == (0, 0, 0, 0, 0)

    def test_bits_duplicate_base_pattern_in_toy_env(self):
        # Documented toy-env redundancy: the appended labeling bits carry
        # the same information as the base pattern.
        rm = build_gait_rm(Gait.BOUND)
        wrapper = AugmentedWrapper(rm=rm)
        wrapper.reset()
        rng = random.Random(5)
        for _ in range(40):
            obs, *_rest = wrapper.step(rng.choice([0, 1, 3, 9, 6, 12]))
            base, fl, fr, bl, br = obs
            assert base == fl | fr << 1 | bl << 2 | br << 3

    def test_rewards_match_naive(self):
        rm = build_gait_rm(Gait.TROT)
        augmented = AugmentedWrapper(ToyQuadrupedEnv(), rm)
        naive = NaiveWrapper(ToyQuadrupedEnv(), rm)
        augmented.reset()
        naive.reset()
        rng = random.Random(6)
        for _ in range(60):
            action = rng.choice([0, 5, 6, 9, 10])
            _, r_augmented, *_ = augmented.step(action)
            _, r_naive, *_ = naive.step(action)
            assert r_augmented == r_naive


class TestNoGait:
    def test_walk_reward_every_step(self):
        params = RewardParams()
        wrapper = NoGaitWrapper(params=params)
        wrapper.reset()
        _, reward, *_, info = wrapper.step(TROT_A.code)
        assert reward == info.delta_x - params.w_e * info.power
        assert reward == pytest.approx(0.04)

    def test_rest_step_is_zero(self):
        wrapper = NoGaitWrapper()
        wrapper.reset()
        _, reward, *_ = wrapper.step(0)
        assert reward == 0.0

    def test_trot_and_pace_cycles_earn_identical_returns(self):
        returns = {}
        for name, (a, b) in {
            "trot": (TROT_A, TROT_B),
            "pace": (PACE_A, PACE_B),
        }.items():
            wrapper = NoGaitWrapper()
            wrapper.reset()
            total = 0.0
            for i in range(100):
                _, reward, *_ = wrapper.step((a if i % 2 == 0 else b).code)
                total += reward
            returns[name] = total
        assert returns["trot"] == returns["pace"]


class TestEquivalence:
    @pytest.mark.parametrize("gait", list(Gait))
    def test_exhaustive_short_sequences(self, gait):
        compared = check_equivalence_exhaustive(gait, depth=4)
        assert compared > 20_000

    @pytest.mark.parametrize(
        "config",
        (
            ToyEnvConfig(),
            ToyEnvConfig(stumble_terminates=False, episode_length=7),
            # Short enough that the walk takes truncating steps.
            ToyEnvConfig(episode_length=2),
        ),
        ids=("default", "no_stumble_len7", "len2"),
    )
    @pytest.mark.parametrize("gait", list(Gait))
    def test_joint_walk_pairs_states_one_to_one(self, gait, config):
        """Every reachable cross-product state has exactly one naive
        partner and the reverse. With the walk's checks on every (pair,
        action), rewards agree on action sequences of every length, not
        only on those the depth-limited walks reach."""
        pairs = joint_walk(gait, config)
        assert len(pairs) == 30
        assert len({c for c, _ in pairs}) == len({n for _, n in pairs}) == 30

    @pytest.mark.parametrize("gait", list(Gait))
    def test_random_full_episodes(self, gait):
        rng = random.Random(gait.value)
        compared = check_equivalence_rollouts(gait, episodes=50, rng=rng, stumble_free=True)
        assert compared == 50 * 100
        check_equivalence_rollouts(gait, episodes=100, rng=rng, stumble_free=False)


class TestWrapperShell:
    def test_factory_accepts_strings(self):
        rm = build_gait_rm(Gait.TROT)
        for kind in WrapperKind:
            wrapper = make_wrapper(kind.value, rm=rm)
            assert wrapper.kind is kind

    def test_factory_requires_machine_for_gait_wrappers(self):
        for kind in ("cross_product", "naive", "stack3", "augmented"):
            with pytest.raises(ValueError):
                make_wrapper(kind)

    def test_no_gait_has_no_machine(self):
        assert make_wrapper("no_gait").machine is None
        given = make_wrapper("no_gait", rm=build_gait_rm(Gait.TROT))
        assert given.machine is None
        assert given.table is make_wrapper("no_gait").table

    def test_snapshot_restore_round_trip(self):
        rm = build_gait_rm(Gait.TROT)
        wrapper = CrossProductWrapper(rm=rm)
        wrapper.reset()
        wrapper.step(9)
        snap = wrapper.snapshot()
        obs_a, r_a, *_ = wrapper.step(6)
        wrapper.restore(snap)
        obs_b, r_b, *_ = wrapper.step(6)
        assert obs_a == obs_b
        assert r_a == r_b

    @pytest.mark.parametrize("kind", list(WrapperKind), ids=lambda k: k.value)
    def test_clone_is_fresh_and_independent(self, kind):
        rm = build_gait_rm(Gait.TROT)
        params = RewardParams(w_e=0.002)
        config = ToyEnvConfig(episode_length=7)
        wrapper = make_wrapper(kind, ToyQuadrupedEnv(config), rm, params)
        wrapper.reset()
        wrapper.step(9)
        twin = wrapper.clone()
        assert type(twin) is type(wrapper)
        assert (twin.config, twin.machine, twin.params) == (
            config, wrapper.machine, params
        )
        assert twin.env is not wrapper.env
        assert base_pattern(twin.reset()) == 0
        # original undisturbed by the twin's episode
        obs, *_ = wrapper.step(6)
        assert base_pattern(obs) == 6

    def test_base_pattern_across_observation_kinds(self):
        rm = build_gait_rm(Gait.TROT)
        assert base_pattern(9) == 9
        assert base_pattern(CrossProductObservation(9, rm.initial)) == 9
        assert base_pattern((0, 9, 6)) == 6
        assert base_pattern((9, 1, 0, 0, 1)) == 9
        with pytest.raises(TypeError):
            base_pattern("bogus")
