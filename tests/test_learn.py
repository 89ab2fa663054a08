"""Tests for tabular Q-learning, discretization and the evaluation
protocol with its pose-transition count."""

import gc
import math
import random
import sys
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gaitrm.learn as learn
from gaitrm.env import ToyEnvConfig, ToyQuadrupedEnv
from gaitrm.guards import ALL_LABEL_SETS, LabelSet, Prop
from gaitrm.machine import Gait, build_gait_rm, machine_from_document
from gaitrm.learn import (
    NUM_ACTIONS,
    EvalMetrics,
    LearnerConfig,
    ReferenceGaitPolicy,
    as_policy_fn,
    discretize,
    epsilon_schedule,
    evaluate,
    greedy_action,
    q_update,
    rollout,
    train,
)
from gaitrm.wrappers import (
    AugmentedWrapper,
    CrossProductObservation,
    CrossProductWrapper,
    NaiveWrapper,
    NoGaitWrapper,
    Stack3Wrapper,
    WrapperKind,
    make_wrapper,
)
from helpers import deepest_trot_document, epsilon_closed_form, train_by_stepping

TROT_A = LabelSet.of(Prop.FL, Prop.BR)
TROT_B = LabelSet.of(Prop.FR, Prop.BL)


class TestQUpdate:
    def test_terminal_update_from_zero(self):
        q = {}
        q_update(q, key=0, action=3, reward=1.0, next_key=1, done=True,
                 config=LearnerConfig())
        assert q[0][3] == pytest.approx(0.1)

    def test_zero_reward_zero_next_leaves_zero(self):
        q = {}
        q_update(q, key=0, action=3, reward=0.0, next_key=1, done=False,
                 config=LearnerConfig())
        assert q[0][3] == 0.0

    def test_bootstraps_from_next_max(self):
        config = LearnerConfig()
        q = {1: [0.0] * 16}
        q[1][7] = 2.0
        q_update(q, key=0, action=0, reward=0.5, next_key=1, done=False, config=config)
        assert q[0][0] == pytest.approx(0.1 * (0.5 + 0.99 * 2.0))


class TestChainConvergence:
    """Q-learning by exhaustive sweeps on a tiny deterministic chain
    must match exact value iteration."""

    # states 0, 1, 2; action 0 advances, action 1 stays; reaching state 2
    # pays 1 and terminates.
    @staticmethod
    def chain_step(state, action):
        if action == 0:
            nxt = state + 1
            reward = 1.0 if nxt == 2 else 0.0
            return nxt, reward, nxt == 2
        return state, 0.0, False

    def value_iteration(self, gamma, tol=1e-14):
        values = [0.0, 0.0, 0.0]
        while True:
            new = [0.0, 0.0, 0.0]
            for state in (0, 1):
                best = float("-inf")
                for action in (0, 1):
                    nxt, reward, done = self.chain_step(state, action)
                    best = max(best, reward + (0.0 if done else gamma * values[nxt]))
                new[state] = best
            if max(abs(a - b) for a, b in zip(new, values)) < tol:
                return new
            values = new

    def test_sweeps_match_value_iteration(self):
        config = LearnerConfig(alpha=0.5, gamma=0.99)
        q = {}
        for _ in range(2000):
            for state in (0, 1):
                for action in (0, 1):
                    nxt, reward, done = self.chain_step(state, action)
                    q_update(q, state, action, reward, nxt, done, config)
        optimal = self.value_iteration(config.gamma)
        for state in (0, 1):
            assert max(q[state][a] for a in (0, 1)) == pytest.approx(
                optimal[state], abs=1e-6
            )
        # state 1 is one step from the payoff, state 0 is two
        assert optimal[1] == pytest.approx(1.0)
        assert optimal[0] == pytest.approx(0.99)


def schedule(config, n):
    """The first ``n`` epsilons of ``config``'s schedule."""
    return list(islice(epsilon_schedule(config), n))


class TestEpsilonSchedule:
    def test_linear_to_floor(self):
        config = LearnerConfig(total_steps=1000)
        eps = schedule(config, 1000)
        assert eps[0] == 1.0
        assert eps[250] == pytest.approx(0.525)
        assert eps[500] == pytest.approx(0.05)
        assert eps[999] == pytest.approx(0.05)

    def test_zero_total_steps(self):
        config = LearnerConfig(total_steps=0)
        assert schedule(config, 1) == [0.05]

    def test_valid_range_everywhere(self):
        config = LearnerConfig(total_steps=777)
        assert all(0.0 <= eps <= 1.0 for eps in schedule(config, 777))

    @pytest.mark.parametrize(
        "config",
        [
            LearnerConfig(),
            LearnerConfig(total_steps=2_001, epsilon_fraction=0.5),
            # Horizon 3.0000000000000004: four decaying steps, not three.
            LearnerConfig(total_steps=10, epsilon_fraction=0.3),
            LearnerConfig(total_steps=1_000, epsilon_fraction=1.0),
            LearnerConfig(total_steps=1_000, epsilon_start=0.3, epsilon_end=0.3),
            LearnerConfig(total_steps=1_000, epsilon_start=0.1, epsilon_end=0.7),
            LearnerConfig(total_steps=0),
        ],
        ids=["default", "2001x0.5", "10x0.3", "fraction1", "flat", "rising", "zero"],
    )
    def test_matches_the_closed_form_exactly(self, config):
        n = config.total_steps + 3
        assert schedule(config, n) == [epsilon_closed_form(config, t) for t in range(n)]


def test_exploring_draw_is_randrange():
    """``train`` draws an exploring action as ``getrandbits(5)`` retried
    while it is 16 or more. That is the algorithm CPython's
    ``Random.randrange(16)`` runs (``_randbelow_with_getrandbits`` with
    ``k = (16).bit_length()``), so the random stream is unchanged; this
    test pins that algorithm."""
    config = LearnerConfig(total_steps=100_000)
    for seed in (0, 1, 7, 2**31 - 1):
        eps = epsilon_schedule(config)
        rng_bits, rng_range = random.Random(seed), random.Random(seed)
        by_bits, by_range = [], []
        for e in islice(eps, config.total_steps):
            if rng_bits.random() < e:
                action = rng_bits.getrandbits(5)
                while action >= NUM_ACTIONS:
                    action = rng_bits.getrandbits(5)
                by_bits.append(action)
            else:
                by_bits.append(None)
            by_range.append(
                rng_range.randrange(NUM_ACTIONS) if rng_range.random() < e else None
            )
        assert by_bits == by_range
        assert rng_bits.random() == rng_range.random()


class TestGreedy:
    def test_lowest_index_tie_break(self):
        q = {0: [1.0, 1.0, 0.5] + [0.0] * 13}
        assert greedy_action(q, 0) == 0

    def test_unseen_key_acts_on_zero_row(self):
        assert greedy_action({}, 42) == 0

    def test_picks_best(self):
        row = [0.0] * 16
        row[11] = 3.0
        assert greedy_action({5: row}, 5) == 11


def greedy_by_scan(q, key):
    """The scan that defines ``greedy_action``: start at action 0 and
    move to a later action only when its value is ``>`` the best so far."""
    row = q.get(key)
    if row is None:
        return 0
    best = 0
    best_value = row[0]
    for a in range(1, NUM_ACTIONS):
        if row[a] > best_value:
            best = a
            best_value = row[a]
    return best


# Few distinct values so that rows are full of ties; NaN appears both as
# one shared object and as fresh objects.
Q_VALUES = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]
) | st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=300)
@given(st.lists(Q_VALUES, min_size=NUM_ACTIONS, max_size=NUM_ACTIONS))
def test_greedy_action_matches_the_scan(row):
    assert greedy_action({7: row}, 7) == greedy_by_scan({7: row}, 7)


@pytest.mark.parametrize(
    "row",
    [
        [-0.0, 0.0] + [-1.0] * 14,
        [0.0, -0.0] + [-1.0] * 14,
        [math.nan, 1.0] + [0.0] * 14,
        [1.0, math.nan, 2.0] + [0.0] * 13,
        [-math.inf] * 15 + [math.inf],
        [math.inf, 0.0, math.inf] + [0.0] * 13,
    ],
)
def test_greedy_action_edge_rows_match_the_scan(row):
    assert greedy_action({0: row}, 0) == greedy_by_scan({0: row}, 0)


class TestRecords:
    """The per-step records are immutable and print as they always have."""

    @staticmethod
    def records():
        rm = build_gait_rm(Gait.TROT)
        wrapper = CrossProductWrapper(rm=rm)
        wrapper.reset()
        obs, _, _, _, info = wrapper.step(9)
        run = rollout(ReferenceGaitPolicy(Gait.TROT), CrossProductWrapper(rm=rm))
        return {
            "CrossProductObservation": obs,
            "StepInfo": info,
            "ToyEnvState": wrapper.env.state,
            "RolloutStep": run.steps[1],
        }

    PINNED_REPRS = {
        "CrossProductObservation": (
            "CrossProductObservation(base=9, rm_state=RmState(index=1, name='q1'))"
        ),
        "StepInfo": (
            "StepInfo(delta_x=0.05, power=10.0, foot_heights=(0.1, 0.0, 0.0, 0.1), "
            "terminated=False, truncated=False, torques=None, joint_velocities=None)"
        ),
        "ToyEnvState": (
            "ToyEnvState(airborne=LabelSet(code=9), foot_heights=(0.1, 0.0, 0.0, 0.1), "
            "base_x=0.05, fallen=False, step_count=1)"
        ),
        "RolloutStep": (
            "RolloutStep(index=2, action=9, foot_heights=(0.1, 0.0, 0.0, 0.1), "
            "label_bits=(1, 0, 0, 1), delta_x=0.05, power=10.0, "
            "reward=499.58374957879977, rm_state='q1', transition=True, "
            "terminated=False, truncated=False)"
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_REPRS))
    def test_repr_is_pinned(self, name):
        assert repr(self.records()[name]) == self.PINNED_REPRS[name]

    @pytest.mark.parametrize("name", sorted(PINNED_REPRS))
    def test_fields_cannot_be_assigned(self, name):
        record = self.records()[name]
        hash(record)
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))


class TestDiscretize:
    def test_cross_product_injective_across_rm_states(self):
        rm = build_gait_rm(Gait.TROT)
        q0, q1 = rm.states
        key_a = discretize(CrossProductObservation(9, q0), WrapperKind.CROSS_PRODUCT)
        key_b = discretize(CrossProductObservation(9, q1), WrapperKind.CROSS_PRODUCT)
        assert key_a != key_b
        assert {key_a, key_b} <= set(range(CrossProductWrapper(rm=rm).key_space))

    def test_naive_same_pattern_same_key(self):
        assert discretize(9, WrapperKind.NAIVE) == discretize(9, WrapperKind.NAIVE)

    def test_stack3_bound_and_injectivity(self):
        assert Stack3Wrapper.key_space == 4096
        seen = set()
        for a in range(16):
            for b in range(16):
                for c in range(16):
                    key = discretize((a, b, c), WrapperKind.STACK3)
                    assert 0 <= key < 4096
                    seen.add(key)
        assert len(seen) == 4096

    def test_augmented_bound(self):
        key = discretize((9, 1, 0, 0, 1), WrapperKind.AUGMENTED)
        assert 0 <= key < AugmentedWrapper.key_space == 256


class TestEvaluateProtocol:
    def test_defaults_ten_episodes_of_episode_length(self):
        rm = build_gait_rm(Gait.TROT)
        wrapper = NaiveWrapper(rm=rm)
        metrics = evaluate(ReferenceGaitPolicy(Gait.TROT), wrapper)
        assert metrics.episodes == 10
        assert wrapper.config.episode_length == 100

    def test_reference_trot_closed_form(self):
        rm = build_gait_rm(Gait.TROT)
        wrapper = NaiveWrapper(rm=rm)
        metrics = evaluate(ReferenceGaitPolicy(Gait.TROT), wrapper)
        assert metrics.mean_pose_transitions == 99.0
        assert metrics.mean_distance == pytest.approx(99 * 0.05, abs=1e-12)

    @pytest.mark.parametrize("gait", list(Gait))
    def test_reference_closed_form_all_gaits(self, gait):
        rm = build_gait_rm(gait)
        wrapper = NaiveWrapper(rm=rm)
        metrics = evaluate(ReferenceGaitPolicy(gait), wrapper)
        assert metrics.mean_pose_transitions == 99.0
        assert metrics.mean_distance == pytest.approx(4.95, abs=1e-12)

    def test_stand_still_policy_scores_zero(self):
        rm = build_gait_rm(Gait.TROT)
        wrapper = NaiveWrapper(rm=rm)
        metrics = evaluate({}, wrapper)  # empty table: greedy picks action 0
        assert metrics.mean_pose_transitions == 0.0
        assert metrics.mean_distance == 0.0

    def test_pace_policy_never_satisfies_trot_tracker(self):
        trot = build_gait_rm(Gait.TROT)
        wrapper = NaiveWrapper(rm=trot)
        metrics = evaluate(ReferenceGaitPolicy(Gait.PACE), wrapper, tracker_rm=trot)
        assert metrics.mean_pose_transitions == 0.0
        assert metrics.mean_distance > 0.0

    def test_tracker_is_policy_and_wrapper_independent(self):
        rm = build_gait_rm(Gait.TROT)
        policy = ReferenceGaitPolicy(Gait.TROT)
        counts = []
        for wrapper in (
            CrossProductWrapper(rm=rm),
            NaiveWrapper(rm=rm),
            NoGaitWrapper(),
        ):
            run = rollout(policy, wrapper, tracker_rm=rm)
            counts.append(run.pose_transitions)
        assert counts == [99, 99, 99]

    def test_rollout_rm_column_matches_wrapper_state(self):
        rm = build_gait_rm(Gait.TROT)
        wrapper = CrossProductWrapper(rm=rm)
        # Track the wrapper's internal machine state alongside the
        # passive tracker by replaying the same policy.
        run = rollout(ReferenceGaitPolicy(Gait.TROT), wrapper, tracker_rm=rm)
        twin = CrossProductWrapper(rm=rm)
        obs = twin.reset()
        policy = ReferenceGaitPolicy(Gait.TROT)
        for step_row in run.steps:
            obs, *_ = twin.step(policy(obs, step_row.index - 1))
            assert obs.rm_state.name == step_row.rm_state

    def test_no_machine_reports_zero_transitions(self):
        wrapper = NoGaitWrapper()
        metrics = evaluate(ReferenceGaitPolicy(Gait.TROT), wrapper)
        assert metrics.mean_pose_transitions == 0.0
        assert metrics.mean_distance > 0.0

    def test_episode_count_respected(self):
        rm = build_gait_rm(Gait.TROT)
        metrics = evaluate(ReferenceGaitPolicy(Gait.TROT), NaiveWrapper(rm=rm), episodes=3)
        assert metrics.episodes == 3

    def test_greedy_actions_are_not_kept_between_evaluations(self):
        wrapper = CrossProductWrapper(rm=build_gait_rm(Gait.TROT))
        initial_key = discretize(wrapper.reset(), WrapperKind.CROSS_PRODUCT)
        q = {initial_key: [0.0] * 16}
        before = evaluate(q, wrapper, episodes=2)
        q[initial_key][TROT_A.code] = 1.0
        after = evaluate(q, wrapper, episodes=2)
        assert before.mean_pose_transitions == 0.0
        assert after.mean_pose_transitions == 1.0
        assert after == evaluate(q, wrapper.clone(), episodes=2)

    @pytest.mark.parametrize("kind", list(WrapperKind), ids=lambda k: k.value)
    def test_evaluate_is_the_mean_of_separate_rollouts(self, kind):
        rm = build_gait_rm(Gait.PACE)
        config = LearnerConfig(total_steps=4000, eval_every=4000, seed=3)
        q, _ = train(make_wrapper(kind, rm=rm), config, tracker_rm=rm)
        wrapper = make_wrapper(kind, rm=rm)
        n = 3
        runs = [rollout(q, wrapper, tracker_rm=rm) for _ in range(n)]
        expected = EvalMetrics(
            mean_return=sum(r.total_reward for r in runs) / n,
            mean_pose_transitions=sum(r.pose_transitions for r in runs) / n,
            mean_distance=sum(r.distance for r in runs) / n,
            episodes=n,
        )
        assert evaluate(q, wrapper, tracker_rm=rm, episodes=n) == expected


class TestTrain:
    def test_zero_steps_empty_outputs(self):
        rm = build_gait_rm(Gait.TROT)
        wrapper = NaiveWrapper(rm=rm)
        q, curve = train(wrapper, LearnerConfig(total_steps=0), tracker_rm=rm)
        assert q == {}
        assert curve == []
        assert greedy_action(q, 0) == 0

    def test_reproducibility_bit_identical(self):
        rm = build_gait_rm(Gait.TROT)
        config = LearnerConfig(total_steps=6000, eval_every=2000, seed=17)
        runs = []
        for _ in range(2):
            wrapper = CrossProductWrapper(ToyQuadrupedEnv(), rm)
            runs.append(train(wrapper, config, tracker_rm=rm))
        (q_a, curve_a), (q_b, curve_b) = runs
        assert q_a == q_b
        assert curve_a == curve_b

    def test_different_seeds_differ(self):
        rm = build_gait_rm(Gait.TROT)
        tables = []
        for seed in (0, 1):
            wrapper = NaiveWrapper(ToyQuadrupedEnv(), rm)
            q, _ = train(
                wrapper, LearnerConfig(total_steps=2000, eval_every=1000, seed=seed),
                tracker_rm=rm,
            )
            tables.append(q)
        assert tables[0] != tables[1]

    def test_curve_grid_and_final_point(self):
        rm = build_gait_rm(Gait.TROT)
        wrapper = NaiveWrapper(ToyQuadrupedEnv(), rm)
        q, curve = train(
            wrapper, LearnerConfig(total_steps=5500, eval_every=2000), tracker_rm=rm
        )
        assert [step for step, _ in curve] == [2000, 4000, 5500]
        assert all(isinstance(m, EvalMetrics) for _, m in curve)

    @staticmethod
    def record_stepping_rollouts(monkeypatch, wrapper_cls):
        """Patch ``learn.rollout`` to append, per call, the number of
        learner updates so far and whether the call stepped a wrapper.
        Compile the wrapper's step table before training, so that only
        evaluation steps are counted."""
        calls: list[tuple[int, bool]] = []
        updates = steps = 0
        wrapper_step = wrapper_cls.step

        def counting_update(*args):
            nonlocal updates
            updates += 1
            return q_update(*args)

        def counting_step(self, action):
            nonlocal steps
            steps += 1
            return wrapper_step(self, action)

        def recording_rollout(*args, **kwargs):
            before = steps
            run = rollout(*args, **kwargs)
            calls.append((updates, steps > before))
            return run

        monkeypatch.setattr(learn, "q_update", counting_update)
        monkeypatch.setattr(wrapper_cls, "step", counting_step)
        monkeypatch.setattr(learn, "rollout", recording_rollout)
        return calls

    def test_unchanged_greedy_policy_reuses_its_evaluation(self, monkeypatch):
        rm = build_gait_rm(Gait.TROT)
        config = LearnerConfig(total_steps=20_000, eval_every=1_000)
        wrapper = CrossProductWrapper(ToyQuadrupedEnv(), rm)
        learn.step_table(wrapper)
        calls = self.record_stepping_rollouts(monkeypatch, CrossProductWrapper)
        q, curve = train(wrapper, config)
        monkeypatch.undo()
        stepped = [s for _, s in calls]
        assert len(stepped) == len(curve) * config.eval_episodes
        # Only an evaluation's first episode can step, and the first
        # evaluation's does.
        assert stepped[0]
        assert not any(s for i, s in enumerate(stepped) if i % config.eval_episodes)
        assert sum(stepped) < len(curve)
        assert (q, curve) == train_by_stepping(
            CrossProductWrapper(ToyQuadrupedEnv(), rm), config
        )

    def test_reuse_reads_only_the_keys_evaluation_visited(self, monkeypatch):
        rm = build_gait_rm(Gait.TROT)
        config = LearnerConfig(total_steps=20_000, eval_every=1_000)
        wrapper = Stack3Wrapper(ToyQuadrupedEnv(), rm)
        learn.step_table(wrapper)
        calls = self.record_stepping_rollouts(monkeypatch, Stack3Wrapper)
        q, curve = train(wrapper, config)
        monkeypatch.undo()
        greedy_maps = []
        assert (q, curve) == train_by_stepping(
            Stack3Wrapper(ToyQuadrupedEnv(), rm), config, greedy_maps
        )
        # Every learner step makes one update, so the count at a rollout
        # is the step number of its evaluation point.
        stepped_at = {updates for updates, stepped in calls if stepped}
        points = [step for step, _ in curve]
        assert len(stepped_at) < len(points)
        # A reused point whose full greedy map differs from the last
        # stepped point's: a whole-table rule would have stepped it.
        reused_past_a_change = 0
        last = None
        for point, greedy_map in zip(points, greedy_maps):
            if point in stepped_at:
                last = greedy_map
            elif greedy_map != last:
                reused_past_a_change += 1
        assert reused_past_a_change >= 1

    def test_cross_product_learns_the_gait_quickly(self):
        rm = build_gait_rm(Gait.TROT)
        wrapper = CrossProductWrapper(ToyQuadrupedEnv(), rm)
        config = LearnerConfig(total_steps=15_000, eval_every=5_000, seed=0)
        _, curve = train(wrapper, config, tracker_rm=rm)
        final = curve[-1][1]
        assert final.mean_pose_transitions >= 90.0
        assert final.mean_distance >= 4.5

    @pytest.mark.parametrize("wrapper_cls", [CrossProductWrapper, NaiveWrapper])
    def test_guards_at_the_depth_limit_train_like_the_builtin(self, wrapper_cls):
        deep, _ = machine_from_document(deepest_trot_document())
        trot = build_gait_rm(Gait.TROT)
        hash(deep)
        assert deep != trot
        config = LearnerConfig(total_steps=2000, eval_every=1000, seed=3)
        runs = [
            train(wrapper_cls(ToyQuadrupedEnv(), rm), config, tracker_rm=rm)
            for rm in (deep, trot)
        ]
        assert runs[0] == runs[1]

    def test_no_gait_learns_positive_distance(self):
        wrapper = NoGaitWrapper(ToyQuadrupedEnv())
        config = LearnerConfig(total_steps=15_000, eval_every=5_000, seed=0)
        _, curve = train(wrapper, config)
        assert curve[-1][1].mean_distance > 0.0


@st.composite
def learners(draw):
    """Small learner configs with at most about ten evaluation points,
    since the reference evaluates afresh at every one."""
    total_steps = draw(st.integers(0, 1_500))
    return LearnerConfig(
        alpha=draw(st.sampled_from([0.1, 0.5, 1.0])),
        epsilon_start=draw(st.floats(0.0, 1.0)),
        epsilon_end=draw(st.floats(0.0, 1.0)),
        epsilon_fraction=draw(st.floats(0.01, 1.0)),
        total_steps=total_steps,
        eval_every=draw(st.integers(max(1, total_steps // 8), 1_000)),
        eval_episodes=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=30, deadline=None)
@given(config=learners(), gait=st.sampled_from(list(Gait)))
# Non-integer horizon (3.0000000000000004), eval_every not dividing
# total_steps, and epsilon rising.
@example(LearnerConfig(total_steps=10, epsilon_fraction=0.3, eval_every=3), Gait.TROT)
@example(
    LearnerConfig(total_steps=1_001, epsilon_start=0.1, epsilon_end=0.9, eval_every=300),
    Gait.PACE,
)
def test_train_matches_stepping_on_random_configs(config, gait):
    rm = build_gait_rm(gait)
    for kind in WrapperKind:
        assert train(make_wrapper(kind, rm=rm), config) == train_by_stepping(
            make_wrapper(kind, rm=rm), config
        )


def scripted(codes):
    """A policy that commands ``codes`` in order, one per step."""
    return lambda obs, t: codes[t]


class TestTracker:
    """The pose-transition count that ``rollout`` keeps on the tracked
    machine, whatever the wrapper."""

    def test_counts_alternations_only(self):
        codes = (0, TROT_A.code, TROT_A.code, TROT_B.code, 5, TROT_A.code)
        wrapper = NoGaitWrapper(ToyQuadrupedEnv(ToyEnvConfig(episode_length=6)))
        run = rollout(scripted(codes), wrapper, tracker_rm=build_gait_rm(Gait.TROT))
        assert [s.label_bits for s in run.steps] == [
            ALL_LABEL_SETS[c].bits() for c in codes
        ]
        assert run.pose_transitions == 3  # A, then B, then A again
        assert [s.transition for s in run.steps] == [
            False, True, False, True, False, True
        ]
        assert [s.rm_state for s in run.steps] == ["q0", "q1", "q1", "q0", "q0", "q1"]

    def test_reset_restores_initial(self):
        rm = build_gait_rm(Gait.TROT)
        wrapper = NaiveWrapper(ToyQuadrupedEnv(ToyEnvConfig(episode_length=1)), rm)
        for _ in range(2):
            # Each rollout starts at q0, so pose A moves it to q1 again.
            run = rollout(scripted((TROT_A.code,)), wrapper)
            assert [(s.rm_state, s.transition) for s in run.steps] == [("q1", True)]
            assert run.pose_transitions == 1


POSE_CODES = sorted({pose.code for g in Gait for pose in (g.pose_a, g.pose_b)})


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(list(WrapperKind)),
    gait=st.sampled_from(list(Gait)),
    data=st.data(),
)
def test_rollouts_of_one_wrapper_match_fresh_clones(kind, gait, data):
    """Rounds of one operation on a wrapper (set a Q row, switch the
    tracker, roll out a stateful callable, or nothing), each followed by
    a Q-table rollout: every such rollout, and the wrapper's state after
    it, equal a rollout on a fresh clone, and the callable is called at
    every step of every rollout."""
    rm = build_gait_rm(gait)
    others = [g for g in Gait if g is not gait]
    other = build_gait_rm(data.draw(st.sampled_from(others)))
    wrapper = make_wrapper(kind, rm=rm)
    q: dict = {}
    tracker = None
    visited = [discretize(wrapper.reset(), kind)]
    ops = st.sampled_from(["row", "tracker", "callable", "none"])
    for op in data.draw(st.lists(ops, min_size=4, max_size=20)):
        if op == "row":
            keys = st.sampled_from(visited) | st.integers(0, wrapper.key_space - 1)
            key = data.draw(keys)
            # Ties and signed zeros, and mostly a peak at a gait pose so
            # that the path walks poses on which trackers disagree.
            values = st.sampled_from([0.0, -0.0, 0.5, -1.0])
            row = data.draw(st.lists(values, min_size=16, max_size=16))
            peak = data.draw(st.sampled_from([None, *POSE_CODES]))
            if peak is not None:
                row[peak] = 1.0
            q[key] = row
        elif op == "tracker":
            switches = [t for t in (rm, other, None) if t is not tracker]
            tracker = data.draw(st.sampled_from(switches))
        elif op == "callable":
            actions = st.integers(0, NUM_ACTIONS - 1)
            codes = data.draw(st.lists(actions, min_size=1, max_size=4))
            calls = []

            def cycling(obs, t):
                calls.append(t)
                return codes[len(calls) % len(codes)]

            run = rollout(cycling, wrapper, tracker_rm=tracker)
            assert calls == list(range(len(run.steps)))
        run = rollout(q, wrapper, tracker_rm=tracker)
        fresh = wrapper.clone()
        reference = as_policy_fn(q, kind)
        assert run == rollout(reference, fresh, tracker_rm=tracker)
        assert wrapper.snapshot() == fresh.snapshot()
        visited = sorted(reference.chosen)


def test_a_wrappers_cached_rollout_dies_with_it():
    wrapper = NaiveWrapper(rm=build_gait_rm(Gait.PACE))
    run = rollout({}, wrapper)
    assert rollout({}, wrapper) is run
    # ``Rollout`` has slots and no weakref slot, so count references:
    # the cache entry holds one until its wrapper is collected.
    held = sys.getrefcount(run)
    del wrapper
    gc.collect()
    assert sys.getrefcount(run) == held - 1


class TestLearnerConfig:
    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0},
        {"alpha": 1.5},
        {"gamma": 1.0},
        {"epsilon_start": 1.5},
        {"epsilon_fraction": 0.0},
        {"total_steps": -1},
        {"eval_every": 0},
        {"eval_episodes": 0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LearnerConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"total_steps": 1000.0},
        {"eval_every": True},
        {"seed": "3"},
        {"alpha": False},
    ])
    def test_mistyped_rejected(self, kwargs):
        with pytest.raises(TypeError):
            LearnerConfig(**kwargs)

    def test_defaults(self):
        config = LearnerConfig()
        assert config.alpha == 0.1
        assert config.gamma == 0.99
        assert config.total_steps == 200_000
        assert config.eval_every == 5_000
        assert config.eval_episodes == 10
