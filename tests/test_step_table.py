"""The compiled step tables that ``train`` runs on, checked against the
wrappers they are compiled from over the whole finite reachable space.
The wrappers' own steps are proved against the sources in
``test_product_table.py``."""

from __future__ import annotations

import dataclasses

import pytest

from gaitrm.env import ToyEnvConfig, ToyQuadrupedEnv
from gaitrm.learn import NUM_ACTIONS, LearnerConfig, discretize, step_table, train
from gaitrm.guards import Not, conjunction_for
from gaitrm.machine import (
    Gait,
    RewardMachine,
    RewardParams,
    RmState,
    SwitchPoseBonus,
    Transition,
    Walk,
    build_gait_rm,
    validate,
)
from gaitrm.wrappers import CrossProductWrapper, WrapperKind, make_wrapper
from helpers import train_by_stepping

CONFIGS = {
    "default": ToyEnvConfig(),
    "no_stumble_len7": ToyEnvConfig(stumble_terminates=False, episode_length=7),
}


def make(kind: WrapperKind, gait: Gait, config: ToyEnvConfig):
    return make_wrapper(kind, ToyQuadrupedEnv(config), build_gait_rm(gait))


# (core states, live core states) per config. Every gait kind compiles
# to the cross product's states, since the latch is one bit that mirrors
# the machine state; no_gait keeps the contact states alone. Fallen
# states have no row when a stumble terminates.
CORE_STATES = {
    "default": {"gait": (30, 20), "no_gait": (16, 11)},
    "no_stumble_len7": {"gait": (30, 30), "no_gait": (16, 16)},
}


def real_core(snap: tuple, kind: WrapperKind) -> tuple:
    """Contact pattern, fallen flag and machine state or latch of a
    wrapper snapshot; stack3's frame history is dropped."""
    env_state, *rest = snap
    if kind is WrapperKind.STACK3:
        rest = rest[:-1]
    return (env_state.airborne, env_state.fallen, *rest)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("gait", list(Gait), ids=lambda g: g.value)
@pytest.mark.parametrize("kind", list(WrapperKind), ids=lambda k: k.value)
def test_table_agrees_with_wrapper_step_on_every_reachable_state(kind, gait, config_name):
    config = CONFIGS[config_name]
    wrapper = make(kind, gait, config)
    table = step_table(wrapper)
    assert discretize(wrapper.reset(), kind) == table.initial_key
    assert table.initial_key in range(wrapper.key_space)

    # Breadth-first over the wrapper's own reachable states, each paired
    # with the table state the table says it is in.
    start = real_core(wrapper.snapshot(), kind)
    table_state_of = {start: 0}
    frontier = [(wrapper.snapshot(), 0, table.initial_key, 0)]
    compared = 0
    while frontier:
        snap, state, key, depth = frontier.pop(0)
        for action in range(NUM_ACTIONS):
            wrapper.restore(snap)
            obs, reward, terminated, truncated, _ = wrapper.step(action)
            i = state * NUM_ACTIONS + action
            next_key = table.key[i] + (key >> 4 if table.stacked else 0)
            assert (table.reward[i], table.terminated[i], next_key) == (
                reward, terminated, discretize(obs, kind)
            ), (state, action)
            assert truncated == (depth + 1 >= config.episode_length)
            assert next_key in range(wrapper.key_space)
            compared += 1
            core = real_core(wrapper.snapshot(), kind)
            nxt = table.next_state[i]
            if core in table_state_of:
                assert table_state_of[core] == nxt, (core, action)
            else:
                table_state_of[core] = nxt
                if not terminated:
                    frontier.append((wrapper.snapshot(), nxt, next_key, depth + 1))

    # Distinct cores map to distinct table states, and every table row
    # that can be read belongs to a reachable state.
    assert len(set(table_state_of.values())) == len(table_state_of)
    n_states = len(table.next_state) // NUM_ACTIONS
    live = {s for s in range(n_states) if table.next_state[s * NUM_ACTIONS] is not None}
    assert compared == len(live) * NUM_ACTIONS
    assert live <= set(table_state_of.values())
    gait_kind = "no_gait" if kind is WrapperKind.NO_GAIT else "gait"
    assert (n_states, len(live)) == CORE_STATES[config_name][gait_kind]


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("gait", list(Gait), ids=lambda g: g.value)
def test_naive_table_is_the_cross_product_table(gait, config_name):
    cross = step_table(make(WrapperKind.CROSS_PRODUCT, gait, CONFIGS[config_name]))
    naive = step_table(make(WrapperKind.NAIVE, gait, CONFIGS[config_name]))
    assert naive.next_state == cross.next_state
    assert naive.reward == cross.reward
    assert naive.terminated == cross.terminated
    # Only the keys differ: naive's leave out the machine state.
    assert naive.key == tuple(None if k is None else k % 16 for k in cross.key)
    assert naive.initial_key == cross.initial_key


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("gait", list(Gait), ids=lambda g: g.value)
def test_augmented_table_is_naive_under_the_key_map(gait, config_name):
    naive = step_table(make(WrapperKind.NAIVE, gait, CONFIGS[config_name]))
    augmented = step_table(make(WrapperKind.AUGMENTED, gait, CONFIGS[config_name]))
    # The label bits equal the contact pattern, so key k becomes k + 16k.
    assert augmented == dataclasses.replace(
        naive,
        key=tuple(None if k is None else 17 * k for k in naive.key),
        initial_key=17 * naive.initial_key,
    )


@pytest.mark.parametrize("gait", list(Gait), ids=lambda g: g.value)
def test_augmented_trains_as_naive_with_renamed_keys(gait):
    for seed in (0, 1):
        config = LearnerConfig(total_steps=20_000, seed=seed)
        q_naive, curve_naive = train(make(WrapperKind.NAIVE, gait, ToyEnvConfig()), config)
        q_augmented, curve_augmented = train(
            make(WrapperKind.AUGMENTED, gait, ToyEnvConfig()), config
        )
        assert q_augmented == {17 * k: row for k, row in q_naive.items()}, seed
        assert curve_augmented == curve_naive, seed


def three_state_trot_rm() -> RewardMachine:
    """q0 -A-> q1 -B-> q2 -A-> q0 on the trot poses, self-loops elsewhere."""
    q = tuple(RmState(i, f"q{i}") for i in range(3))
    pose_a = conjunction_for(Gait.TROT.pose_a)
    pose_b = conjunction_for(Gait.TROT.pose_b)
    edges = ((q[0], q[1], pose_a), (q[1], q[2], pose_b), (q[2], q[0], pose_a))
    transitions = []
    for src, dst, guard in edges:
        transitions.append(Transition(src, guard, dst, SwitchPoseBonus(10.0)))
        transitions.append(Transition(src, Not(guard), src, Walk()))
    return RewardMachine(q, q[0], frozenset(), tuple(transitions))


def test_cross_product_key_space_counts_machine_states():
    rm = three_state_trot_rm()
    assert validate(rm).valid
    wrapper = CrossProductWrapper(ToyQuadrupedEnv(), rm)
    assert wrapper.key_space == 48
    keys = {wrapper.key(wrapper.reset())}
    frontier = [wrapper.snapshot()]
    seen = {frontier[0]}
    while frontier:
        snap = frontier.pop()
        for action in range(NUM_ACTIONS):
            wrapper.restore(snap)
            obs, _, terminated, _, _ = wrapper.step(action)
            keys.add(wrapper.key(obs))
            core = wrapper.snapshot()
            core = (core[0]._replace(base_x=0.0, step_count=0), core[1])
            if not terminated and core not in seen:
                seen.add(core)
                frontier.append(core)
    assert keys <= set(range(48))
    assert max(keys) >= 32  # the third machine state is reached


def test_stack3_key_recurrence_equals_discretize_over_all_triples():
    kind = WrapperKind.STACK3
    for a in range(16):
        for b in range(16):
            for c in range(16):
                key = discretize((a, b, c), kind)
                for code in range(16):
                    assert (key >> 4) + 256 * code == discretize((b, c, code), kind)


def test_tables_are_cached_per_configuration():
    rm = build_gait_rm(Gait.PACE)
    config = ToyEnvConfig(episode_length=13)
    naive = make_wrapper("naive", ToyQuadrupedEnv(config), rm)
    stack3 = make_wrapper("stack3", ToyQuadrupedEnv(config), rm)
    other = make_wrapper("naive", ToyQuadrupedEnv(ToyEnvConfig(stumble_terminates=False)), rm)
    assert step_table(naive) is step_table(naive.clone())
    assert step_table(naive) is not step_table(stack3)
    assert step_table(naive) is not step_table(other)


def test_step_tables_keep_number_types():
    """An int-valued config equals its float twin, but under an int
    energy weight its rewards are ints; each must get its own table."""
    rm, params = build_gait_rm(Gait.TROT), RewardParams(w_e=1)
    twins = (
        ToyEnvConfig(lift_height=1, clearance=1, stride_gain=1, lift_power_cost=2),
        ToyEnvConfig(lift_height=1.0, clearance=1.0, stride_gain=1.0, lift_power_cost=2.0),
    )
    assert twins[0] == twins[1]
    rewards = [
        repr(step_table(make_wrapper("naive", ToyQuadrupedEnv(c), rm, params)).reward)
        for c in twins
    ]
    assert "-1," in rewards[0] and "-1.0," in rewards[1]


# The learner configs ``train`` must match the reference on: one full
# evaluation, then the schedule's boundary cases.
LEARNERS = (
    LearnerConfig(total_steps=3000, eval_every=3000, seed=5),
    # eval_every does not divide total_steps
    LearnerConfig(total_steps=2500, eval_every=1000, seed=5),
    # total_steps smaller than eval_every
    LearnerConfig(total_steps=700, eval_every=1000, seed=5),
    # epsilon horizon 1000.5 is not an integer
    LearnerConfig(total_steps=2001, eval_every=500, epsilon_fraction=0.5, seed=5),
    # horizon 1.5: epsilon is 0.37 at step 1 and 0.05 from step 2 on
    LearnerConfig(total_steps=2000, eval_every=500, epsilon_fraction=0.00075, seed=5),
    LearnerConfig(total_steps=2000, eval_every=500, epsilon_fraction=1.0, seed=5),
    LearnerConfig(
        total_steps=2000, eval_every=500, epsilon_start=0.2, epsilon_end=0.2, seed=5
    ),
)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("kind", list(WrapperKind), ids=lambda k: k.value)
def test_train_matches_stepping_the_wrapper(kind, config_name):
    for config in LEARNERS:
        wrapper = make(kind, Gait.TROT, CONFIGS[config_name])
        assert train(wrapper.clone(), config) == train_by_stepping(wrapper, config), config
