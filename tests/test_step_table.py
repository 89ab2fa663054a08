"""The compiled step tables that ``train`` runs on, checked against the
wrappers they are compiled from over the whole finite reachable space."""

from __future__ import annotations

import pytest

from gaitrm.env import ToyEnvConfig, ToyQuadrupedEnv
from gaitrm.learn import NUM_ACTIONS, LearnerConfig, discretize, step_table, train
from gaitrm.guards import Not, conjunction_for
from gaitrm.machine import (
    Gait,
    RewardMachine,
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
    assert n_states <= 48


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
