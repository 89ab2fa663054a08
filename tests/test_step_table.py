"""The structure of the product table that the wrappers step on and
``train`` indexes: its reachable cursors, its keys, which tables equal
which under a key map, and when two wrappers share one. Its steps are
proved against the sources in ``test_product_table.py``; here ``train``
is checked against stepping the wrapper."""

from __future__ import annotations

import pytest

from gaitrm.env import ToyEnvConfig, ToyQuadrupedEnv
from gaitrm.learn import NUM_ACTIONS, LearnerConfig, discretize, train
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
from gaitrm.wrappers import (
    CrossProductWrapper,
    WrapperKind,
    _product_table,
    make_wrapper,
)
from helpers import train_by_stepping

CONFIGS = {
    "default": ToyEnvConfig(),
    "no_stumble_len7": ToyEnvConfig(stumble_terminates=False, episode_length=7),
}


def make(kind: WrapperKind, gait: Gait, config: ToyEnvConfig):
    return make_wrapper(kind, ToyQuadrupedEnv(config), build_gait_rm(gait))


# (reachable cursors, live cursors) from reset per config: every cursor a
# step enters, and the reset cursor plus those a non-terminating step
# enters. Every gait kind has the cross product's, since the latch is
# one bit that mirrors the machine state; no_gait keeps the contact
# patterns alone.
CURSORS = {
    "default": {"gait": (30, 20), "no_gait": (16, 11)},
    "no_stumble_len7": {"gait": (30, 30), "no_gait": (16, 16)},
}


def reachable_cursors(wrapper) -> tuple[set[int], set[int]]:
    """Walk the wrapper's product table from its reset cursor."""
    wrapper.reset()
    live = [wrapper.cursor]
    reached = set(live)
    for cursor in live:
        for action in range(NUM_ACTIONS):
            nxt, _, _, terminated, _ = wrapper.table[cursor << 4 | action]
            reached.add(nxt)
            if not terminated and nxt not in live:
                live.append(nxt)
    return reached, set(live)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("gait", list(Gait), ids=lambda g: g.value)
@pytest.mark.parametrize("kind", list(WrapperKind), ids=lambda k: k.value)
def test_reachable_and_live_cursors(kind, gait, config_name):
    reached, live = reachable_cursors(make(kind, gait, CONFIGS[config_name]))
    gait_kind = "no_gait" if kind is WrapperKind.NO_GAIT else "gait"
    assert (len(reached), len(live)) == CURSORS[config_name][gait_kind]


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("kind", list(WrapperKind), ids=lambda k: k.value)
def test_every_entry_holds_its_observations_key(kind, config_name):
    """Every entry, reachable or not, keys its observation as the class
    does; a stack3 entry holds the newest frame, keyed as (0, 0, frame)."""
    stacked = kind is WrapperKind.STACK3
    for gait in Gait:
        wrapper = make(kind, gait, CONFIGS[config_name])
        assert len(wrapper.table) == wrapper._levels * 16 * NUM_ACTIONS
        for entry in wrapper.table:
            _, obs, _, _, key = entry
            assert key == wrapper.key((0, 0, obs) if stacked else obs), entry
            assert key in range(wrapper.key_space), entry


def without_obs_and_key(table) -> list[tuple]:
    return [(cursor, reward, terminated) for cursor, _, reward, terminated, _ in table]


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("gait", list(Gait), ids=lambda g: g.value)
def test_naive_table_is_the_cross_product_table(gait, config_name):
    cross = make(WrapperKind.CROSS_PRODUCT, gait, CONFIGS[config_name])
    naive = make(WrapperKind.NAIVE, gait, CONFIGS[config_name])
    assert without_obs_and_key(naive.table) == without_obs_and_key(cross.table)
    # Only the keys differ: naive's leave out the machine state.
    assert [e[4] for e in naive.table] == [e[4] % 16 for e in cross.table]
    cross.reset()
    naive.reset()
    assert naive.cursor == cross.cursor


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("gait", list(Gait), ids=lambda g: g.value)
def test_augmented_table_is_naive_under_the_key_map(gait, config_name):
    naive = make(WrapperKind.NAIVE, gait, CONFIGS[config_name])
    augmented = make(WrapperKind.AUGMENTED, gait, CONFIGS[config_name])
    # The label bits equal the contact pattern, so key k becomes k + 16k.
    assert without_obs_and_key(augmented.table) == without_obs_and_key(naive.table)
    assert [e[4] for e in augmented.table] == [17 * e[4] for e in naive.table]
    assert augmented.key(augmented.reset()) == 17 * naive.key(naive.reset())


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


def test_tables_are_shared_by_what_their_entries_read():
    """The table memo keys on the wrapper class, the machine, ``w_e`` and
    the config fields a step reads, and on nothing else. ``clearance`` is
    not one: a step's labels are its outcome's airborne set. Nor is
    ``lift_height``: it sets only foot heights, which no entry reads."""
    rm = build_gait_rm(Gait.PACE)

    def wrapper(kind="naive", params=None, **fields):
        return make_wrapper(kind, ToyQuadrupedEnv(ToyEnvConfig(**fields)), rm, params)

    def table(*args, **kwargs):
        return wrapper(*args, **kwargs).table

    naive = table(episode_length=13)
    assert naive is wrapper(episode_length=13).clone().table
    assert naive is table()
    assert naive is table(episode_length=50, rng_seed=7)
    assert naive is table(params=RewardParams(gamma=0.5, bonus_b=1.0))
    assert naive is not table("stack3", episode_length=13)
    assert naive is not table(stumble_terminates=False)
    assert naive is table(clearance=0.04)
    assert naive is table(lift_height=0.2)
    assert naive is not table(params=RewardParams(w_e=0.002))
    assert naive is not make_wrapper("naive", rm=build_gait_rm(Gait.TROT)).table


def test_signed_zero_energy_weights_share_an_exact_table():
    """``w_e`` of -0.0 and 0.0 are one memo key; the rewards either
    compiles alone are bit for bit the same, so sharing is exact."""
    rm = build_gait_rm(Gait.TROT)
    alone = []
    for w_e in (-0.0, 0.0):
        _product_table.cache_clear()
        alone.append(repr(make_wrapper("naive", rm=rm, params=RewardParams(w_e=w_e)).table))
    assert alone[0] == alone[1]
    assert (
        make_wrapper("naive", rm=rm, params=RewardParams(w_e=-0.0)).table
        is make_wrapper("naive", rm=rm, params=RewardParams(w_e=0.0)).table
    )


def test_tables_keep_number_types():
    """An int-valued config equals its float twin, but under an int
    energy weight its rewards are ints; each must get its own table."""
    rm, params = build_gait_rm(Gait.TROT), RewardParams(w_e=1)
    twins = (
        ToyEnvConfig(lift_height=1, clearance=1, stride_gain=1, lift_power_cost=2),
        ToyEnvConfig(lift_height=1.0, clearance=1.0, stride_gain=1.0, lift_power_cost=2.0),
    )
    assert twins[0] == twins[1]
    rewards = [
        repr([e[2] for e in make_wrapper("naive", ToyQuadrupedEnv(c), rm, params).table])
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
