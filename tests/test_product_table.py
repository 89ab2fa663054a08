"""The wrappers step by indexing a product table compiled from the
sources. These tests prove every step of that table against a reference
written out here from the sources themselves (``env.step``, ``label``,
``rm_step``, ``compute_reward`` and the latch oracle), and check when
and under which key the table is built."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gaitrm.env import ToyEnvConfig, ToyQuadrupedEnv, label, observe, reset, step
from gaitrm.machine import (
    Gait,
    RewardMachine,
    RewardParams,
    Walk,
    build_gait_rm,
    compute_reward,
    rm_step,
)
from gaitrm.wrappers import (
    CrossProductObservation,
    GaitShapeError,
    MilestoneLatch,
    WrapperKind,
    _latch_step,
    _product_table,
    gait_shape,
    make_wrapper,
)
from helpers import oracle_reward_step

SRC = Path(__file__).resolve().parent.parent / "src"


def trot_accepting_q1() -> RewardMachine:
    """The trot machine with q1 accepting, so reaching pose A ends the
    cross-product episode. The latch wrappers refuse it."""
    base = build_gait_rm(Gait.TROT)
    return RewardMachine(
        base.states, base.initial, frozenset({base.states[1]}), base.transitions
    )


MACHINES = {
    **{gait.value: build_gait_rm(gait) for gait in Gait},
    "trot_accepting": trot_accepting_q1(),
}
CONFIGS = {
    "default": ToyEnvConfig(),
    "no_stumble_len7": ToyEnvConfig(stumble_terminates=False, episode_length=7),
    "int_valued": ToyEnvConfig(
        lift_height=1, clearance=1, stride_gain=1, lift_power_cost=2
    ),
    # Under an int energy weight a stride earns the int 0 - power and a
    # repeated pattern the float 0.0 - power: equal values, other types.
    "int_no_stride": ToyEnvConfig(
        lift_height=1, clearance=1, stride_gain=0, lift_power_cost=2
    ),
}
PARAMS = {"default": RewardParams(), "w_e_int": RewardParams(w_e=1)}

# Cursors reached by a non-terminating step, the reset cursor included,
# on the built-in gaits: every latch kind has the cross product's.
LIVE = {
    "default": {"gait": 20, "no_gait": 11},
    "no_stumble_len7": {"gait": 30, "no_gait": 16},
    "int_valued": {"gait": 20, "no_gait": 11},
    "int_no_stride": {"gait": 20, "no_gait": 11},
}


def initial_level(kind: WrapperKind, rm: RewardMachine):
    if kind is WrapperKind.CROSS_PRODUCT:
        return rm.initial
    return None if kind is WrapperKind.NO_GAIT else MilestoneLatch.NONE


def snapshot_of(kind: WrapperKind, state, level, stack) -> tuple:
    """A wrapper snapshot in each kind's format."""
    if kind is WrapperKind.NO_GAIT:
        return (state,)
    if kind is WrapperKind.STACK3:
        return (state, level, stack)
    return (state, level)


def reference_step(kind, rm, params, config, state, level, stack, action):
    """One wrapper step written out from the sources: the 5-tuple
    ``step`` must return, and the next env state, level and stack."""
    next_state, info = step(state, action, config)
    labels = label(info, config.clearance)
    base = observe(next_state)
    terminated = info.terminated
    if kind is WrapperKind.CROSS_PRODUCT:
        level, spec = rm_step(rm, level, labels)
        reward = compute_reward(spec, info, params)
        terminated = terminated or level in rm.accepting
        obs = CrossProductObservation(base, level)
    elif kind is WrapperKind.NO_GAIT:
        reward = compute_reward(Walk(), info, params)
        obs = base
    else:
        reward, level = oracle_reward_step(level, labels, info, rm, params)
        stack = (stack[1], stack[2], base)
        obs = {
            WrapperKind.NAIVE: base,
            WrapperKind.STACK3: stack,
            WrapperKind.AUGMENTED: (base, *labels.bits()),
        }[kind]
    return (obs, reward, terminated, info.truncated, info), next_state, level, stack


@pytest.mark.parametrize("params_name", sorted(PARAMS))
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("kind", list(WrapperKind), ids=lambda k: k.value)
def test_every_step_matches_the_sources(kind, machine_name, config_name, params_name):
    """Breadth-first over the states the reference reaches from reset;
    from each, every action both mid-episode and on the truncating step,
    entered by ``restore`` of a snapshot built here. The latch oracle
    has no terminate rule, so a latch kind refuses an accepting machine."""
    rm, config, params = MACHINES[machine_name], CONFIGS[config_name], PARAMS[params_name]
    if rm.accepting and kind not in (WrapperKind.CROSS_PRODUCT, WrapperKind.NO_GAIT):
        with pytest.raises(GaitShapeError, match="accepting"):
            make_wrapper(kind, ToyQuadrupedEnv(config), rm, params)
        return
    wrapper = make_wrapper(kind, ToyQuadrupedEnv(config), rm, params)
    start = (reset(config), initial_level(kind, rm))
    first = (observe(start[0]),) * 3
    assert repr(wrapper.reset()) == repr(
        {
            WrapperKind.CROSS_PRODUCT: CrossProductObservation(0, rm.initial),
            WrapperKind.STACK3: first,
            WrapperKind.AUGMENTED: (0, 0, 0, 0, 0),
        }.get(kind, 0)
    )
    assert repr(wrapper.snapshot()) == repr(snapshot_of(kind, *start, first))

    def core(state, level) -> tuple:
        return (state.airborne, state.fallen, level)

    seen = {core(*start)}
    frontier = [start]
    while frontier:
        state, level = frontier.pop(0)
        for last_step in (False, True):
            at = state._replace(step_count=config.episode_length - 1 if last_step else 0)
            stack = (3, 5, observe(at))
            for action in range(16):
                wrapper.restore(snapshot_of(kind, at, level, stack))
                got = wrapper.step(action)
                want, next_state, next_level, next_stack = reference_step(
                    kind, rm, params, config, at, level, stack, action
                )
                assert repr(got) == repr(want), (level, at, action)
                assert repr(wrapper.snapshot()) == repr(
                    snapshot_of(kind, next_state, next_level, next_stack)
                )
                assert got[3] is last_step
                reached = core(next_state, next_level)
                if not (want[2] or last_step) and reached not in seen:
                    seen.add(reached)
                    frontier.append((next_state._replace(step_count=0), next_level))
    if machine_name != "trot_accepting":
        gait_kind = "no_gait" if kind is WrapperKind.NO_GAIT else "gait"
        assert len(seen) == LIVE[config_name][gait_kind]


@pytest.mark.parametrize("kind", list(WrapperKind), ids=lambda k: k.value)
def test_reset_observes_as_the_entries_that_land_on_its_cursor(kind):
    """Each kind's observation is a function of its cursor: ``reset``
    returns what every table entry that lands on the reset cursor holds
    (stack3: that frame three times)."""
    for gait in Gait:
        for config in CONFIGS.values():
            wrapper = make_wrapper(kind, ToyQuadrupedEnv(config), MACHINES[gait.value])
            obs = wrapper.reset()
            landing = {repr(e[1]) for e in wrapper.table if e[0] == wrapper.cursor}
            if kind is WrapperKind.STACK3:
                assert obs == (obs[-1],) * 3
                obs = obs[-1]
            assert landing == {repr(obs)}, (gait, config)


def test_no_reward_reads_a_foot_height():
    """The table memo leaves out ``lift_height``, which sets only
    ``StepInfo.foot_heights``. That is sound because no reward reads a
    foot height: every reward spec of the built-in machines, and the
    latch oracle on each, pay the same on every outcome whatever its
    foot heights."""
    machines = [MACHINES[gait.value] for gait in Gait]
    specs = {repr(t.reward): t.reward for rm in machines for t in rm.transitions}
    shapes = [gait_shape(rm) for rm in machines]
    heights = ((0.0,) * 4, (0.7, 3, 0.0, 1e9))
    for config in CONFIGS.values():
        for info, airborne, _ in config.outcomes:
            moved = [info._replace(foot_heights=h) for h in heights]
            for params in PARAMS.values():
                for spec in specs.values():
                    want = repr(compute_reward(spec, info, params))
                    for other in moved:
                        assert repr(compute_reward(spec, other, params)) == want, (spec, info)
                for shape, latch in itertools.product(shapes, MilestoneLatch):
                    want = repr(_latch_step(shape, latch, airborne.code, info, params))
                    for other in moved:
                        got = _latch_step(shape, latch, airborne.code, other, params)
                        assert repr(got) == want, (shape, latch, info)


INT_CONFIG = CONFIGS["int_valued"]
FLOAT_CONFIG = ToyEnvConfig(
    lift_height=1.0, clearance=1.0, stride_gain=1.0, lift_power_cost=2.0
)
# Pairs equal as values whose rewards differ in type: configs under an
# int energy weight, then reward params under the int-valued config.
TWINS = (
    ((INT_CONFIG, RewardParams(w_e=1)), (FLOAT_CONFIG, RewardParams(w_e=1))),
    ((INT_CONFIG, RewardParams(w_e=1)), (INT_CONFIG, RewardParams(w_e=1.0))),
)


def episode_reprs(kind: WrapperKind, config: ToyEnvConfig, params: RewardParams) -> list:
    """``repr`` of the observation and reward of every step of a short
    episode that strides, idles and stumbles, on a fresh wrapper."""
    wrapper = make_wrapper(kind, ToyQuadrupedEnv(config), MACHINES["trot"], params)
    wrapper.reset()
    return [repr(wrapper.step(action)[:2]) for action in (9, 6, 6, 0, 7)]


def test_tables_are_built_at_first_reset_and_keyed_by_number_type():
    """Importing gaitrm and constructing every kind on every gait builds
    no table; the first reset builds one. A cache keyed on equal configs
    alone would hand an int-valued config its float twin's table, since
    ``1 == 1.0``: step both in one process, in both orders."""
    script = (
        "import gaitrm\n"
        "from gaitrm.machine import Gait, build_gait_rm\n"
        "from gaitrm.wrappers import WrapperKind, _product_table, make_wrapper\n"
        "sizes = [_product_table.cache_info().currsize]\n"
        "built = [make_wrapper(k, rm=build_gait_rm(g))\n"
        "         for k in WrapperKind for g in Gait]\n"
        "sizes.append(_product_table.cache_info().currsize)\n"
        "built[0].reset()\n"
        "sizes.append(_product_table.cache_info().currsize)\n"
        "print(sizes)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[0, 0, 1]"

    for kind in WrapperKind:
        for pair in TWINS:
            for first, second in (pair, pair[::-1]):
                _product_table.cache_clear()
                together = [episode_reprs(kind, *first), episode_reprs(kind, *second)]
                alone = []
                for setup in (first, second):
                    _product_table.cache_clear()
                    alone.append(episode_reprs(kind, *setup))
                assert together == alone, kind
                assert alone[0] != alone[1], kind
