"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with supporting numbers.

Run with ``pytest tests/test_acceptance.py -v -s``. The learning-trend
criterion trains 30 full-budget agents and takes a few minutes; the
reward-equivalence criterion walks every action sequence of length <= 6
for each gait and takes a few minutes more.
"""

import inspect
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from gaitrm.cli import main
from gaitrm.env import StepInfo, ToyEnvConfig, ToyQuadrupedEnv
from gaitrm.guards import (
    ALL_LABEL_SETS,
    parse_guard,
    render_guard,
)
from gaitrm.machine import (
    Gait,
    RewardParams,
    SwitchPoseBonus,
    Walk,
    build_gait_rm,
    compute_reward,
    dumps_rm,
    load_rm,
    rm_step,
    save_rm,
    validate,
)
from gaitrm.learn import LearnerConfig, ReferenceGaitPolicy, evaluate, train
from gaitrm.wrappers import NaiveWrapper, base_pattern, make_wrapper
from helpers import (
    check_equivalence_exhaustive,
    check_equivalence_rollouts,
    random_guard,
    semantically_equal,
)

MACHINES_DIR = Path(__file__).resolve().parent.parent / "machines"


def report(number: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" | {detail}" if detail else ""
    print(f"\nACCEPTANCE {number} ({name}): {status}{suffix}")
    return ok


def test_criterion_1_reward_stream_equivalence():
    """Cross-product rewards equal the history-oracle rewards bit for
    bit: exhaustively for every action sequence of length <= 6 (finished
    episodes pruned) and on >= 10,000 random full-length rollouts."""
    t0 = time.time()
    exhaustive_steps = 0
    rollout_steps = 0
    full_length_rollouts = 0
    for gait in Gait:
        exhaustive_steps += check_equivalence_exhaustive(gait, depth=6)
        rng = random.Random(1000 + gait.pose_a.code)
        rollout_steps += check_equivalence_rollouts(
            gait, episodes=3334, rng=rng, stumble_free=True
        )
        full_length_rollouts += 3334
        rollout_steps += check_equivalence_rollouts(
            gait, episodes=500, rng=rng, stumble_free=False
        )
    elapsed = time.time() - t0
    ok = report(
        1,
        "reward equivalence",
        True,
        f"{exhaustive_steps:,} exhaustive steps, {full_length_rollouts:,} "
        f"full-length rollouts (+1,500 with stumbles), "
        f"{rollout_steps:,} rollout steps, zero divergences, {elapsed:.0f}s",
    )
    assert ok
    assert full_length_rollouts >= 10_000


def test_criterion_2_automaton_validity_and_cycle():
    """All built-in machines are deterministic and total over every
    (state, label) pair, and pose A then pose B returns to the start."""
    details = []
    ok = True
    for gait in Gait:
        rm = build_gait_rm(gait)
        rep = validate(rm)
        mid, _ = rm_step(rm, rm.initial, gait.pose_a)
        back, _ = rm_step(rm, mid, gait.pose_b)
        cycle_ok = mid.name == "q1" and back == rm.initial
        pairs = len(rm.states) * len(ALL_LABEL_SETS)
        ok = ok and rep.valid and cycle_ok
        details.append(f"{gait.value}: {pairs} pairs valid={rep.valid} cycle={cycle_ok}")
    assert report(2, "automaton validity", ok, "; ".join(details))


def test_criterion_3_reward_formulas():
    """Bonus is zero at zero displacement, strictly inside (-b, b),
    sign-preserving; walk reward matches an independent recomputation."""
    params = RewardParams()
    bonus = SwitchPoseBonus(10000.0)

    def info(delta_x, power=0.0, torques=None, joint_velocities=None):
        return StepInfo(delta_x, power, (0.0, 0.0, 0.0, 0.0), False, False,
                        torques, joint_velocities)

    zero_ok = compute_reward(bonus, info(0.0), params) == 0.0

    bound_sign_ok = True
    deltas = [1e-300, 1e-9, 0.01, 0.05, 1.0, 18.0, 19.5, 25.0, 1e6, 1e300]
    for magnitude in deltas:
        for delta in (magnitude, -magnitude):
            reward = compute_reward(bonus, info(delta), params)
            bound_sign_ok &= abs(reward) < 10000.0
            bound_sign_ok &= math.copysign(1.0, reward) == math.copysign(1.0, delta)

    rng = random.Random(314159)
    walk_ok = True
    worst = 0.0
    for _ in range(1000):
        n = rng.randrange(1, 13)
        torques = tuple(rng.uniform(-10, 10) for _ in range(n))
        velocities = tuple(rng.uniform(-10, 10) for _ in range(n))
        delta = rng.uniform(-1, 1)
        got = compute_reward(
            Walk(), info(delta, torques=torques, joint_velocities=velocities), params
        )
        expected = delta - 0.001 * abs(float(np.dot(torques, velocities)))
        worst = max(worst, abs(got - expected))
        walk_ok &= abs(got - expected) <= 1e-12
    ok = zero_ok and bound_sign_ok and walk_ok
    assert report(
        3,
        "reward formulas",
        ok,
        f"zero-at-zero={zero_ok}, bounded+sign over {2 * len(deltas)} deltas="
        f"{bound_sign_ok}, walk max |err|={worst:.2e} over 1000 inputs",
    )


def contact_pattern_policy(gait: Gait):
    """Memoryless controller over the contact pattern alone: from pose A
    command pose B, from anything else command pose A. It reads nothing
    the naive baseline's 16-key table cannot key on."""

    def policy(observation, step_index: int) -> int:
        if base_pattern(observation) == gait.pose_a.code:
            return gait.pose_b.code
        return gait.pose_a.code

    return policy


def test_criterion_4_learning_trend():
    """PAPER.md claims the reward machine speeds up learning and uses the
    rule knowledge better than baselines that also have it; it gives no
    margin. With default configs and 5 seeds per gait, each gait must
    meet three conditions:

    - ceiling: the cross-product learner reaches >= 90% of the hand-coded
      controller's 99 transitions in >= 4 of 5 seeds;
    - premise: the memoryless contact-pattern policy scores exactly
      ``episode_length`` transitions under both the naive and the
      cross-product wrapper, so the naive baseline's 16-key table holds
      an optimal policy and no final margin above 1x is possible;
    - comparison: the cross-product learner's final transitions are
      >= the naive learner's for the same seed in >= 4 of 5 seeds.
    """
    seeds = range(5)
    reference_transitions = 99.0
    episode_length = ToyEnvConfig().episode_length
    detail_lines = []
    ceiling_ok_all = True
    premise_ok_all = True
    comparison_ok_all = True
    t0 = time.time()
    for gait in Gait:
        rm = build_gait_rm(gait)
        premise = {}
        finals = {}
        for kind in ("cross_product", "naive"):
            premise[kind] = evaluate(
                contact_pattern_policy(gait),
                make_wrapper(kind, ToyQuadrupedEnv(), rm),
                tracker_rm=rm,
            ).mean_pose_transitions
            finals[kind] = []
            for seed in seeds:
                wrapper = make_wrapper(kind, ToyQuadrupedEnv(), rm)
                config = LearnerConfig(seed=seed)
                _, curve = train(wrapper, config, tracker_rm=rm)
                finals[kind].append(curve[-1][1].mean_pose_transitions)
        pairs = list(zip(finals["cross_product"], finals["naive"]))
        comparison_hits = sum(cross >= naive for cross, naive in pairs)
        ceiling_hits = sum(
            cross >= 0.9 * reference_transitions for cross in finals["cross_product"]
        )
        ceiling_ok_all &= ceiling_hits >= 4
        premise_ok_all &= all(score == episode_length for score in premise.values())
        comparison_ok_all &= comparison_hits >= 4
        detail_lines.append(
            f"{gait.value}: premise cross={premise['cross_product']} "
            f"naive={premise['naive']} (of {episode_length}) "
            f"cross={finals['cross_product']} naive={finals['naive']} "
            f"ceiling-hits={ceiling_hits}/5 cross>=naive-hits={comparison_hits}/5"
        )
    elapsed = time.time() - t0
    ok = ceiling_ok_all and premise_ok_all and comparison_ok_all
    report(
        4,
        "learning trend",
        ok,
        "; ".join(detail_lines) + f" ({elapsed:.0f}s)",
    )
    assert ceiling_ok_all, detail_lines
    # With one-step foot settling the contact pattern alone pins down the
    # milestone latch on every milestone step (pattern A implies latch A;
    # pattern B implies latch NONE), so a memoryless policy is
    # optimal under the naive wrapper too and both learners can end at
    # the same ceiling. If an environment ever hides the machine state
    # from the baseline (multi-step foot settling, say), this premise
    # fails, and the comparison must go back to demanding a margin.
    assert premise_ok_all, detail_lines
    assert comparison_ok_all, detail_lines


def test_criterion_5_evaluation_protocol():
    """evaluate() deploys policies for exactly 10 episodes of 100 steps
    by default, and the hand-coded controller's closed form holds: 99
    transitions and 99 strides."""
    episodes_default = inspect.signature(evaluate).parameters["episodes"].default
    episode_length_default = ToyEnvConfig().episode_length

    rm = build_gait_rm(Gait.TROT)
    wrapper = NaiveWrapper(rm=rm)
    metrics = evaluate(ReferenceGaitPolicy(Gait.TROT), wrapper)
    stride = ToyEnvConfig().stride_gain
    transitions_ok = metrics.mean_pose_transitions == 99.0
    # 99 float additions of the stride differ from the product by ~1e-14;
    # everything beyond float accumulation order is exact.
    distance_ok = abs(metrics.mean_distance - 99 * stride) <= 1e-12
    ok = (
        episodes_default == 10
        and episode_length_default == 100
        and metrics.episodes == 10
        and transitions_ok
        and distance_ok
    )
    assert report(
        5,
        "evaluation protocol",
        ok,
        f"episodes={metrics.episodes}, episode_length={episode_length_default}, "
        f"transitions={metrics.mean_pose_transitions}, "
        f"distance={metrics.mean_distance!r} vs {99 * stride!r}",
    )


def test_criterion_6_guard_round_trip():
    """10,000 random guard ASTs re-parse from their rendering with
    identical 16-entry truth tables."""
    rng = random.Random(271828)
    failures = 0
    for _ in range(10_000):
        guard = random_guard(rng, depth=6)
        if not semantically_equal(parse_guard(render_guard(guard)), guard):
            failures += 1
    assert report(6, "guard round-trip", failures == 0, f"{failures} failures in 10,000")


def test_criterion_7_serialization_byte_identity(tmp_path):
    """save -> load -> save reproduces the machine document byte for
    byte for all three built-in gaits, and the checked-in files are
    exactly the builder's output."""
    ok = True
    details = []
    for gait in Gait:
        fixture = MACHINES_DIR / f"{gait.value}.json"
        first = tmp_path / f"{gait.value}_first.json"
        second = tmp_path / f"{gait.value}_second.json"
        save_rm(build_gait_rm(gait), first)
        rm, params = load_rm(first)
        save_rm(rm, second, params)
        round_trip = first.read_bytes() == second.read_bytes()
        golden = fixture.read_bytes() == first.read_bytes()
        ok &= round_trip and golden
        details.append(f"{gait.value}: round-trip={round_trip} golden={golden}")
    assert report(7, "serialization byte identity", ok, "; ".join(details))


def test_criterion_8_training_determinism(tmp_path, capsys):
    """The train command run twice with fixed seeds produces
    byte-identical output files."""
    out = tmp_path / "campaign"
    argv = [
        "train", "--gait", "bound", "--wrapper", "cross_product",
        "--seeds", "2", "--out", str(out),
        "--total-steps", "3000", "--eval-every", "1000",
    ]
    assert main(list(argv)) == 0
    first = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert main(list(argv)) == 0
    second = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    capsys.readouterr()
    identical = first == second
    assert report(
        8,
        "training determinism",
        identical,
        f"{len(first)} files compared byte-for-byte",
    )
