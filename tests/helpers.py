"""Shared test utilities: random guard generation, the enumeration and
latch-reward oracles, the exhaustive reward-equivalence walker used by
both the fast suite and acceptance, and the reference Q-learner and
evaluation that step a wrapper themselves."""

from __future__ import annotations

import random

from gaitrm.env import StepInfo, ToyEnvConfig, ToyQuadrupedEnv, label
from gaitrm.guards import (
    ALL_LABEL_SETS,
    MAX_GUARD_DEPTH,
    And,
    Guard,
    LabelSet,
    Lit,
    Not,
    Or,
    Prop,
    eval_guard,
    truth_table,
)
from gaitrm.learn import (
    NUM_ACTIONS,
    EvalMetrics,
    LearnerConfig,
    discretize,
    greedy_action,
    q_update,
)
from gaitrm.machine import (
    Gait,
    RewardMachine,
    RewardParams,
    build_gait_rm,
    machine_to_document,
    transition_table,
)
from gaitrm.wrappers import (
    CrossProductWrapper,
    MilestoneLatch,
    NaiveWrapper,
    _latch_step,
    gait_shape,
)

PROPS = tuple(Prop)

# Action codes that keep at least two feet planted; commanding three or
# more airborne feet stumbles immediately.
NON_STUMBLE_ACTIONS = tuple(a for a in range(16) if bin(a).count("1") <= 2)


def random_guard(rng: random.Random, depth: int) -> Guard:
    """Uniform-ish random guard AST of at most the given depth."""
    if depth <= 0 or rng.random() < 0.25:
        return Lit(rng.choice(PROPS))
    kind = rng.randrange(3)
    if kind == 0:
        return Not(random_guard(rng, depth - 1))
    if kind == 1:
        return And(random_guard(rng, depth - 1), random_guard(rng, depth - 1))
    return Or(random_guard(rng, depth - 1), random_guard(rng, depth - 1))


def satisfying_sets(guard: Guard) -> frozenset[LabelSet]:
    """All label sets for which the guard evaluates true, by enumeration."""
    return frozenset(l for l in ALL_LABEL_SETS if eval_guard(guard, l))


def semantically_equal(a: Guard, b: Guard) -> bool:
    return truth_table(a) == truth_table(b)


def oracle_reward_step(
    latch: MilestoneLatch,
    labels: LabelSet,
    info: StepInfo,
    rm: RewardMachine,
    params: RewardParams,
) -> tuple[float, MilestoneLatch]:
    """History-based reward without the automaton.

    A pose-A label pays the bonus unless pose A was already the latched
    milestone; a pose-B label pays only when pose A is latched (there is
    no fresh-start allowance on the B side). Everything else earns the
    walking reward and leaves the latch alone.
    """
    return _latch_step(gait_shape(rm), latch, labels.code, info, params)


def nested_guard(shape: str, depth: int) -> str:
    """Guard text exactly ``depth`` levels deep, nested one way: "!",
    "()", or a chain of "&" or "|" operands."""
    if shape == "!":
        return "!" * (depth - 1) + "FL"
    if shape == "()":
        return "(" * (depth - 1) + "FL" + ")" * (depth - 1)
    return f" {shape} ".join(["FL"] * depth)


def deepest_trot_document() -> dict:
    """The trot machine document with its q0 guards rewritten to mean
    the same under as many "!" as MAX_GUARD_DEPTH admits."""
    doc = machine_to_document(build_gait_rm(Gait.TROT))
    pose_a = doc["transitions"][0]["guard"]  # five levels deep
    for transition, negate in zip(doc["transitions"][:2], (False, True)):
        nots, inner = MAX_GUARD_DEPTH - 6, f"({pose_a})"
        if nots % 2 != negate:
            nots, inner = nots - 1, f"({inner})"
        transition["guard"] = "!" * nots + inner
    return doc


def make_pair(
    gait: Gait, config: ToyEnvConfig | None = None
) -> tuple[CrossProductWrapper, NaiveWrapper, RewardMachine]:
    rm = build_gait_rm(gait)
    cross = CrossProductWrapper(ToyQuadrupedEnv(config), rm)
    naive = NaiveWrapper(ToyQuadrupedEnv(config), rm)
    return cross, naive, rm


def check_equivalence_exhaustive(gait: Gait, depth: int) -> int:
    """Walk every action sequence up to ``depth`` (pruning finished
    episodes), asserting the cross-product and latch-oracle reward
    streams are bit-identical and that the latch mirrors the automaton
    state. Returns the number of compared steps."""
    cross, naive, rm = make_pair(gait)
    q1_index = 1
    cross.reset()
    naive.reset()
    compared = 0

    def recurse(remaining: int) -> None:
        nonlocal compared
        snap_cross = cross.snapshot()
        snap_naive = naive.snapshot()
        for action in range(16):
            _, r_cross, term_c, trunc_c, _ = cross.step(action)
            _, r_naive, term_n, trunc_n, _ = naive.step(action)
            compared += 1
            if r_cross != r_naive:
                raise AssertionError(
                    f"{gait}: reward divergence on action {action}: "
                    f"{r_cross!r} != {r_naive!r}"
                )
            if (term_c, trunc_c) != (term_n, trunc_n):
                raise AssertionError(f"{gait}: episode-end flags diverged")
            in_q1 = cross.rm_state.index == q1_index
            latched_a = naive.latch is MilestoneLatch.POSE_A
            if in_q1 != latched_a:
                raise AssertionError(
                    f"{gait}: latch/state mismatch: q1={in_q1} latch={naive.latch}"
                )
            if remaining > 1 and not (term_c or trunc_c):
                recurse(remaining - 1)
            cross.restore(snap_cross)
            naive.restore(snap_naive)

    recurse(depth)
    return compared


def check_equivalence_rollouts(
    gait: Gait,
    episodes: int,
    rng: random.Random,
    stumble_free: bool = False,
) -> int:
    """Random-policy rollouts (full episodes) comparing the two reward
    streams element by element. Returns total steps compared."""
    cross, naive, _ = make_pair(gait)
    actions = NON_STUMBLE_ACTIONS if stumble_free else tuple(range(16))
    compared = 0
    for _ in range(episodes):
        cross.reset()
        naive.reset()
        done = False
        while not done:
            action = rng.choice(actions)
            _, r_cross, term, trunc, _ = cross.step(action)
            _, r_naive, term_n, trunc_n, _ = naive.step(action)
            compared += 1
            assert r_cross == r_naive, (gait, action, r_cross, r_naive)
            assert (term, trunc) == (term_n, trunc_n)
            done = term or trunc
    return compared


def epsilon_closed_form(config: LearnerConfig, t: int) -> float:
    """Epsilon at learner step ``t`` written out from its definition, as
    the oracle for ``learn.epsilon_schedule``: linear from start to end
    over ``epsilon_fraction * total_steps`` steps, then held."""
    s, e = config.epsilon_start, config.epsilon_end
    h = config.epsilon_fraction * config.total_steps
    if h <= 0:
        return e
    return s + (e - s) * min(1.0, t / h)


def evaluate_by_stepping(
    q: dict, wrapper, tracker_rm: RewardMachine | None, episodes: int
) -> EvalMetrics:
    """``evaluate`` of a Q-table written out without ``rollout``: each
    episode steps a fresh clone of the wrapper greedily and counts pose
    transitions on ``tracker_rm`` (default: the wrapper's machine), and
    the floats are summed in ``evaluate``'s order."""
    if tracker_rm is None:
        tracker_rm = wrapper.machine
    returns, transitions, distance = 0.0, 0, 0.0
    for _ in range(episodes):
        episode = wrapper.clone()
        obs = episode.reset()
        u = tracker_rm.initial if tracker_rm is not None else None
        total_reward = 0.0
        for _ in range(episode.config.episode_length):
            action = greedy_action(q, discretize(obs, episode.kind))
            obs, reward, terminated, truncated, info = episode.step(action)
            total_reward += reward
            if tracker_rm is not None:
                code = label(info, episode.config.clearance).code
                nxt, _ = transition_table(tracker_rm)[(u.index, code)]
                transitions += nxt.index != u.index
                u = nxt
            if terminated or truncated:
                break
        returns += total_reward
        distance += episode.env.state.base_x
    return EvalMetrics(
        mean_return=returns / episodes,
        mean_pose_transitions=transitions / episodes,
        mean_distance=distance / episodes,
        episodes=episodes,
    )


def train_by_stepping(
    wrapper, config: LearnerConfig, greedy_maps: list | None = None
) -> tuple[dict, list]:
    """Q-learning that steps the wrapper itself and evaluates afresh, by
    ``evaluate_by_stepping``, at every evaluation point: the definition
    the table-driven ``train`` must reproduce bit for bit, Q-table and
    curve. With
    ``greedy_maps``, the greedy action of every key in Q is appended to
    it at each evaluation point."""
    rng = random.Random(config.seed)
    q: dict = {}
    curve = []
    key = discretize(wrapper.reset(), wrapper.kind)
    for t in range(config.total_steps):
        if rng.random() < epsilon_closed_form(config, t):
            action = rng.randrange(NUM_ACTIONS)
        else:
            action = greedy_action(q, key)
        obs, reward, terminated, truncated, _ = wrapper.step(action)
        next_key = discretize(obs, wrapper.kind)
        q_update(q, key, action, reward, next_key, terminated, config)
        if terminated or truncated:
            key = discretize(wrapper.reset(), wrapper.kind)
        else:
            key = next_key
        step_number = t + 1
        if step_number % config.eval_every == 0 or step_number == config.total_steps:
            metrics = evaluate_by_stepping(q, wrapper, None, config.eval_episodes)
            curve.append((step_number, metrics))
            if greedy_maps is not None:
                greedy_maps.append({k: greedy_action(q, k) for k in q})
    return q, curve
