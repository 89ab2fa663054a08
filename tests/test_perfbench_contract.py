"""The benchmark's tracer patches gaitrm functions at the names their
callers look them up under (see ``perfbench/tracing.py``). This checks
that every one of those names still exists and that ``restore`` puts
each original object back."""

import importlib.util
from pathlib import Path

import gaitrm.cli as cli
import gaitrm.env as env
import gaitrm.learn as learn
import gaitrm.machine as machine
import gaitrm.wrappers as wrappers

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

OWNERS = (
    cli, env, learn, machine, wrappers,
    wrappers.CrossProductWrapper, wrappers.NoGaitWrapper, wrappers.NaiveWrapper,
    wrappers.Stack3Wrapper, wrappers.AugmentedWrapper,
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_exists_and_is_restored():
    tracing = load_tracing()
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracing.Tracer("contract")
    try:
        tracing.instrument(tracer)
        patched = {
            (owner.__name__, attr): getattr(owner, attr)
            for owner, old in zip(OWNERS, before)
            for attr, value in vars(owner).items()
            if old.get(attr) is not value
        }
    finally:
        tracer.restore()
    after = [dict(vars(owner)) for owner in OWNERS]

    # Names the evaluation-waste and per-layer metrics depend on.
    for name in (
        ("gaitrm.learn", "transition_table"),
        ("gaitrm.learn", "label"),
        ("gaitrm.learn", "discretize"),
        ("gaitrm.learn", "rollout"),
        ("gaitrm.learn", "evaluate"),
        ("gaitrm.wrappers", "transition_table"),
        ("gaitrm.machine", "eval_guard"),
        ("gaitrm.env", "step"),
    ):
        assert name in patched, name
    assert all(hasattr(traced, "__wrapped__") for traced in patched.values())
    for owner, old, new in zip(OWNERS, before, after):
        assert new.keys() == old.keys(), owner
        for attr, value in old.items():
            assert new[attr] is value, (owner, attr)


def test_traced_layers_are_called():
    """Each traced name the evaluation-waste metrics read must still be
    on the path ``train`` and ``evaluate`` take, or its metric reads 0.
    The no-gait wrapper neither labels steps nor reads a transition
    table, so those two layers count only ``learn``'s own calls, and its
    product table is compiled up front so that only evaluation's calls are
    counted."""
    tracing = load_tracing()
    tracer = tracing.Tracer("contract")
    rm = machine.build_gait_rm(machine.Gait.TROT)
    config = env.ToyEnvConfig(episode_length=5)
    wrapper = wrappers.NoGaitWrapper(env.ToyQuadrupedEnv(config))
    learner = learn.LearnerConfig(total_steps=10, eval_every=10, eval_episodes=1)
    wrapper.table
    try:
        tracing.instrument(tracer)
        q, _ = learn.train(wrapper, learner, tracker_rm=rm)
        learn.evaluate(q, wrapper, tracker_rm=rm, episodes=1)
    finally:
        tracer.restore()
    for name in (
        "learn.discretize",
        "env.label",
        "machine.transition_table",
        "learn.rollout",
        "learn.evaluate",
        "env.step",
    ):
        assert tracer.calls[name] > 0, name


def test_every_wrapper_step_is_one_env_step():
    """Each wrapper step must reach the traced ``env.step`` exactly once,
    or the evaluation-waste share, which divides by ``env.step`` calls,
    stops measuring the wrappers. Every kind walks every action sequence
    to depth 2 from reset, restoring a snapshot after each step."""
    tracing = load_tracing()
    tracer = tracing.Tracer("contract")
    rm = machine.build_gait_rm(machine.Gait.TROT)
    kinds = tuple(wrappers.WrapperKind)
    built = [wrappers.make_wrapper(kind, env.ToyQuadrupedEnv(), rm) for kind in kinds]
    try:
        tracing.instrument(tracer)
        for wrapper in built:
            wrapper.reset()
            root = wrapper.snapshot()
            for first in range(16):
                _, _, terminated, truncated, _ = wrapper.step(first)
                if not (terminated or truncated):
                    middle = wrapper.snapshot()
                    for second in range(16):
                        wrapper.step(second)
                        wrapper.restore(middle)
                wrapper.restore(root)
    finally:
        tracer.restore()
    wrapper_steps = [tracer.calls[f"wrappers.{kind.value}.step"] for kind in kinds]
    # The five patterns with three or four feet up stumble and end the episode.
    assert wrapper_steps == [16 + 11 * 16] * len(kinds)
    assert tracer.calls["env.step"] == sum(wrapper_steps)
