"""In-memory tracing for the traced benchmark run.

The tracer replaces public ``gaitrm`` functions at the names their
callers look them up under (for example ``label`` in both
``gaitrm.wrappers`` and ``gaitrm.learn``) and restores them afterwards.

Per-step functions get aggregates only: call count, total time and the
time spent in nested traced calls, so self time is ``total - child``.
Coarse boundaries (CLI commands, ``train``, ``evaluate``, ``rollout``,
and the benchmark's own verify walks) also keep a full span record:
``(id, name, start, end, parent id, run id)``. Everything stays in
memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# Every traced layer name, in report order. Each one yields ``.calls``
# and ``.self_s`` in the per-layer metrics.
LAYER_NAMES = (
    "guards.parse_guard",
    "guards.eval_guard",
    "machine.load_rm",
    "machine.validate",
    "machine.transition_table",
    "machine.compute_reward",
    "env.step",
    "env.label",
    "wrappers.cross_product.step",
    "wrappers.no_gait.step",
    "wrappers.naive.step",
    "wrappers.stack3.step",
    "wrappers.augmented.step",
    "wrappers.snapshot_restore",
    "wrappers.construct",
    "learn.greedy_action",
    "learn.q_update",
    "learn.discretize",
    "learn.evaluate",
    "learn.rollout",
    "learn.train",
    "cli.train",
    "cli.eval",
    "cli.diagram",
    "cli.validate",
    "cli.compare",
)


class Tracer:
    """Aggregates and spans of one traced run. Single-threaded."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        # Time under a layer frame that has no layer frame above it.
        self.covered_s = 0.0
        self._frames: list[float] = []  # child-time accumulator per open frame
        self._span_ids: list[int] = []
        self._eval_digests: list[set] = []
        self._patches: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def _aggregate(self, fn, name: str, count_inside_eval: bool = False):
        frames = self._frames
        calls, total, child = self.calls, self.total, self.child
        eval_digests = self._eval_digests
        counters = self.counters
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if count_inside_eval and eval_digests:
                counters["eval_env_steps"] += 1
            frames.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                calls[name] += 1
                total[name] += dt
                child[name] += frames.pop()
                if frames:
                    frames[-1] += dt
                else:
                    tracer.covered_s += dt

        traced.__wrapped__ = fn
        return traced

    def _span(self, fn, name: str, on_enter=None, on_exit=None):
        inner = self._aggregate(fn, name)
        spans, span_ids = self.spans, self._span_ids
        perf = time.perf_counter
        run_id = self.run_id

        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = span_ids[-1] if span_ids else None
            spans.append(None)  # reserve the id; filled in on exit
            span_ids.append(span_id)
            if on_enter is not None:
                on_enter()
            start = perf()
            result = None
            try:
                result = inner(*args, **kwargs)
                return result
            finally:
                end = perf()
                span_ids.pop()
                spans[span_id] = (span_id, name, start, end, parent, run_id)
                if on_exit is not None:
                    on_exit(result)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span; it is not a layer, so its time counts
        as covered only where gaitrm layers run inside it."""
        span_id = len(self.spans)
        parent = self._span_ids[-1] if self._span_ids else None
        self.spans.append(None)
        self._span_ids.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._span_ids.pop()
            self.spans[span_id] = (
                span_id, name, start, time.perf_counter(), parent, self.run_id
            )

    # -- evaluation waste -------------------------------------------------

    def _eval_enter(self) -> None:
        self._eval_digests.append(set())

    def _eval_exit(self, _result) -> None:
        digests = self._eval_digests.pop()
        self.counters["eval_distinct_rollouts"] += len(digests)

    def _rollout_exit(self, result) -> None:
        if not self._eval_digests or result is None:
            return
        self.counters["eval_rollouts"] += 1
        h = hashlib.sha256()
        for s in result.steps:
            h.update(f"{s.action},{s.reward!r};".encode())
        self._eval_digests[-1].add(h.hexdigest())

    # -- reporting --------------------------------------------------------

    def self_s(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict:
        out = {}
        for name in LAYER_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s(name), "s")
        env_steps = self.calls["env.step"]
        eval_steps = self.counters["eval_env_steps"]
        out["learn.eval_step_share"] = (
            eval_steps / env_steps if env_steps else 0.0, "ratio"
        )
        out["learn.eval_step_share.base"] = (env_steps, "count")
        rollouts = self.counters["eval_rollouts"]
        out["learn.eval_distinct_rollout_ratio"] = (
            self.counters["eval_distinct_rollouts"] / rollouts if rollouts else 0.0,
            "ratio",
        )
        out["learn.eval_distinct_rollout_ratio.base"] = (rollouts, "count")
        out["cli.files_written"] = (self.counters["cli.files_written"], "count")
        out["cli.bytes_written"] = (self.counters["cli.bytes_written"], "bytes")
        out["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
        out["trace.uncovered_s"] = (traced_wall_s - self.covered_s, "s")
        return out

    def dump(self, path: Path, extra: dict) -> None:
        doc = {
            "run_id": self.run_id,
            **extra,
            "aggregates": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total[name],
                    "self_s": self.self_s(name),
                }
                for name in sorted(self.calls)
            },
            "counters": dict(self.counters),
            "span_fields": ["id", "name", "start", "end", "parent", "run_id"],
            "spans": [s for s in self.spans if s is not None],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n")


def instrument(tracer: Tracer) -> None:
    """Wrap every traced gaitrm function at each name it is called by."""
    import gaitrm.cli as cli
    import gaitrm.env as env
    import gaitrm.learn as learn
    import gaitrm.machine as machine
    import gaitrm.wrappers as wrappers

    def agg(owner, attr, name, **kw):
        tracer.patch(owner, attr, tracer._aggregate(getattr(owner, attr), name, **kw))

    def span(owner, attr, name, **kw):
        tracer.patch(owner, attr, tracer._span(getattr(owner, attr), name, **kw))

    agg(machine, "parse_guard", "guards.parse_guard")
    agg(machine, "eval_guard", "guards.eval_guard")
    agg(cli, "load_rm", "machine.load_rm")
    for owner in (machine, cli):
        agg(owner, "validate", "machine.validate")
    for owner in (wrappers, learn):
        agg(owner, "transition_table", "machine.transition_table")
    agg(wrappers, "compute_reward", "machine.compute_reward")
    agg(env, "step", "env.step", count_inside_eval=True)
    for owner in (wrappers, learn):
        agg(owner, "label", "env.label")

    classes = {
        "cross_product": wrappers.CrossProductWrapper,
        "no_gait": wrappers.NoGaitWrapper,
        "naive": wrappers.NaiveWrapper,
        "stack3": wrappers.Stack3Wrapper,
        "augmented": wrappers.AugmentedWrapper,
    }
    for kind, cls in classes.items():
        agg(cls, "step", f"wrappers.{kind}.step")
        agg(cls, "snapshot", "wrappers.snapshot_restore")
        agg(cls, "restore", "wrappers.snapshot_restore")
        agg(cls, "clone", "wrappers.construct")
    for owner in (wrappers, cli):
        agg(owner, "make_wrapper", "wrappers.construct")

    agg(learn, "greedy_action", "learn.greedy_action")
    agg(learn, "q_update", "learn.q_update")
    agg(learn, "discretize", "learn.discretize")
    for owner in (learn, cli):
        span(owner, "train", "learn.train")
        span(
            owner,
            "evaluate",
            "learn.evaluate",
            on_enter=tracer._eval_enter,
            on_exit=tracer._eval_exit,
        )
        span(owner, "rollout", "learn.rollout", on_exit=tracer._rollout_exit)
    for cmd in ("train", "eval", "diagram", "validate", "compare"):
        span(cli, f"cmd_{cmd}", f"cli.{cmd}")
