"""The three benchmark workloads and their output checks.

Every workload is a closed loop with one caller in one thread: it runs
rounds back to back, each round built from the workload seed and the
round index only. ``setup()`` brings the workload to ready (machines
and wrappers built, inputs generated); ``run_round()`` does one round
of measured work; ``finish()`` runs the checks that span rounds.

All gaitrm functions are called through their module attribute (for
example ``learn.train``) so that the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
import shutil
import tempfile
import time
from pathlib import Path

import gaitrm.cli as cli
import gaitrm.env as env
import gaitrm.learn as learn
import gaitrm.machine as machine
import gaitrm.wrappers as wrappers

GAITS = tuple(machine.Gait)
KINDS = tuple(wrappers.WrapperKind)
PROPS = ("FL", "FR", "BL", "BR")

# Actions that keep at least two feet planted, so random rollouts run
# the full episode instead of stumbling within a few steps.
NON_STUMBLE_ACTIONS = tuple(a for a in range(16) if bin(a).count("1") <= 2)

# The reference gait walks 99 milestone transitions per episode; a
# trained cross-product agent must reach nine tenths of that.
MIN_CROSS_TRANSITIONS = 0.9 * 99


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, message: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages += other.messages


class Workload:
    name = ""

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tally = Tally()
        self.round_s: list[float] = []  # wall time of each round
        self.call_s: list[float] = []  # wall time of each operation
        self.steps = 0  # useful steps done by timed operations
        self.step_s = 0.0  # time of the operations that did them
        self.tracer = None

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, index: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        pass

    def close(self) -> None:
        pass

    def report(self) -> dict:
        """Extra figures to print beside the metrics: name -> (value, unit)."""
        return {}


def q_digest(q: dict, curve: list) -> str:
    h = hashlib.sha256()
    for key in sorted(q):
        h.update(f"{key}:{q[key]!r};".encode())
    for step, m in curve:
        h.update(
            f"{step}:{m.mean_return!r},{m.mean_pose_transitions!r},"
            f"{m.mean_distance!r};".encode()
        )
    return h.hexdigest()


class TrainWorkload(Workload):
    """``learn.train`` on all five wrapper kinds per round, gaits rotated
    by seed and round. Default LearnerConfig except ``total_steps``."""

    name = "train"
    total_steps = 100_000

    def setup(self) -> None:
        self.machines = {g: machine.build_gait_rm(g) for g in GAITS}
        self.config = dataclasses.replace(
            learn.LearnerConfig(), total_steps=self.total_steps
        )
        self.gait_offset = self.rng.randrange(len(GAITS))
        # Construct one wrapper of each kind so set-up covers the
        # wrapper layer; training runs get fresh ones.
        for kind in KINDS:
            wrappers.make_wrapper(kind, env.ToyQuadrupedEnv(), self.machines[GAITS[0]])
        self.first_run = None

    def _train(self, kind, gait, seed):
        rm = self.machines[gait]
        wrapper = wrappers.make_wrapper(kind, env.ToyQuadrupedEnv(), rm)
        config = dataclasses.replace(self.config, seed=seed)
        t0 = time.perf_counter()
        q, curve = learn.train(wrapper, config, tracker_rm=rm)
        return q, curve, time.perf_counter() - t0

    def run_round(self, index: int) -> None:
        t_round = time.perf_counter()
        for i, kind in enumerate(KINDS):
            gait = GAITS[(self.gait_offset + index + i) % len(GAITS)]
            seed = self.rng.randrange(2**31)
            try:
                q, curve, dt = self._train(kind, gait, seed)
            except Exception as exc:  # an escaped traceback is a failure
                self.tally.record(False, f"train {kind.value}/{gait.value}: {exc!r}")
                continue
            self.call_s.append(dt)
            self.steps += self.config.total_steps
            self.step_s += dt
            expected_points = -(-self.config.total_steps // self.config.eval_every)
            ok = len(curve) == expected_points
            message = f"train {kind.value}/{gait.value} seed {seed}: {len(curve)} eval points"
            if ok and kind is wrappers.WrapperKind.CROSS_PRODUCT:
                final = curve[-1][1].mean_pose_transitions
                ok = final >= MIN_CROSS_TRANSITIONS
                message = (
                    f"train cross_product/{gait.value} seed {seed}: "
                    f"{final} pose transitions < {MIN_CROSS_TRANSITIONS}"
                )
            self.tally.record(ok, message)
            if self.first_run is None:
                self.first_run = (kind, gait, seed, q_digest(q, curve))
        self.round_s.append(time.perf_counter() - t_round)

    def finish(self) -> None:
        """Rerun the first training run; it must reproduce bit for bit."""
        if self.first_run is None:
            return
        kind, gait, seed, digest = self.first_run
        q, curve, _ = self._train(kind, gait, seed)
        self.tally.record(
            q_digest(q, curve) == digest,
            f"rerun of {kind.value}/{gait.value} seed {seed} changed its Q-table or curve",
        )


class VerifyWorkload(Workload):
    """Step the cross-product and naive wrappers side by side and demand
    bit-identical rewards, equal episode flags, and a latch that mirrors
    the machine state. Per gait and round: a seeded random prefix, then
    an exhaustive walk over all 16 actions to ``depth`` with
    snapshot/restore, then seeded random full-length rollouts."""

    name = "verify"
    depth = 3
    rollouts = 10
    max_prefix = 60

    def setup(self) -> None:
        self.pairs = {}
        for gait in GAITS:
            rm = machine.build_gait_rm(gait)
            cross = wrappers.make_wrapper("cross_product", env.ToyQuadrupedEnv(), rm)
            naive = wrappers.make_wrapper("naive", env.ToyQuadrupedEnv(), rm)
            self.pairs[gait] = (cross, naive)
        self.divergences = 0

    def _compare(self, gait, cross, naive, action) -> bool:
        """One compared step; returns True when the episode has ended."""
        _, r_cross, term_c, trunc_c, _ = cross.step(action)
        _, r_naive, term_n, trunc_n, _ = naive.step(action)
        self.compared += 1
        in_q1 = cross.rm_state.index == 1
        latched_a = naive.latch is wrappers.MilestoneLatch.POSE_A
        if r_cross != r_naive or (term_c, trunc_c) != (term_n, trunc_n) or in_q1 != latched_a:
            self.divergences += 1
            if len(self.unit_errors) < 3:
                self.unit_errors.append(
                    f"{gait.value}: action {action}: reward {r_cross!r} vs {r_naive!r}, "
                    f"flags {(term_c, trunc_c)} vs {(term_n, trunc_n)}, "
                    f"q1={in_q1} latch={naive.latch.value}"
                )
        return term_c or trunc_c

    def _walk(self, gait, cross, naive, remaining: int) -> None:
        snap_cross = cross.snapshot()
        snap_naive = naive.snapshot()
        for action in range(16):
            done = self._compare(gait, cross, naive, action)
            if remaining > 1 and not done:
                self._walk(gait, cross, naive, remaining - 1)
            cross.restore(snap_cross)
            naive.restore(snap_naive)

    def _unit(self, gait) -> None:
        cross, naive = self.pairs[gait]
        cross.reset()
        naive.reset()
        for _ in range(self.rng.randrange(self.max_prefix + 1)):
            self._compare(gait, cross, naive, self.rng.choice(NON_STUMBLE_ACTIONS))
        span = self.tracer.span(f"verify.walk.{gait.value}") if self.tracer else None
        with span or contextlib.nullcontext():
            self._walk(gait, cross, naive, self.depth)
        for _ in range(self.rollouts):
            cross.reset()
            naive.reset()
            while not self._compare(
                gait, cross, naive, self.rng.choice(NON_STUMBLE_ACTIONS)
            ):
                pass

    def run_round(self, index: int) -> None:
        t_round = time.perf_counter()
        for gait in GAITS:
            self.compared = 0
            self.unit_errors = []
            t0 = time.perf_counter()
            try:
                self._unit(gait)
            except Exception as exc:
                self.tally.record(False, f"verify {gait.value}: {exc!r}")
                continue
            dt = time.perf_counter() - t0
            self.call_s.append(dt)
            self.steps += self.compared
            self.step_s += dt
            self.tally.record(not self.unit_errors, "; ".join(self.unit_errors))
        self.round_s.append(time.perf_counter() - t_round)

    def report(self) -> dict:
        return {"divergences": (self.divergences, "count")}


def _random_guard(rng: random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(PROPS)
    kind = rng.randrange(3)
    if kind == 0:
        return f"!({_random_guard(rng, depth - 1)})"
    op = " & " if kind == 1 else " | "
    return f"({_random_guard(rng, depth - 1)}{op}{_random_guard(rng, depth - 1)})"


def _random_reward(rng: random.Random) -> dict:
    if rng.random() < 0.5:
        return {"type": "walk"}
    return {"type": "switch_pose_bonus", "b": round(rng.uniform(1.0, 10_000.0), 3)}


def valid_machine_doc(rng: random.Random) -> dict:
    """A deterministic, total, reachable machine: state i moves to i+1
    on a satisfiable guard ``g | p`` and elsewhere on its negation."""
    names = [f"s{i}" for i in range(rng.randint(2, 4))]
    transitions = []
    for i, name in enumerate(names):
        guard = f"({_random_guard(rng, 3)}) | {rng.choice(PROPS)}"
        transitions.append(
            {"from": name, "to": names[(i + 1) % len(names)], "guard": guard,
             "reward": _random_reward(rng)}
        )
        transitions.append(
            {"from": name, "to": rng.choice(names), "guard": f"!({guard})",
             "reward": _random_reward(rng)}
        )
    return {
        "version": 1,
        "states": names,
        "initial": names[0],
        "accepting": [],
        "transitions": transitions,
        "params": {"w_e": 0.001, "gamma": 0.99, "bonus_b": 10000.0},
    }


def invalid_machine_doc(rng: random.Random) -> dict:
    """Well-formed but fails validation: an ambiguous extra transition
    or a state nothing reaches."""
    doc = valid_machine_doc(rng)
    always = "FL | !FL"
    if rng.random() < 0.5:
        src = rng.choice(doc["states"])
        doc["transitions"].append(
            {"from": src, "to": src, "guard": always, "reward": {"type": "walk"}}
        )
    else:
        doc["states"].append("orphan")
        doc["transitions"].append(
            {"from": "orphan", "to": "orphan", "guard": always, "reward": {"type": "walk"}}
        )
    return doc


def malformed_machine_text(rng: random.Random) -> str:
    """A document the loader must reject with a format error."""
    doc = valid_machine_doc(rng)
    t = rng.choice(doc["transitions"])
    defect = rng.randrange(8)
    if defect == 0:
        text = json.dumps(doc)
        return text[: len(text) // 2]
    if defect == 1:
        t["guard"] = "FL & & BR"
    elif defect == 2:
        t["guard"] = f"{rng.choice(PROPS)} & XX"
    elif defect == 3:
        doc["extra"] = 1
    elif defect == 4:
        t["to"] = "nowhere"
    elif defect == 5:
        del doc["initial"]
    elif defect == 6:
        t["reward"] = {"type": "sprint"}
    else:
        doc["params"]["gamma"] = 1.5
    return json.dumps(doc, indent=2)


class CampaignWorkload(Workload):
    """The CLI end to end through ``gaitrm.cli.main(argv)``: train every
    gait x wrapper at the --quick budget, eval and diagram every written
    policy, validate golden and generated machines, then compare."""

    name = "campaign"
    seeds_per_run = 2
    budget = ("--total-steps", "2000", "--eval-every", "1000")
    docs_per_category = 8

    def setup(self) -> None:
        work_root = self.root / "perfbench" / "_runs"
        work_root.mkdir(parents=True, exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"campaign-{self.seed}-", dir=work_root))
        self.validate_inputs = [
            (path, cli.EXIT_OK) for path in sorted((self.root / "machines").glob("*.json"))
        ]
        docs_dir = self.work / "machines"
        docs_dir.mkdir()
        for i in range(self.docs_per_category):
            for category, text, code in (
                ("valid", json.dumps(valid_machine_doc(self.rng), indent=2), cli.EXIT_OK),
                ("invalid", json.dumps(invalid_machine_doc(self.rng), indent=2),
                 cli.EXIT_SEMANTIC),
                ("malformed", malformed_machine_text(self.rng), cli.EXIT_IO),
            ):
                path = docs_dir / f"{category}{i}.json"
                path.write_text(text)
                self.validate_inputs.append((path, code))
        self.files_written = 0
        self.bytes_written = 0

    def _call(self, argv: list[str], expected: int) -> str | None:
        """One CLI call; returns its stdout, or None when it failed."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped traceback is a failure
            self.call_s.append(time.perf_counter() - t0)
            self.tally.record(False, f"{' '.join(argv)}: escaped {exc!r}")
            return None
        self.call_s.append(time.perf_counter() - t0)
        ok = self.tally.record(
            code == expected,
            f"{' '.join(argv)}: exit {code}, expected {expected}: {err.getvalue()[-200:]}",
        )
        return out.getvalue() if ok else None

    def run_round(self, index: int) -> None:
        round_dir = self.work / f"round{index}"
        diagrams = round_dir / "diagrams"
        policies = []
        t_round = time.perf_counter()
        for gait in GAITS:
            for kind in KINDS:
                seeds = self.rng.sample(range(1_000_000), self.seeds_per_run)
                # Always a comma list: a bare integer N means seeds 0..N-1.
                seed_list = ",".join(map(str, seeds)) + ","
                run_dir = round_dir / f"{gait.value}_{kind.value}"
                argv = [
                    "train", "--gait", gait.value, "--wrapper", kind.value,
                    "--seeds", seed_list, "--out", str(run_dir), *self.budget,
                ]
                t0 = time.perf_counter()
                if self._call(argv, cli.EXIT_OK) is None:
                    continue
                self.steps += int(self.budget[1]) * len(seeds)
                self.step_s += time.perf_counter() - t0
                for seed in seeds:
                    policies.append((gait, kind, run_dir / f"policy_seed{seed}.csv"))
        diagrams.mkdir(parents=True)
        for n, (gait, kind, policy) in enumerate(policies):
            flags = ["--gait", gait.value, "--wrapper", kind.value, "--policy", str(policy)]
            out = self._call(["eval", *flags], cli.EXIT_OK)
            if out is not None:
                lines = out.split()
                self.tally.record(
                    len(lines) == 2 and lines[1].startswith("10,"),
                    f"eval {policy}: unexpected output {out!r}",
                )
            diagram = diagrams / f"d{n}.csv"
            trajectory = diagrams / f"t{n}.csv"
            out = self._call(
                ["diagram", *flags, "--out", str(diagram), "--trajectory", str(trajectory)],
                cli.EXIT_OK,
            )
            if out is not None:
                self.tally.record(
                    diagram.exists() and trajectory.exists(),
                    f"diagram {policy}: output files missing",
                )
        for path, expected in self.validate_inputs:
            self._call(["validate", str(path)], expected)
        if self._call(["compare", str(round_dir)], cli.EXIT_OK) is not None:
            self._check_compare(round_dir / cli.COMPARE_NAME)
        self.round_s.append(time.perf_counter() - t_round)

        for path in round_dir.rglob("*"):
            if path.is_file():
                self.files_written += 1
                self.bytes_written += path.stat().st_size
        if self.tracer is not None:
            counters = self.tracer.counters
            counters["cli.files_written"] = self.files_written
            counters["cli.bytes_written"] = self.bytes_written
        shutil.rmtree(round_dir)

    def _check_compare(self, path: Path) -> None:
        lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
        rows = [l.split(",") for l in lines[1:]]
        complete = [
            r for r in rows
            if len(r) == 8 and r[2] == str(self.seeds_per_run) and r[7] == "yes"
        ]
        expected = len(GAITS) * len(KINDS)
        self.tally.record(
            len(rows) == expected and len(complete) == expected,
            f"compare.csv: {len(complete)} complete of {len(rows)} rows, expected {expected}",
        )

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def report(self) -> dict:
        return {
            "cli.files_written": (self.files_written, "count"),
            "cli.bytes_written": (self.bytes_written, "bytes"),
        }


WORKLOADS = {w.name: w for w in (TrainWorkload, VerifyWorkload, CampaignWorkload)}
