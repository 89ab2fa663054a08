"""Command-line entry point: validate machine files, run training
campaigns, evaluate policies, and emit foot-contact diagrams and
comparison tables.

All outputs are plain comma-separated text with a header row (plotting
is left to external tooling), and every command is deterministic given
its flags and seeds. Exit codes: 0 success, 1 I/O or parse error,
2 semantic error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import statistics
import sys
import warnings
from pathlib import Path
from typing import Sequence

from . import __version__
from .env import MAX_EPISODE_LENGTH, ToyEnvConfig, ToyQuadrupedEnv
from .learn import (
    MAX_EVAL_EPISODES,
    EvalMetrics,
    LearnerConfig,
    QTable,
    ReferenceGaitPolicy,
    evaluate,
    rollout,
    train,
)
from .machine import (
    Gait,
    RewardMachine,
    RewardParams,
    RmFormatError,
    build_gait_rm,
    load_rm,
    loads_json,
    validate,
)
from .wrappers import GaitEnvWrapper, WrapperKind, make_wrapper

EXIT_OK = 0
EXIT_IO = 1
EXIT_SEMANTIC = 2

MANIFEST_NAME = "manifest.json"
# The largest seed count ``train --seeds N`` accepts.
MAX_SEED_COUNT = 10_000
COMPARE_NAME = "compare.csv"


class CliSemanticError(Exception):
    """Bad flag combination or inconsistent inputs; exits with code 2."""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(
    path: Path, header: Sequence[str], rows: Sequence[Sequence], manifest: str | None
) -> None:
    lines = []
    if manifest is not None:
        lines.append(f"# manifest: {manifest}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(map(_fmt, row)))
    path.write_text("\n".join(lines) + "\n")


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    header: list[str] | None = None
    rows = []
    for line in path.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    if header is None:
        raise RmFormatError(f"{path}: no header row")
    return header, rows


def _parse_seeds(text: str) -> list[int]:
    """A bare integer N means seeds 0..N-1; a comma list is explicit
    and must name at least one seed, each once."""
    if "," in text:
        seeds = [int(part) for part in text.split(",") if part.strip() != ""]
        if not seeds:
            raise CliSemanticError(f"seed list {text!r} names no seed")
        repeated = sorted({s for s in seeds if seeds.count(s) > 1})
        if repeated:
            raise CliSemanticError(f"seeds listed more than once: {repeated}")
        return seeds
    count = int(text)
    if count <= 0:
        raise CliSemanticError(f"seed count must be positive, got {count}")
    if count > MAX_SEED_COUNT:
        raise CliSemanticError(
            f"seed count must be at most {MAX_SEED_COUNT}, got {count}"
        )
    return list(range(count))


def _load_run_configs(
    args: argparse.Namespace,
) -> tuple[ToyEnvConfig, LearnerConfig, RewardParams]:
    env_doc: dict = {}
    learner_doc: dict = {}
    params_doc: dict = {}
    if getattr(args, "config", None):
        doc = loads_json(Path(args.config).read_text())
        if not isinstance(doc, dict):
            raise CliSemanticError("config document root must be an object")
        unknown = sorted(set(doc) - {"env", "learner", "reward"})
        if unknown:
            raise CliSemanticError(f"config: unknown sections {unknown}")
        for name in ("env", "learner", "reward"):
            if not isinstance(doc.get(name, {}), dict):
                raise CliSemanticError(f"config: section {name!r} must be an object")
        env_doc = doc.get("env", {})
        learner_doc = doc.get("learner", {})
        params_doc = doc.get("reward", {})
    if getattr(args, "total_steps", None) is not None:
        learner_doc["total_steps"] = args.total_steps
    if getattr(args, "eval_every", None) is not None:
        learner_doc["eval_every"] = args.eval_every
    if getattr(args, "episode_length", None) is not None:
        env_doc["episode_length"] = args.episode_length
    try:
        env_config = ToyEnvConfig(**env_doc)
        learner_config = LearnerConfig(**learner_doc)
        params = RewardParams(**params_doc)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliSemanticError(f"bad configuration: {exc}") from exc
    return env_config, learner_config, params


def _resolve_machine(
    gait_name: str | None, kind: WrapperKind, params: RewardParams
) -> tuple[Gait | None, RewardMachine | None]:
    """The gait and its machine; every wrapper but no_gait needs one."""
    if gait_name is None:
        if kind is not WrapperKind.NO_GAIT:
            raise CliSemanticError(f"--wrapper {kind.value} requires --gait")
        return None, None
    gait = Gait(gait_name)
    return gait, build_gait_rm(gait, params)


def load_policy(path: str | Path) -> QTable:
    header, rows = _read_csv(Path(path))
    expected = ["key"] + [f"q{a}" for a in range(16)]
    if header != expected:
        raise RmFormatError(f"{path}: unexpected policy header {header}")
    q: QTable = {}
    for row in rows:
        if len(row) != len(expected):
            raise RmFormatError(
                f"{path}: policy row {row[0]!r} has {len(row)} fields, "
                f"expected {len(expected)}"
            )
        try:
            key = int(row[0])
            values = [float(v) for v in row[1:]]
        except ValueError as exc:
            raise RmFormatError(f"{path}: policy row {row[0]!r}: {exc}") from exc
        if not all(math.isfinite(v) for v in values):
            raise RmFormatError(f"{path}: policy row {key} has non-finite values")
        if key in q:
            raise RmFormatError(f"{path}: policy key {key} appears twice")
        q[key] = values
    return q


def _resolve_policy(spec: str, wrapper: GaitEnvWrapper):
    """A policy argument is a Q-table CSV path or ``reference:<gait>``.
    A Q-table must fit the key space of the wrapper it runs under."""
    if spec.startswith("reference:"):
        gait = Gait(spec.split(":", 1)[1])
        return ReferenceGaitPolicy(gait)
    policy = load_policy(spec)
    size = wrapper.key_space
    oversized = [k for k in policy if not 0 <= k < size]
    if oversized:
        raise CliSemanticError(
            f"policy keys {oversized[:3]}... do not fit wrapper "
            f"{wrapper.kind.value} (key space {size})"
        )
    return policy


def _policy_rows(q: QTable) -> list[list]:
    return [[key, *q[key]] for key in sorted(q)]


def cmd_validate(args: argparse.Namespace) -> int:
    path = Path(args.file)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rm, _ = load_rm(path)
    except (OSError, RmFormatError, UnicodeDecodeError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    report = validate(rm)
    print(f"machine: {path}")
    print(f"states: {len(rm.states)}, transitions: {len(rm.transitions)}")
    print(report.describe())
    return EXIT_OK if report.valid else EXIT_SEMANTIC


def _curve_rows(curve: list[tuple[int, EvalMetrics]]) -> list[list]:
    return [
        [step, m.mean_return, m.mean_pose_transitions, m.mean_distance]
        for step, m in curve
    ]


CURVE_HEADER = ["step", "mean_return", "mean_pose_transitions", "mean_distance"]
AGGREGATE_HEADER = [
    "step",
    "mean_return_mean",
    "mean_return_std",
    "mean_pose_transitions_mean",
    "mean_pose_transitions_std",
    "mean_distance_mean",
    "mean_distance_std",
]


def _aggregate_rows(curves: list[list[tuple[int, EvalMetrics]]]) -> list[list]:
    if not curves:
        return []
    steps = [step for step, _ in curves[0]]
    for curve in curves[1:]:
        if [step for step, _ in curve] != steps:
            raise CliSemanticError("cannot aggregate curves on different step grids")
    rows = []
    for i, step in enumerate(steps):
        returns = [curve[i][1].mean_return for curve in curves]
        transitions = [curve[i][1].mean_pose_transitions for curve in curves]
        distances = [curve[i][1].mean_distance for curve in curves]
        rows.append(
            [
                step,
                statistics.mean(returns),
                statistics.pstdev(returns),
                statistics.mean(transitions),
                statistics.pstdev(transitions),
                statistics.mean(distances),
                statistics.pstdev(distances),
            ]
        )
    return rows


def cmd_train(args: argparse.Namespace) -> int:
    kind = WrapperKind(args.wrapper)
    env_config, learner_config, params = _load_run_configs(args)
    gait, rm = _resolve_machine(args.gait, kind, params)
    seeds = _parse_seeds(args.seeds)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    manifest = {
        "toolkit_version": __version__,
        "gait": gait.value if gait is not None else None,
        "wrapper": kind.value,
        "seeds": seeds,
        "learner": dataclasses.asdict(learner_config),
        "env": dataclasses.asdict(env_config),
        "reward": dataclasses.asdict(params),
        "out_dir": str(args.out),
        "files": {
            "curves": {str(s): f"curve_seed{s}.csv" for s in seeds},
            "policies": {str(s): f"policy_seed{s}.csv" for s in seeds},
            "aggregate": "curve_aggregate.csv",
        },
    }
    (out_dir / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")

    curves = []
    for seed in seeds:
        wrapper = make_wrapper(kind, ToyQuadrupedEnv(env_config), rm, params)
        config = dataclasses.replace(learner_config, seed=seed)
        q, curve = train(wrapper, config, tracker_rm=rm)
        curves.append(curve)
        _write_csv(
            out_dir / f"curve_seed{seed}.csv",
            CURVE_HEADER,
            _curve_rows(curve),
            MANIFEST_NAME,
        )
        _write_csv(
            out_dir / f"policy_seed{seed}.csv",
            ["key"] + [f"q{a}" for a in range(16)],
            _policy_rows(q),
            MANIFEST_NAME,
        )
        if curve:
            final = curve[-1][1]
            print(
                f"seed {seed}: return {final.mean_return:.3f}, "
                f"pose transitions {final.mean_pose_transitions:.1f}, "
                f"distance {final.mean_distance:.3f}"
            )
        else:
            print(f"seed {seed}: no evaluations (total_steps=0)")
    _write_csv(
        out_dir / "curve_aggregate.csv",
        AGGREGATE_HEADER,
        _aggregate_rows(curves),
        MANIFEST_NAME,
    )
    print(f"wrote {len(seeds)} runs to {out_dir}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    kind = WrapperKind(args.wrapper)
    env_config, _, params = _load_run_configs(args)
    _, rm = _resolve_machine(args.gait, kind, params)
    wrapper = make_wrapper(kind, ToyQuadrupedEnv(env_config), rm, params)
    policy = _resolve_policy(args.policy, wrapper)
    metrics = evaluate(policy, wrapper, tracker_rm=rm, episodes=args.episodes)
    print("episodes,mean_return,mean_pose_transitions,mean_distance")
    print(
        f"{metrics.episodes},{_fmt(metrics.mean_return)},"
        f"{_fmt(metrics.mean_pose_transitions)},{_fmt(metrics.mean_distance)}"
    )
    return EXIT_OK


DIAGRAM_HEADER = [
    "step",
    "fl_contact",
    "fr_contact",
    "bl_contact",
    "br_contact",
    "rm_state",
    "transition",
]

TRAJECTORY_HEADER = [
    "step",
    "action",
    "h_fl",
    "h_fr",
    "h_bl",
    "h_br",
    "l_fl",
    "l_fr",
    "l_bl",
    "l_br",
    "delta_x",
    "power",
    "reward",
    "rm_state",
    "terminated",
    "truncated",
]


def cmd_diagram(args: argparse.Namespace) -> int:
    kind = WrapperKind(args.wrapper)
    env_config, _, params = _load_run_configs(args)
    if not 0 < args.steps <= MAX_EPISODE_LENGTH:
        raise CliSemanticError(
            f"--steps must be in [1, {MAX_EPISODE_LENGTH}], got {args.steps}"
        )
    # The diagram horizon overrides the episode length so any requested
    # window can be drawn.
    env_config = dataclasses.replace(env_config, episode_length=args.steps)
    gait, rm = _resolve_machine(args.gait, kind, params)
    if rm is None:
        raise CliSemanticError("diagram requires --gait for the automaton column")
    wrapper = make_wrapper(kind, ToyQuadrupedEnv(env_config), rm, params)
    policy = _resolve_policy(args.policy, wrapper)
    run = rollout(policy, wrapper, tracker_rm=rm)

    rows = []
    for s in run.steps:
        contacts = [1 if h == 0.0 else 0 for h in s.foot_heights]
        rows.append([s.index, *contacts, s.rm_state, 1 if s.transition else 0])
    out_path = Path(args.out)
    _write_csv(out_path, DIAGRAM_HEADER, rows, None)
    if len(run.steps) < args.steps:
        with out_path.open("a") as fh:
            fh.write(f"# terminated early after step {len(run.steps)}\n")
    if args.trajectory:
        trows = [
            [
                s.index,
                s.action,
                *s.foot_heights,
                *s.label_bits,
                s.delta_x,
                s.power,
                s.reward,
                s.rm_state,
                s.terminated,
                s.truncated,
            ]
            for s in run.steps
        ]
        _write_csv(Path(args.trajectory), TRAJECTORY_HEADER, trows, None)
    print(
        f"wrote {len(run.steps)} steps to {args.out} "
        f"({run.pose_transitions} transitions, {run.distance:.3f} m)"
    )
    return EXIT_OK


COMPARE_HEADER = [
    "gait",
    "wrapper",
    "seeds",
    "pose_transitions_mean",
    "pose_transitions_std",
    "distance_mean",
    "distance_std",
    "complete",
]


def _final_metrics_from_curve(path: Path) -> tuple[float, float] | None:
    if not path.exists():
        return None
    header, rows = _read_csv(path)
    if header != CURVE_HEADER or not rows:
        return None
    last = rows[-1]
    if len(last) != len(CURVE_HEADER):
        raise RmFormatError(
            f"{path}: last curve row has {len(last)} fields, expected {len(CURVE_HEADER)}"
        )
    try:
        return float(last[2]), float(last[3])
    except ValueError as exc:
        raise RmFormatError(f"{path}: last curve row: {exc}") from exc


def _read_manifest(path: Path) -> dict:
    """A run manifest with the fields ``compare`` reads, or RmFormatError."""
    doc = loads_json(path.read_text())
    if not isinstance(doc, dict):
        raise RmFormatError(f"{path}: manifest root must be an object")
    missing = sorted({"gait", "wrapper", "seeds", "files"} - set(doc))
    if missing:
        raise RmFormatError(f"{path}: manifest lacks fields {missing}")
    seeds = doc["seeds"]
    if not isinstance(seeds, list) or not all(
        isinstance(s, int) and not isinstance(s, bool) for s in seeds
    ):
        raise RmFormatError(f"{path}: manifest 'seeds' must be a list of integers")
    if len(set(seeds)) != len(seeds):
        raise RmFormatError(f"{path}: manifest 'seeds' lists a seed more than once")
    # List membership compares by ==, so unhashable values are refused too.
    if doc["gait"] not in [None, *(g.value for g in Gait)]:
        raise RmFormatError(f"{path}: manifest 'gait' must be null or a gait name")
    if doc["wrapper"] not in [k.value for k in WrapperKind]:
        raise RmFormatError(f"{path}: manifest 'wrapper' must be a wrapper kind")
    curves = doc["files"].get("curves") if isinstance(doc["files"], dict) else None
    if not isinstance(curves, dict) or not all(
        isinstance(curves.get(str(s)), str) for s in seeds
    ):
        raise RmFormatError(
            f"{path}: manifest 'files.curves' must name a curve file per seed"
        )
    return doc


def cmd_compare(args: argparse.Namespace) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        print(f"error: {root}: not a directory", file=sys.stderr)
        return EXIT_IO
    manifests = sorted(root.glob(f"**/{MANIFEST_NAME}"))
    if not manifests:
        raise CliSemanticError(f"no completed run manifests under {root}")

    rows = []
    for manifest_path in manifests:
        doc = _read_manifest(manifest_path)
        run_dir = manifest_path.parent
        finals = []
        missing = 0
        for seed in doc["seeds"]:
            curve_name = doc["files"]["curves"][str(seed)]
            final = _final_metrics_from_curve(run_dir / curve_name)
            if final is None:
                missing += 1
            else:
                finals.append(final)
        transitions = [f[0] for f in finals]
        distances = [f[1] for f in finals]
        complete = "yes" if missing == 0 and finals else "no"
        if finals:
            row = [
                doc["gait"] if doc["gait"] is not None else "-",
                doc["wrapper"],
                len(finals),
                statistics.mean(transitions),
                statistics.pstdev(transitions),
                statistics.mean(distances),
                statistics.pstdev(distances),
                complete,
            ]
        else:
            row = [
                doc["gait"] if doc["gait"] is not None else "-",
                doc["wrapper"],
                0,
                "",
                "",
                "",
                "",
                "no",
            ]
        rows.append(row)
    rows.sort(key=lambda r: (str(r[0]), str(r[1])))

    _write_csv(root / COMPARE_NAME, COMPARE_HEADER, rows, None)
    print(",".join(COMPARE_HEADER))
    for row in rows:
        print(",".join(_fmt(v) for v in row))
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaitrm",
        description="Gait machines, baselines and tabular training on the toy quadruped.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a machine file for determinism/totality")
    p.add_argument("file")

    def add_run_flags(p: argparse.ArgumentParser, with_learner: bool) -> None:
        p.add_argument(
            "--gait", choices=[g.value for g in Gait], default=None
        )
        p.add_argument(
            "--wrapper",
            choices=[k.value for k in WrapperKind],
            default=WrapperKind.NAIVE.value,
        )
        p.add_argument("--config", help="JSON file with env/learner/reward sections")
        p.add_argument(
            "--episode-length", type=int, help=f"1 <= N <= {MAX_EPISODE_LENGTH}"
        )
        if with_learner:
            p.add_argument(
                "--total-steps",
                type=int,
                default=None,
                help=f"learner steps per seed, 0 <= N <= {sys.maxsize}",
            )
            p.add_argument("--eval-every", type=int, default=None)

    p = sub.add_parser("train", help="run a seeded training campaign")
    add_run_flags(p, with_learner=True)
    p.add_argument(
        "--seeds",
        default="5",
        help=f"seed count N <= {MAX_SEED_COUNT} (runs 0..N-1) "
        "or explicit comma list, e.g. 0,3,7",
    )
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("eval", help="evaluate a policy for 10 greedy episodes")
    add_run_flags(p, with_learner=False)
    p.add_argument("--policy", required=True, help="policy CSV or reference:<gait>")
    p.add_argument(
        "--episodes", type=int, default=10, help=f"1 <= N <= {MAX_EVAL_EPISODES}"
    )

    p = sub.add_parser("diagram", help="write a foot-contact diagram for a policy")
    add_run_flags(p, with_learner=False)
    p.add_argument("--policy", required=True, help="policy CSV or reference:<gait>")
    p.add_argument(
        "--steps", type=int, default=100, help=f"1 <= N <= {MAX_EPISODE_LENGTH}"
    )
    p.add_argument("--out", required=True, help="diagram CSV path")
    p.add_argument("--trajectory", default=None, help="also write a full step log here")

    p = sub.add_parser("compare", help="tabulate completed campaigns in a directory")
    p.add_argument("dir")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up per call, not bound into the cached parser, so a patched cmd_* runs.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except CliSemanticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except (OSError, RmFormatError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
