#!/usr/bin/env python3
"""gaitrm benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload train|verify|campaign \\
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``gaitrm`` from
``src/`` beside this directory and from nowhere else.

With ``--trace 0`` it measures the end-to-end metrics. ``setup_s`` is
the median over fresh processes of process start to workload ready;
everything else comes from this process running rounds of the workload
for ``--seconds`` seconds. With ``--trace 1`` it runs the same rounds
twice in this process, untraced for a third of ``--seconds`` and then
traced, and reports the per-layer metrics of the traced pass.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code 0 means every output check passed; 1 means a check failed
(the result line is still printed); 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "_results"

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60

# The workload-specific name of each end-to-end metric, printed beside it.
WORKLOAD_NAMES = {
    "train": {"steps_per_s": "learner_steps_per_s"},
    "verify": {"steps_per_s": "verified_steps_per_s"},
    "campaign": {
        "steps_per_s": "learner_steps_per_s",
        "round_s": "campaign_s",
        "call_s.p50": "cli_call_s.p50",
        "call_s.p90": "cli_call_s.p90",
    },
}


def import_gaitrm():
    """Import gaitrm from this checkout's ``src/``; exit 2 if absent."""
    if not (SRC / "gaitrm" / "__init__.py").is_file():
        print(f"error: no gaitrm sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import gaitrm

    if Path(gaitrm.__file__).resolve().parent != SRC / "gaitrm":
        print(f"error: imported gaitrm from {gaitrm.__file__}", file=sys.stderr)
        sys.exit(2)
    import workloads

    return workloads


def environment(args) -> dict:
    """What a result must be compared like for like on."""
    commit = "unknown"
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "gaitrm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def probe_setup(args) -> int:
    """Child side of a set-up probe: get ready, say so, tear down."""
    workload = import_gaitrm().WORKLOADS[args.workload](args.seed, ROOT)
    try:
        workload.setup()
        print("ready", flush=True)
    finally:
        workload.close()
    return 0


def measure_setup(args, tally) -> list[float]:
    """Process start to workload ready, in fresh processes."""
    samples = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            tally.record(False, "set-up probe timed out")
            continue
        if tally.record(line.strip() == "ready" and proc.returncode == 0,
                        f"set-up probe failed: {err[-300:]}"):
            samples.append(elapsed)
    return samples


def run_rounds(workload, seconds: float, rounds: int | None = None):
    """Rounds back to back while another round of the last one's length
    still fits in ``seconds`` (at least one), or exactly ``rounds``.
    Returns the round count and each round's (steps, step seconds)."""
    per_round = []
    start = time.perf_counter()
    index = 0
    while True:
        steps, step_s = workload.steps, workload.step_s
        t0 = time.perf_counter()
        workload.run_round(index)
        now = time.perf_counter()
        per_round.append((workload.steps - steps, workload.step_s - step_s))
        index += 1
        if rounds is not None:
            if index >= rounds:
                break
        elif now - start + (now - t0) > seconds:
            break
    return index, per_round


def end_to_end(args, workloads_mod) -> tuple[dict, dict, object]:
    tally = workloads_mod.Tally()
    setup = measure_setup(args, tally)
    workload = workloads_mod.WORKLOADS[args.workload](args.seed, ROOT)
    try:
        workload.setup()
        rounds, per_round = run_rounds(workload, args.seconds)
        workload.finish()
    finally:
        workload.close()
    tally.merge(workload.tally)

    rates = [steps / secs for steps, secs in per_round if secs > 0]
    calls = sorted(workload.call_s)
    metrics = {
        "setup_s": (statistics.median(setup) if setup else float("nan"), "s"),
        "steps_per_s": (statistics.median(rates) if rates else float("nan"), "1/s"),
        "round_s": (statistics.median(workload.round_s), "s"),
        "call_s.p50": (statistics.median(calls), "s"),
        "call_s.p90": (
            statistics.quantiles(calls, n=10, method="inclusive")[8]
            if len(calls) > 1 else calls[0],
            "s",
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {
        "rounds": rounds,
        "setup_s": len(setup),
        "steps_per_s": len(rates),
        "round_s": len(workload.round_s),
        "call_s": len(calls),
    }
    per_round_values = {"steps_per_s": rates, "round_s": workload.round_s}
    info = {"samples": samples, "extra": workload.report(), "per_round": per_round_values}
    return metrics, info, tally


def per_layer(args, workloads_mod) -> tuple[dict, dict, object]:
    import tracing

    cls = workloads_mod.WORKLOADS[args.workload]
    tally = workloads_mod.Tally()

    def one_pass(tracer, seconds, rounds=None):
        workload = cls(args.seed, ROOT)
        workload.tracer = tracer
        t0 = time.perf_counter()
        try:
            workload.setup()
            done, _ = run_rounds(workload, seconds, rounds)
            workload.finish()
            wall = time.perf_counter() - t0
        finally:
            workload.close()
        tally.merge(workload.tally)
        return done, wall

    # The untraced pass gets a third of the time, so that the traced
    # pass over the same rounds (slower by the tracing) fits the rest.
    rounds, untraced_s = one_pass(None, args.seconds / 3)
    tracer = tracing.Tracer(run_id=f"{args.workload}-seed{args.seed}-{os.getpid()}")
    tracing.instrument(tracer)
    try:
        _, traced_s = one_pass(tracer, 0, rounds)
    finally:
        tracer.restore()
    metrics = tracer.metrics(traced_s, untraced_s)
    trace_path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(trace_path, {"untraced_s": untraced_s, "traced_s": traced_s})
    info = {
        "samples": {"rounds": rounds, "spans": len(tracer.spans)},
        "extra": {},
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return metrics, info, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["train", "verify", "campaign"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    if args.probe_setup:
        return probe_setup(args)
    workloads_mod = import_gaitrm()
    env_info = environment(args)
    measure = per_layer if args.trace else end_to_end
    metrics, info, tally = measure(args, workloads_mod)

    print(f"gaitrm benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {info['samples']['rounds']} rounds")
    print("environment: " + json.dumps(env_info, sort_keys=True))
    aliases = WORKLOAD_NAMES[args.workload] if not args.trace else {}
    for name, (value, unit) in {**metrics, **info["extra"]}.items():
        alias = f"  (= {aliases[name]})" if name in aliases else ""
        if name.startswith("call_s."):
            alias += f"  n={info['samples']['call_s']}"
        print(f"  {name:44s} {value!r:>24} {unit}{alias}")
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'error_rate':44s} {error_rate!r:>24} ratio  "
          f"({tally.failed} failed of {tally.attempted} operations)")
    print("samples: " + json.dumps(info["samples"]))
    for message in tally.messages:
        print(f"FAILED: {message}")

    correct = tally.failed == 0 and tally.attempted > 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {"environment": env_info, **info, "error_rate": error_rate, **result}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
