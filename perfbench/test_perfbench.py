"""Tests of the benchmark itself, at a tiny size.

Run from the checkout root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import warnings

import pytest

import run

workloads = run.import_gaitrm()

import gaitrm.machine as machine  # noqa: E402  (importable once run has set the path)
import gaitrm.wrappers as wrappers  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so one round takes about a second."""
    monkeypatch.setattr(workloads.TrainWorkload, "total_steps", 5_000)
    monkeypatch.setattr(workloads.VerifyWorkload, "depth", 2)
    monkeypatch.setattr(workloads.VerifyWorkload, "rollouts", 2)
    monkeypatch.setattr(workloads.CampaignWorkload, "seeds_per_run", 1)
    monkeypatch.setattr(
        workloads.CampaignWorkload, "budget", ("--total-steps", "200", "--eval-every", "100")
    )
    monkeypatch.setattr(workloads.CampaignWorkload, "docs_per_category", 2)
    monkeypatch.setattr(run, "SETUP_PROBES", 2)


def run_benchmark(capsys, workload: str, trace: int) -> tuple[int, str, dict]:
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    )
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    code, out, result = run_benchmark(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert f"{metric['name']} " in out
    assert "error_rate" in out
    assert result["attempted"] >= 1
    if workload != "train":
        # At 5,000 steps the learner need not reach the transition
        # threshold, so only the other workloads must pass every check.
        assert result["correct"] and result["failed"] == 0 and code == 0


def test_trace_covers_the_layers_each_workload_drives(tiny, capsys):
    _, _, result = run_benchmark(capsys, "campaign", 1)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for name in ("guards.parse_guard", "machine.load_rm", "machine.validate",
                 "learn.train", "learn.evaluate", "cli.train", "cli.compare"):
        assert metrics[f"{name}.calls"] > 0, name
    assert metrics["cli.files_written"] > 0
    assert 0 < metrics["learn.eval_step_share"] < 1
    # Greedy evaluation is deterministic: one distinct rollout in ten.
    assert metrics["learn.eval_distinct_rollout_ratio"] == pytest.approx(0.1)
    assert metrics["learn.eval_distinct_rollout_ratio.base"] > 0
    assert metrics["trace.uncovered_s"] >= 0


def test_corrupted_reward_fails_verify(tiny, capsys, monkeypatch):
    original = wrappers.NaiveWrapper.step

    def corrupted(self, action):
        obs, reward, terminated, truncated, info = original(self, action)
        return obs, reward + 1e-9, terminated, truncated, info

    monkeypatch.setattr(wrappers.NaiveWrapper, "step", corrupted)
    code, out, result = run_benchmark(capsys, "verify", 0)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] > 0
    error_line = next(line for line in out.splitlines() if "error_rate" in line)
    assert float(error_line.split()[1]) > 0


def test_generated_machines_behave_as_labelled():
    import random

    def load(text):
        with warnings.catch_warnings():
            warnings.simplefilter("error", machine.RmValidationWarning)
            return machine.machine_from_document(json.loads(text))

    rng = random.Random(5)
    for _ in range(30):
        rm, _ = load(json.dumps(workloads.valid_machine_doc(rng)))
        assert machine.validate(rm).valid
        rm, _ = load(json.dumps(workloads.invalid_machine_doc(rng)))
        assert not machine.validate(rm).valid
        with pytest.raises((machine.RmFormatError, json.JSONDecodeError)):
            load(workloads.malformed_machine_text(rng))


def test_same_seed_same_inputs(tiny):
    a = workloads.CampaignWorkload(7, run.ROOT)
    b = workloads.CampaignWorkload(7, run.ROOT)
    try:
        a.setup()
        b.setup()
        texts_a = [p.read_text() for p, _ in a.validate_inputs]
        texts_b = [p.read_text() for p, _ in b.validate_inputs]
        assert texts_a == texts_b
    finally:
        a.close()
        b.close()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("_results", "_runs", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
