"""README's Python example and the scripts under scripts/ run as
documented."""

import csv
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("EvalMetrics(")


def test_quick_campaign_script_completes_every_run(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_campaign.py"),
         "--quick", "--seeds", "1", "--out", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    with open(tmp_path / "compare.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 15
    assert {row["complete"] for row in rows} == {"yes"}


def test_generate_machines_script_writes_the_checked_in_files(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "generate_machines", ROOT / "scripts" / "generate_machines.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.MACHINES_DIR == ROOT / "machines"
    # Pointed at a scratch directory, so the checked-in files stay as they are.
    monkeypatch.setattr(module, "MACHINES_DIR", tmp_path)
    module.main()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in (ROOT / "machines").glob("*.json"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (ROOT / "machines" / name).read_bytes()
