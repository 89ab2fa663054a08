"""Byte-identity of a small training campaign against checked-in digests.

Every gait x wrapper is trained through the CLI with seeds 0 and 1 at a
2,000-step budget; the SHA-256 of every file written must match
``golden_campaign_sha256.json``. The manifest records the output
directory, so it is hashed with ``out_dir`` removed. Any change to the
learner, the wrappers, the environment or the CSV writers that alters a
single output byte fails here.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from gaitrm.cli import MANIFEST_NAME, _fmt, main
from gaitrm.machine import Gait
from gaitrm.wrappers import WrapperKind

GOLDEN = Path(__file__).resolve().parent / "golden_campaign_sha256.json"

STEPS = ["--total-steps", "2000", "--eval-every", "1000"]
BUDGET = ["--seeds", "0,1", *STEPS]


def file_digest(path: Path) -> str:
    if path.name == MANIFEST_NAME:
        doc = json.loads(path.read_text())
        del doc["out_dir"]
        data = (json.dumps(doc, indent=2) + "\n").encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def campaign_digests(root: Path) -> dict[str, str]:
    """Train the golden campaign under ``root``; map each written file,
    relative to ``root``, to its digest."""
    for gait in Gait:
        for kind in WrapperKind:
            out = root / f"{gait.value}_{kind.value}"
            argv = ["train", "--gait", gait.value, "--wrapper", kind.value,
                    "--out", str(out), *BUDGET]
            assert main(argv) == 0, argv
    return {
        path.relative_to(root).as_posix(): file_digest(path)
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_campaign_outputs_match_golden_digests(tmp_path, capsys):
    expected = json.loads(GOLDEN.read_text())
    actual = campaign_digests(tmp_path)
    capsys.readouterr()
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"outputs differ from the golden campaign: {changed}"


GOLDEN_RUNS = Path(__file__).resolve().parent / "golden_eval_diagram_sha256.json"


def policy_runs(root: Path, capsys) -> dict[str, str]:
    """Run ``eval`` and ``diagram --trajectory`` on every gait x wrapper,
    once with the seed-0 policy of the golden campaign and once with
    ``reference:<gait>``; map each output to its digest."""
    campaign = json.loads(GOLDEN.read_text())
    digests = {}
    for gait in Gait:
        for kind in WrapperKind:
            name = f"{gait.value}_{kind.value}"
            flags = ["--gait", gait.value, "--wrapper", kind.value]
            trained = root / name
            argv = ["train", *flags, "--out", str(trained), "--seeds", "1", *STEPS]
            assert main(argv) == 0, argv
            policy = trained / "policy_seed0.csv"
            assert file_digest(policy) == campaign[f"{name}/policy_seed0.csv"]
            for label, spec in (("seed0", str(policy)), ("reference", f"reference:{gait.value}")):
                capsys.readouterr()
                assert main(["eval", *flags, "--policy", spec]) == 0
                digests[f"{name}/{label}/eval.stdout"] = hashlib.sha256(
                    capsys.readouterr().out.encode()
                ).hexdigest()
                diagram = root / f"{name}_{label}_diagram.csv"
                trajectory = root / f"{name}_{label}_trajectory.csv"
                argv = ["diagram", *flags, "--policy", spec, "--out", str(diagram),
                        "--trajectory", str(trajectory)]
                assert main(argv) == 0, argv
                digests[f"{name}/{label}/diagram.csv"] = file_digest(diagram)
                digests[f"{name}/{label}/trajectory.csv"] = file_digest(trajectory)
    capsys.readouterr()
    return digests


def test_eval_and_diagram_outputs_match_golden_digests(tmp_path, capsys):
    expected = json.loads(GOLDEN_RUNS.read_text())
    actual = policy_runs(tmp_path, capsys)
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"outputs differ from the golden runs: {changed}"


def fmt_reference(value) -> str:
    """The CSV cell formatter as first written, kept as the reference."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _Float(float):
    pass


@settings(max_examples=500)
@given(
    st.one_of(
        st.booleans(),
        st.integers(),
        st.text(max_size=8),
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                         5e-324, -5e-324, 2.2250738585072014e-308]),
        st.floats().map(_Float),
    )
)
def test_fmt_matches_the_reference(value):
    assert _fmt(value) == fmt_reference(value)
