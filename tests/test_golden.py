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
from pathlib import Path

from gaitrm.cli import MANIFEST_NAME, main
from gaitrm.machine import Gait
from gaitrm.wrappers import WrapperKind

GOLDEN = Path(__file__).resolve().parent / "golden_campaign_sha256.json"

BUDGET = ["--seeds", "0,1", "--total-steps", "2000", "--eval-every", "1000"]


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
