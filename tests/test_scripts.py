"""Smoke runs of the experiment scripts at tiny sizes: each must exit 0."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("masking_rate.py", ["--trials", "10000"]),
    ("ablation_matrix.py", ["--steps", "1"]),
    ("crossmodal_finetune.py", ["--pretrain-steps", "1",
                                "--finetune-steps", "1"]),
    ("overfit_sanity.py", ["--steps", "2"]),
    ("fingerprint.py", []),
])
def test_script_runs(script, args):
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin"})
    assert result.returncode == 0, result.stderr
