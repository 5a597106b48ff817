"""Runs of the experiment scripts at tiny sizes: each must exit 0, and
float32 training must stay near float64."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# The largest relative gap of each loss between float32 and float64 over
# 10 overfit steps at batch 8 measured 8.9e-7 (joint), 1.1e-5 (tpp),
# 1.3e-6 (crs), 6.6e-7 (cmlm) and 5.4e-6 (cmam); each bound is about 4.5
# times that.  A float32 Phi off by 1e-6 relative reads 4.2e-6 (joint)
# and one missing its top polynomial term 1.8e-5.
FLOAT64_GAP_BOUNDS = {"joint": 4e-6, "tpp": 5e-5, "crs": 6e-6,
                      "cmlm": 3e-6, "cmam": 2.5e-5}


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
    if script == "overfit_sanity.py":
        assert "constant-predictor alignment MAE" in result.stdout


def drift_gaps(*args) -> dict:
    """The last line of ``scripts/drift.py``'s output: each loss's gap."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "drift.py"), *args],
        capture_output=True, text=True, env={"PATH": "/usr/bin:/bin"})
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_float32_training_stays_near_float64():
    gaps = drift_gaps("--steps", "10", "--batch", "8")
    assert gaps.keys() == FLOAT64_GAP_BOUNDS.keys()
    assert all(gaps[k] <= FLOAT64_GAP_BOUNDS[k] for k in gaps), gaps


def test_drift_against_the_same_tree_is_zero():
    gaps = drift_gaps("--steps", "2", "--batch", "4",
                      "--against", str(ROOT / "src"))
    assert set(gaps.values()) == {0.0}
