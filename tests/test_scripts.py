"""Runs of the experiment scripts at tiny sizes: each must exit 0, and
float32 training must stay near float64."""

import json
import shutil
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

# The error of one float32 step against float64 from the same parameters
# and batch (``drift.py --local``), largest over 10 overfit steps at batch
# 8, train seeds 1-7, measured joint 1.2e-7 to 2.0e-7 and gradient 3.6e-7
# to 6.0e-7.  A float32 Phi off by 1e-6 relative reads joint 1.1e-6 to
# 1.4e-6 and gradient 1.4e-6 to 2.0e-6 on every one of these seeds.
ONE_STEP_GAP_BOUNDS = {"joint": 5e-7, "grad": 1e-6}
TRAIN_SEEDS = range(1, 8)


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


def one_step_gaps(src) -> dict:
    """{train seed: {"joint": gap, "grad": gap}} of ``drift.py --local``
    over 10 steps at batch 8 with the stdialog package under ``src``."""
    gaps = drift_gaps("--steps", "10", "--batch", "8", "--src", str(src),
                      "--local", *map(str, TRAIN_SEEDS))
    assert list(gaps) == [str(seed) for seed in TRAIN_SEEDS]
    return gaps


def within_bounds(gaps: dict) -> bool:
    assert gaps.keys() == ONE_STEP_GAP_BOUNDS.keys()
    return all(gaps[k] <= ONE_STEP_GAP_BOUNDS[k] for k in gaps)


def test_one_float32_step_stays_near_float64_on_every_seed():
    gaps = one_step_gaps(ROOT / "src")
    assert all(within_bounds(seed) for seed in gaps.values()), gaps


def test_one_step_gaps_draw_the_trainer_s_batch():
    # 40 of the preset's 32 samples: the trainer's draw takes a whole
    # permutation and 8 more, where a draw without replacement fails
    gaps = drift_gaps("--steps", "1", "--batch", "40", "--local", "1")
    assert list(gaps) == ["1"] and within_bounds(gaps["1"]), gaps


def test_one_step_check_fails_a_planted_phi_error(tmp_path):
    """A float32 Phi off by 1e-6 relative, in a copy of the package."""
    shutil.copytree(ROOT / "src" / "stdialog", tmp_path / "stdialog",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "stdialog" / "autodiff.py"
    source = path.read_text()
    tail = "    out += 0.5\n    return out\n"   # the end of _normal_cdf_f32
    assert source.count(tail) == 1
    path.write_text(source.replace(
        tail, "    out += 0.5\n    out *= np.float32(1 + 1e-6)\n"
              "    return out\n"))
    gaps = one_step_gaps(tmp_path)
    assert not any(within_bounds(seed) for seed in gaps.values()), gaps
