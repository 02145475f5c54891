"""The demos run end to end, each in a fresh interpreter. They write their
reports into the working directory, so each runs in a temporary one.

The same harness checks that the library's paths that rotate no image run on
numpy alone: pytest itself loads scipy (``formats.py``), so that check needs a
fresh interpreter too."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from rotoconv.basis import load_basis

from formats import read_pgm

ROOT = Path(__file__).resolve().parent.parent


def run_python(args, cwd):
    """A fresh interpreter with ``src`` on its path, run in ``cwd``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def run_demo(name, cwd):
    return run_python([str(ROOT / "demos" / name)], cwd)


@pytest.mark.parametrize("name,outputs", [
    ("05_group_network.py", ()),
    ("06_equivariance_audit.py", ("sweep_group.csv", "sweep_plain.csv",
                                  "robustness_group.csv")),
    ("02_rotation_operators.py", ("rotation_45deg.triplets",)),
    ("03_autodiff.py", ()),
    ("01_group_algebra.py", ()),
    ("04_pretrain_basis.py", ("learned_partial.rcbs", "learned_partial.pgm")),
])
def test_demo_runs(tmp_path, name, outputs):
    proc = run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    for out in outputs:
        path = tmp_path / out
        if path.suffix == ".rcbs":
            assert load_basis(path).kind == "partial"
        elif path.suffix == ".pgm":
            assert read_pgm(path).size > 0, f"{out} is empty"
        else:
            assert len(path.read_text().splitlines()) >= 2, f"{out} has no rows"


NON_ROTATING_PATHS = """
import sys

import numpy as np

import rotoconv
from rotoconv import audit, cli, datasets, network, training
from rotoconv.basis import populate_partial, save_basis
from rotoconv.groups import RotationOperators
from rotoconv.verify import small_group_model

basis = populate_partial(np.random.default_rng(0).uniform(-1, 1, (2, 2, 3, 3)))
save_basis(basis, "basis.rcbs")
data = datasets.synthetic_labeled_set(8, 8, 2, seed=0)
model = small_group_model(basis, channels=(2, 2), classes=2, dtype="float32")
training.train(model, data, training.TrainConfig(epochs=1, batch_size=4, flip=True,
                                                 max_translate=2, color_normalize=True))
network.save_checkpoint(model, "model.ckpt")
model = network.load_checkpoint("model.ckpt", basis)
training.evaluate(model, data)
audit.quarter_turn_drift(model, data.images)
assert cli.main(["train", "--n-train", "8", "--epochs", "1", "--batch-size", "8",
                 "--basis", "basis.rcbs", "--out", "cli.ckpt"]) == 0
assert cli.main(["inspect-basis", "--basis", "basis.rcbs", "--out", "basis.pgm"]) == 0
assert "scipy" not in sys.modules, "scipy loaded before any rotation matrix"

RotationOperators(9, 8).apply(np.ones((2, 9, 9)), 1)
assert "scipy" in sys.modules, "the first rotation matrix did not load scipy"
"""


def test_scipy_loads_with_the_first_rotation_matrix(tmp_path):
    proc = run_python(["-c", NON_ROTATING_PATHS], tmp_path)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
