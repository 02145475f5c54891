"""The demos run end to end. They write their reports into the working
directory, so each runs in a temporary one."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name,outputs", [
    ("05_group_network.py", ()),
    ("06_equivariance_audit.py", ("sweep_group.csv", "sweep_plain.csv",
                                  "robustness_group.csv")),
    ("02_rotation_operators.py", ("rotation_45deg.triplets",)),
    ("03_autodiff.py", ()),
])
def test_demo_runs(tmp_path, name, outputs):
    proc = run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    for out in outputs:
        lines = (tmp_path / out).read_text().splitlines()
        assert len(lines) >= 2, f"{out} has no rows"
