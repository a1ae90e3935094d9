import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("prefix", ["01_", "02_", "03_", "04_", "05_", "06_", "07_"])
def test_demo_runs(prefix, tmp_path, subprocess_env):
    # 01 and 05 drive the Monte Carlo sampler, 02 the state-vector layer, 03
    # the depolarizing trajectories, 04 the engine on a built grid, 06 the
    # ablation and noise sweeps and 07 the resource estimates
    (script,) = DEMOS.glob(f"{prefix}*.py")
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=subprocess_env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
