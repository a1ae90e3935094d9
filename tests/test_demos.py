import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("prefix", ["01_", "05_"])
def test_demo_runs(prefix, tmp_path, subprocess_env):
    # both demos drive the Monte Carlo sampler
    (script,) = DEMOS.glob(f"{prefix}*.py")
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=subprocess_env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
