"""Smoke tests: each script in scripts/ runs to exit 0 with small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [
    ("run_presets.py", ["{tmp}"]),
    ("witness_budget_scan.py", ["--max-steps", "6", "--depths", "1", "2"]),
    ("contraction_trace.py", ["7", "4"]),
])
def test_script_runs(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(ROOT / "scripts" / script)]
    cmd += [a.format(tmp=tmp_path) for a in args]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
