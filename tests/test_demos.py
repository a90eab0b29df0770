"""Each narrative demo runs to completion against the package in src/.

05_cli_walkthrough.sh calls the ``scmdist`` console script; it runs with a
shim of that name at the front of PATH, which starts the CLI module of src/.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def demo_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("demo", ["01_closed_form_references.py", "02_estimate_from_samples.py",
                                  "03_baselines_sid_mmd.py", "04_pairwise_environments.py"])
def test_demo_runs(demo):
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=demo_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_cli_walkthrough_runs(tmp_path):
    shim = tmp_path / "scmdist"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m scmdist.cli "$@"\n')
    shim.chmod(0o755)
    env = demo_env()
    env["PATH"] = os.pathsep.join((str(tmp_path), env.get("PATH", "")))
    done = subprocess.run(["sh", str(ROOT / "demos" / "05_cli_walkthrough.sh")], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for kind in ("mmd", "scmd", "p-scmd", "e-scmd"):
        assert f'"kind": "{kind}"' in done.stdout, kind
    assert "id,env_a,env_b,env_c" in done.stdout  # the pairwise matrix
