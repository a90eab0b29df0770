"""The benchmark's reference check, run as part of the test suite.

``perfbench/run.py --smoke`` runs every workload on small inputs, traced and
untraced, and exits non-zero unless every output matches the stored
references in ``perfbench/references.json`` within 1e-10.  A numerical change
to the estimators therefore cannot drift from the recorded outputs unseen.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_matches_references():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
