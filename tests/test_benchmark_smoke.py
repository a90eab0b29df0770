"""The benchmark's reference check, run as part of the test suite.

``perfbench/run.py --smoke`` runs every workload on small inputs, traced and
untraced, and exits non-zero unless every output matches the stored
references in ``perfbench/references.json`` within 1e-10.  A numerical change
to the estimators therefore cannot drift from the recorded outputs unseen.
``tools/output_hexes.py`` prints the same outputs exactly, for ``diff``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_matches_references():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]


def test_output_hexes_match_the_references():
    proc = subprocess.run([sys.executable, "tools/output_hexes.py", "--size", "smoke",
                           "--sets", "0"], cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.splitlines()
    assert lines == sorted(lines)
    got = {}
    for line in lines:
        workload, k, name, value = line.split(" ")
        assert k == "0"
        got.setdefault(workload, {})[name] = float.fromhex(value)
    references = json.loads((ROOT / "perfbench" / "references.json").read_text())["smoke"]
    assert set(got) == set(references)
    for workload, outputs in got.items():
        expected = references[workload]["0"]
        assert set(outputs) == set(expected)
        for name, value in outputs.items():
            assert abs(value - expected[name]) <= 1e-10, (workload, name)
