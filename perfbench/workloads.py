"""The benchmark's three workloads.

Each workload builds its inputs from an input-set number ``k`` and a sample
size ``n`` (``setup``), and runs one job on them (``job``).  A job starts
from a fresh ``GramCache`` and returns its outputs as a flat name -> float
mapping, which the runner checks against the stored references, plus notes
that are reported but not checked.  Package calls go through module
attributes at call time, so a tracer's wrappers see them.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import scmdist as sd

FWD = sd.Dag(["X", "Y"], [("X", "Y")])
REV = sd.Dag(["X", "Y"], [("Y", "X")])
UNIT = {"X": 1.0, "Y": 1.0}
CHILD_TIMEOUT_S = 150
GUARDRAIL = re.compile(r"predicted work ~ d\^3\*N\^3 = ([0-9.eE+-]+)")


def _report(prefix: str, report) -> dict[str, float]:
    out = {prefix: float(report.value)}
    for (i, j), term in report.pair_terms.items():
        out[f"{prefix}.{i}->{j}"] = float(term)
    return out


class Fixture:
    """One seed of the acceptance fixture: estimators at n, joint MMD at 2n."""

    def setup(self, k, n, workdir):
        return {"d1": sd.sample_m1(3, n, 1000 + k),
                "d2": sd.sample_m1(5, n, 2000 + k),
                "d3": sd.sample_m2(3, n, 3000 + k),
                "big1": sd.sample_m1(3, 2 * n, 5000 + k),
                "big2": sd.sample_m1(5, 2 * n, 6000 + k),
                "big3": sd.sample_m2(3, 2 * n, 7000 + k)}

    def job(self, inputs, tracer=None):
        d1, d2, d3 = inputs["d1"], inputs["d2"], inputs["d3"]
        cfg = sd.EstimatorConfig(kernel=sd.KernelConfig(0.1), ridge_lambda=0.5)
        out = {}
        cache = sd.GramCache(capacity=16)
        out.update(_report("scmd1", sd.scmd(FWD, d1, FWD, d2, UNIT, UNIT, cfg, cache)))
        for target in ("X", "Y"):
            out.update(_report(f"pscmd1.{target}",
                               sd.p_scmd(FWD, d1, FWD, d2, target, UNIT, UNIT, cfg, cache)))
        out.update(_report("escmd1", sd.e_scmd(FWD, d1, FWD, d2, cfg=cfg, cache=cache)))
        out.update(_report("scmd2", sd.scmd(FWD, d1, REV, d3, UNIT, UNIT, cfg, cache)))
        out.update(_report("escmd2", sd.e_scmd(FWD, d1, REV, d3, cfg=cfg, cache=cache)))
        cache = sd.GramCache(capacity=16)
        for lam in (0.1, 0.5, 1.0):
            cfg_s = sd.EstimatorConfig(kernel=sd.KernelConfig(1.0), ridge_lambda=lam)
            out.update(_report(f"sens.lam{lam:g}",
                               sd.scmd(FWD, d1, FWD, d2, UNIT, UNIT, cfg_s, cache)))
        del cache
        big1 = inputs["big1"]
        out["mmd.m1a3-m1a5"] = sd.mmd_vstat(big1, inputs["big2"], sd.KernelConfig(0.1))
        out["mmd.m1a3-m2a3"] = sd.mmd_vstat(big1, inputs["big3"], sd.KernelConfig(0.1))
        return out, {}


class PairwiseSachs:
    """SCMD matrix over four linear-Gaussian environments on the Sachs graph."""

    ENVIRONMENTS = 4

    def setup(self, k, n, workdir):
        g = sd.sachs_expert_graph()
        rng = np.random.default_rng(k)
        envs = []
        for e in range(self.ENVIRONMENTS):
            coefficients = {edge: float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0))
                            for edge in sorted(g.edges)}
            model = sd.LinearGaussianScm(dag=g, coefficients=coefficients,
                                         noise_variances={v: 1.0 for v in g.nodes})
            envs.append(sd.sample_scm(model, n, 100 * k + e, id=f"env{e}"))
        return {"graph": g, "envs": envs}

    def job(self, inputs, tracer=None):
        cfg = sd.EstimatorConfig(kernel=sd.KernelConfig(1.0), ridge_lambda=1.0)
        # one thread: with two, the cache's eviction order and the job time
        # follow thread scheduling, and run-to-run medians spread too widely
        matrix = sd.pairwise_matrix(inputs["envs"], inputs["graph"], "scmd", cfg,
                                    intervention_policy="per-variable-mean", threads=1)
        out = {}
        for (a, b), report in matrix.reports.items():
            out[f"scmd.{a}-{b}"] = float(report.value)
            out[f"sumsq.{a}-{b}"] = float(sum(t * t for t in report.pair_terms.values()))
        return out, {}


class CliEscmd:
    """A fresh ``python -m scmdist.cli escmd`` process per job."""

    def setup(self, k, n, workdir):
        workdir = Path(workdir)
        paths = {"data1": workdir / "env1.csv", "data2": workdir / "env2.csv",
                 "graph1": workdir / "fwd.txt", "graph2": workdir / "rev.txt"}
        sd.save_dataset(sd.sample_m1(3, n, 8000 + k), paths["data1"])
        sd.save_dataset(sd.sample_m2(3, n, 9000 + k), paths["data2"])
        sd.save_graph(FWD, paths["graph1"])
        sd.save_graph(REV, paths["graph2"])
        return {"paths": paths, "workdir": workdir}

    def job(self, inputs, tracer=None):
        argv = ["escmd", "--lam", "0.5"]
        for flag, path in inputs["paths"].items():
            argv += [f"--{flag}", str(path)]
        here = Path(__file__).resolve().parent
        spans_file = inputs["workdir"] / "spans.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "scmdist.cli"] + argv
        else:
            cmd = [sys.executable, str(here / "cli_traced.py"), str(spans_file)] + argv
        env = {**os.environ, "PYTHONPATH": str(here.parent / "src")}
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"scmdist.cli exited {proc.returncode}: {proc.stderr.strip()}")
        # the guardrail text is diagnostics, not a checked output: 0 if absent
        match = GUARDRAIL.search(proc.stderr)
        predicted = float(match.group(1)) if match else 0.0
        if tracer is not None:
            tracer.spans.extend(json.loads(spans_file.read_text()))
            tracer.event("cli.guardrail", {"predicted_work": predicted})
        report = json.loads(proc.stdout)
        out = {"escmd": float(report["value"]),
               "bandwidth_sq": float(report["config"]["bandwidth_sq"])}
        for pair, term in report["pair_terms"].items():
            out[f"escmd.{pair}"] = float(term)
        return out, {"predicted_work": predicted}


# name -> (workload, sample size for the full and the smoke runs)
WORKLOADS = {
    "fixture-n1500": (Fixture(), {"full": 1500, "smoke": 150}),
    "pairwise-sachs-n300": (PairwiseSachs(), {"full": 300, "smoke": 60}),
    "cli-escmd-n2000": (CliEscmd(), {"full": 2000, "smoke": 150}),
}
