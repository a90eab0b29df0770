"""scmdist benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One workload.  The last line of stdout is one JSON object with the keys
      correct, attempted, failed and metrics: the end-to-end metrics with
      --trace 0, the per-layer metrics of a traced run with --trace 1.
  python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]
      Every workload, each in its own process, then a table of the results.
  python3 perfbench/run.py --smoke
      Every workload in both modes on small inputs: checks the output schema
      against BENCHMARK.json and the outputs against the stored references.
  python3 perfbench/run.py --record [--size full|smoke]
      Rewrites references.json from the code under test.  Only at a commit
      whose outputs are the reference; see NOTES.md.

The package is imported from ``src/`` next to this directory, never from an
installed copy.  ``--seed N`` selects input set N mod 32; the same seed
always gives the same inputs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import LAYER_METRICS, Tracer, aggregate, layer_values

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
INPUT_SETS = 32
TOLERANCE = 1e-10
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S = 5, 200, 1.0
CHILD_TIMEOUT_S = 170
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def median(values):
    return statistics.median(values) if values else 0.0


def set_blas_threads() -> int:
    """Give BLAS every core before numpy loads; workloads run one Python thread."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    return nproc


def import_package():
    if not (SRC / "scmdist" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {SRC / 'scmdist'}")
    sys.path.insert(0, str(SRC))
    import scmdist

    if Path(scmdist.__file__).resolve().parent != SRC / "scmdist":
        sys.exit(f"perfbench: scmdist imported from {scmdist.__file__}, not {SRC}")
    return scmdist


def provenance(**extra) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted(p for p in (SRC / "scmdist").rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    git_sha = "none"
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                     capture_output=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git_sha = "unknown"
    return {"git_sha": git_sha, "src_sha256": digest.hexdigest()[:16],
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, **extra}


def mismatches(outputs, expected) -> list[str]:
    """Output names missing, extra, or off their reference by more than TOLERANCE."""
    if outputs is None:
        return ["<job raised>"]
    bad = sorted(set(outputs) ^ set(expected))
    bad += [k for k in sorted(set(outputs) & set(expected))
            if not abs(outputs[k] - expected[k]) <= TOLERANCE]
    return bad


def time_setup(workload, k, n, workdir):
    """Build the inputs several times; return the median time and the inputs."""
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or (
            len(times) < SETUP_MAX_REPS and time.perf_counter() - start < SETUP_BUDGET_S):
        gc.collect()
        t0 = time.perf_counter()
        inputs = workload.setup(k, n, workdir)
        times.append(time.perf_counter() - t0)
    return median(times), inputs


def run_jobs(workload, inputs, expected, budget_s, tracer=None) -> dict:
    """Run jobs back to back while the next one should end within the budget."""
    walls, layers, notes, failed = [], [], [], 0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + median(walls) <= budget_s:
        gc.collect()
        if tracer is not None:
            tracer.spans.clear()
        t0 = time.perf_counter()
        try:
            outputs, note = workload.job(inputs, tracer)
        except Exception:  # a failed job is counted, reported and survived
            traceback.print_exc()
            outputs, note = None, {}
        walls.append(time.perf_counter() - t0)
        bad = mismatches(outputs, expected)
        if bad:
            failed += 1
            print(f"perfbench: job {len(walls)} differs from the reference: {bad[:5]}",
                  file=sys.stderr)
        notes.append(note)
        if tracer is not None:
            layers.append(layer_values(tracer.spans))
    return {"walls": walls, "failed": failed, "notes": notes, "layers": layers}


def run_workload(args) -> int:
    nproc = set_blas_threads()
    import_package()
    from workloads import WORKLOADS

    workload, sizes = WORKLOADS[args.workload]
    n, k = sizes[args.size], args.seed % INPUT_SETS
    expected = json.loads(REFERENCES.read_text())[args.size][args.workload][str(k)]
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setup_s, inputs = time_setup(workload, k, n, workdir)
        budget = args.seconds / 2 if args.trace else args.seconds
        plain = run_jobs(workload, inputs, expected, budget)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                workload.setup(k, n, workdir)
                setup_spans = list(tracer.spans)
                traced = run_jobs(workload, inputs, expected, budget, tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [plain, traced] if args.trace else [plain]
    attempted = sum(len(r["walls"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    job_s = median(plain["walls"])
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    predicted = median([note["predicted_work"] for note in plain["notes"]
                        if "predicted_work" in note])
    print(json.dumps({"provenance": provenance(
        workload=args.workload, seed=args.seed, input_set=k, n=n, size=args.size,
        seconds=args.seconds, trace=args.trace, nproc=nproc, python_threads=1,
        blas_threads=nproc, job_walls_s=[round(w, 4) for w in plain["walls"]])}))
    print(f"{args.workload}: setup_s={setup_s:.6f} s  "
          f"job_s={job_s:.4f} s (median of {len(plain['walls'])} jobs)  "
          f"peak_rss_mb={rss_kb / 1024:.1f} MB  "
          f"fail_ratio={failed / attempted:g} ({failed}/{attempted})"
          + (f"  cli guardrail d^3*N^3={predicted:.3e}" if predicted else ""))

    if not args.trace:
        metrics = {"setup_s": (setup_s, "s"), "job_s": (job_s, "s"),
                   "peak_rss_mb": (rss_kb / 1024, "MB")}
    else:
        setup_agg = aggregate(setup_spans)
        metrics = {}
        for name, unit, _, source in LAYER_METRICS:
            if name == "synth.sample_scm.s":
                value = setup_agg["total"]["synth.sample_scm"]
            elif name == "trace.overhead_s":
                value = median(traced["walls"]) - job_s
            else:
                value = median([layer[name] for layer in traced["layers"]])
            metrics[name] = (value, unit)
        if tracer.missing:
            print(f"perfbench: trace targets not found: {tracer.missing}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def record_workload(args) -> int:
    """Print, as the last line, every input set's outputs for one workload."""
    set_blas_threads()
    import_package()
    from workloads import WORKLOADS

    workload, sizes = WORKLOADS[args.workload]
    outputs = {}
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for k in range(INPUT_SETS):
            inputs = workload.setup(k, sizes[args.size], workdir)
            outputs[str(k)] = workload.job(inputs)[0]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(outputs))
    return 0


def child(args, workload, *extra) -> tuple[int, list[str]]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--size", args.size, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S * 3,
                          check=False)
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def check_result(line: str, spec: dict, trace: int) -> list[str]:
    """Problems with one result line, judged against BENCHMARK.json."""
    try:
        result = json.loads(line)
    except ValueError:
        return [f"last line is not JSON: {line[:80]!r}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"metric names or units differ: {sorted(set(got) ^ set(wanted))}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name} has no numeric value")
    return problems


def run_all(args, spec) -> int:
    names = [w["name"] for w in spec["workloads"]]
    traces = (0, 1) if args.smoke else (args.trace,)
    seconds = 1 if args.smoke else args.seconds
    rows, ok = [], True
    for name in names:
        for trace in traces:
            code, lines = child(args, name, "--seed", str(args.seed),
                                "--seconds", str(seconds), "--trace", str(trace))
            problems = [f"exit code {code}"] if code or not lines else []
            problems = problems or check_result(lines[-1], spec, trace)
            ok = ok and not problems
            print("\n".join(lines[:-1]))
            print(f"{'FAIL' if problems else 'PASS'} {name} trace={trace} {'; '.join(problems)}")
            if not problems:
                result = json.loads(lines[-1])
                rows.append((name, trace, result))
    if not args.smoke:
        for name, trace, result in rows:
            cells = [f"{m}={v['value']:.6g} {v['unit']}" for m, v in result["metrics"].items()]
            cells.append(f"fail_ratio={result['failed'] / result['attempted']:g} ratio")
            print(f"{name:<22} " + "  ".join(cells))
    return 0 if ok else 1


def record(args, spec) -> int:
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for w in spec["workloads"]:
        code, lines = child(args, w["name"], "--record")
        if code or not lines:
            print(f"perfbench: recording {w['name']} failed", file=sys.stderr)
            return 1
        refs.setdefault(args.size, {})[w["name"]] = json.loads(lines[-1])
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true",
                        help="check every workload on small inputs")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the stored reference outputs")
    args = parser.parse_args(argv)
    spec = benchmark_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.smoke:
        args.size = "smoke"
    if args.workload == "all":
        return record(args, spec) if args.record else run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    return record_workload(args) if args.record else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
