"""Command-line front end.

Subcommands: scmd, pscmd, escmd, mmd, sid, pairwise, synth.
Exit codes: 0 success, 1 usage error, 2 data/graph validation error or
i/o error, 3 numerical failure.  Results go to stdout (or --out) as
deterministic JSON/CSV; diagnostics go to stderr.

``main(argv)`` returns the exit code and may be called in-process.  The
``scmdist`` console script and ``python -m scmdist.cli`` enter through
``run``, which flushes stdout and stderr after ``main`` and ends the process
at once with ``os._exit``: the interpreter's teardown (freeing numpy's state,
joining the BLAS threads) would only repeat what the OS does at exit.  A
failed flush, such as stdout on a full disk, exits 2 like any other i/o error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from pathlib import Path

from ._version import __version__
from .dataset import Dataset
from .distance import (
    DEFAULT_ESCMD_LEVELS,
    DistanceReport,
    InterventionSpec,
    e_scmd,
    mmd_vstat,
    p_scmd,
    pairwise_matrix,
    scmd,
)
from .embedding import EstimatorConfig
from .errors import NumericalError, ValidationError
from .graph import Dag, sid
from .io import load_dataset, load_graph, render_report, save_dataset, write_report
from .kernel import KernelConfig, median_heuristic
from .synth import LinearGaussianScm, sample_m1, sample_m2, sample_scm


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_common(p, two_graphs=True):
    p.add_argument("--data1", required=True, help="first dataset CSV")
    p.add_argument("--data2", required=True, help="second dataset CSV")
    if two_graphs:
        p.add_argument("--graph1", required=True, help="first causal graph (edge list)")
        p.add_argument("--graph2", required=True, help="second causal graph (edge list)")
    _add_estimator_options(p, ridge=two_graphs)


def _add_estimator_options(p, ridge=True):
    p.add_argument("--sigma-sq", type=float, default=None,
                   help="Gaussian kernel variance (default: median heuristic)")
    if ridge:
        # None when absent, so a run that reads no ridge can refuse one given
        p.add_argument("--lam", type=float, default=None,
                       help="ridge regularization (default 0.5)")
    p.add_argument("--out", default=None, help="write the result here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="result format (default json)")


def _add_interventions(p):
    p.add_argument("--policy", choices=("user", "mean"), default="user",
                   help="intervention values: explicit name=value flags, or per-variable means")
    p.add_argument("--intervene", action="append", default=[], metavar="NAME=VALUE",
                   help="intervention value applied to both environments (repeatable)")
    p.add_argument("--intervene1", action="append", default=[], metavar="NAME=VALUE",
                   help="intervention value for environment 1 only")
    p.add_argument("--intervene2", action="append", default=[], metavar="NAME=VALUE",
                   help="intervention value for environment 2 only")


def build_parser() -> _Parser:
    parser = _Parser(prog="scmdist",
                     description="Kernel-based distances between structural causal models")
    parser.add_argument("--version", action="version", version=f"scmdist {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scmd", help="SCMD between two environments")
    _add_common(p)
    _add_interventions(p)

    p = sub.add_parser("pscmd", help="prediction-oriented SCMD for one target variable")
    _add_common(p)
    _add_interventions(p)
    p.add_argument("--target", required=True, help="target variable name")

    p = sub.add_parser("escmd", help="quantile-averaged SCMD")
    _add_common(p)
    p.add_argument("--levels", default=",".join(f"{q:g}" for q in DEFAULT_ESCMD_LEVELS),
                   help="comma-separated quantile levels in (0,1)")
    p.add_argument("--pairing", choices=("grid", "paired"), default="grid",
                   help="combine levels across environments as a full grid or pairwise")

    p = sub.add_parser("mmd", help="joint-distribution MMD (biased V-statistic)")
    _add_common(p, two_graphs=False)

    p = sub.add_parser("sid", help="structural intervention distance between two graphs")
    p.add_argument("graph1", help="first graph file")
    p.add_argument("graph2", help="second graph file")

    p = sub.add_parser("pairwise", help="pairwise distance matrix over environments")
    p.add_argument("--data", nargs="+", required=True, help="two or more dataset CSVs")
    p.add_argument("--graph", required=True, help="shared causal graph")
    p.add_argument("--metric", choices=("scmd", "mmd"), required=True)
    p.add_argument("--policy", choices=("mean", "user"), default="mean")
    p.add_argument("--intervene", action="append", default=[], metavar="ENV:NAME=VALUE",
                   help="user-policy intervention value for one environment (repeatable)")
    _add_estimator_options(p)

    p = sub.add_parser("synth", help="sample a linear-Gaussian SCM to CSV")
    p.add_argument("--model", choices=("m1", "m2", "scm"), required=True,
                   help="m1: X->Y slope a; m2: reversed twin; scm: --spec JSON file")
    p.add_argument("--a", type=float, default=3.0, help="slope parameter for m1/m2")
    p.add_argument("--spec", default=None, help="JSON model description for --model scm")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    return parser


def _parse_assignments(pairs, what="intervention"):
    out = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or not name:
            raise _UsageError(f"bad {what} {item!r}, expected NAME=VALUE")
        try:
            out[name] = float(value)
        except ValueError:
            raise _UsageError(f"bad {what} value in {item!r}") from None
    return out


def _shared_bandwidth(datasets) -> KernelConfig:
    per_column = [
        median_heuristic(d.column(v)).bandwidth_sq
        for d in datasets for v in d.variable_names
    ]
    # np.median's value, bit for bit, without its import of numpy.ma
    s, k = sorted(per_column), len(per_column) // 2
    return KernelConfig(s[k] if len(s) % 2 else (s[k - 1] + s[k]) / 2)


def _estimator_config(args, datasets) -> EstimatorConfig:
    if args.sigma_sq is not None:
        kcfg = KernelConfig(args.sigma_sq)
    else:
        kcfg = _shared_bandwidth(datasets)
        print(f"scmdist: using median-heuristic bandwidth_sq={kcfg.bandwidth_sq:g}",
              file=sys.stderr)
    # `mmd` has no --lam: the MMD reads no ridge
    lam = getattr(args, "lam", None)
    return EstimatorConfig(kcfg) if lam is None else EstimatorConfig(kcfg, lam)


def _specs_for(args, d1: Dataset, d2: Dataset):
    if args.policy == "mean":
        return InterventionSpec.from_means(d1), InterventionSpec.from_means(d2)
    shared = _parse_assignments(args.intervene)
    v1 = dict(shared)
    v1.update(_parse_assignments(args.intervene1))
    v2 = dict(shared)
    v2.update(_parse_assignments(args.intervene2))
    if not v1 or not v2:
        raise _UsageError("policy 'user' needs --intervene/--intervene1/--intervene2 "
                          "values (or use --policy mean)")
    return InterventionSpec(v1), InterventionSpec(v2)


def _emit(result, args) -> None:
    if args.out:
        write_report(result, args.out, args.format)
    else:
        sys.stdout.write(render_report(result, args.format))


def _load_datasets(paths) -> list[Dataset]:
    """One dataset per distinct path, with the file stem for its id, or the
    path as given where two distinct paths share a stem."""
    distinct = list(dict.fromkeys(paths))
    stems = Counter(Path(p).stem for p in distinct)
    loaded = {p: load_dataset(p, id=p if stems[Path(p).stem] > 1 else None) for p in distinct}
    return [loaded[p] for p in paths]


def _run_pair_command(args) -> int:
    d1, d2 = _load_datasets([args.data1, args.data2])
    cfg = _estimator_config(args, (d1, d2))
    if args.command == "mmd":
        value = mmd_vstat(d1, d2, cfg.kernel)
        report = DistanceReport(value=value, pair_terms={}, dataset_ids=(d1.id, d2.id),
                                kind="mmd", config_echo={"bandwidth_sq": cfg.kernel.bandwidth_sq})
        _emit(report, args)
        return 0
    g1 = load_graph(args.graph1, nodes=d1.variable_names)
    g2 = load_graph(args.graph2, nodes=d2.variable_names)
    if args.command == "scmd":
        v1, v2 = _specs_for(args, d1, d2)
        report = scmd(g1, d1, g2, d2, v1, v2, cfg)
    elif args.command == "pscmd":
        v1, v2 = _specs_for(args, d1, d2)
        report = p_scmd(g1, d1, g2, d2, args.target, v1, v2, cfg)
    else:
        try:
            levels = [float(tok) for tok in args.levels.split(",") if tok.strip()]
        except ValueError:
            raise _UsageError(f"bad --levels {args.levels!r}, expected numbers") from None
        report = e_scmd(g1, d1, g2, d2, levels, cfg, pairing=args.pairing)
    _emit(report, args)
    return 0


def _run_pairwise(args) -> int:
    if args.metric == "mmd" and args.lam is not None:
        raise _UsageError("--lam is read only by --metric scmd")
    envs = _load_datasets(args.data)
    g = load_graph(args.graph, nodes=envs[0].variable_names)
    cfg = _estimator_config(args, envs)
    interventions = None
    if args.policy == "user":
        interventions = {}
        for item in args.intervene:
            if ":" not in item:
                raise _UsageError(f"bad --intervene {item!r}, expected ENV:NAME=VALUE")
            # ENV is the longest loaded id followed by ':', since an id may contain ':'
            env = max((e.id for e in envs if item.startswith(e.id + ":")), key=len,
                      default=item.partition(":")[0])
            interventions.setdefault(env, {}).update(_parse_assignments([item[len(env) + 1:]]))
    matrix = pairwise_matrix(
        envs, g, args.metric, cfg,
        intervention_policy="per-variable-mean" if args.policy == "mean" else "user",
        interventions=interventions)
    _emit(matrix, args)
    return 0


def _run_synth(args) -> int:
    if args.model == "m1":
        data = sample_m1(args.a, args.n, args.seed)
    elif args.model == "m2":
        data = sample_m2(args.a, args.n, args.seed)
    else:
        if not args.spec:
            raise _UsageError("--model scm requires --spec FILE")
        import json

        try:
            with open(args.spec, encoding="utf-8") as fh:
                desc = json.load(fh)
            edges = desc.get("edges", [])
            dag = Dag(desc["nodes"], [tuple(e[:2]) for e in edges])
            coeffs = {(e[0], e[1]): float(e[2]) for e in edges}
            noise = {k: float(v) for k, v in desc["noise_variances"].items()}
            intercepts = {k: float(v) for k, v in desc.get("intercepts", {}).items()}
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            raise ValidationError(f"bad model spec {args.spec}: {exc!r}") from None
        model = LinearGaussianScm(dag=dag, coefficients=coeffs,
                                  noise_variances=noise, intercepts=intercepts)
        data = sample_scm(model, args.n, args.seed)
    save_dataset(data, args.out)
    print(f"scmdist: wrote {data.n} rows x {len(data.variable_names)} columns to {args.out}",
          file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "policy", None) == "mean" and any(
                getattr(args, f, None) for f in ("intervene", "intervene1", "intervene2")):
            raise _UsageError("--intervene values are read only under --policy user")
        if args.command == "sid":
            g1 = load_graph(args.graph1)
            g2 = load_graph(args.graph2)
            print(sid(g1, g2))
            return 0
        if args.command == "pairwise":
            return _run_pairwise(args)
        if args.command == "synth":
            return _run_synth(args)
        return _run_pair_command(args)
    except _UsageError as exc:
        print(f"scmdist: usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"scmdist: invalid input: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"scmdist: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"scmdist: i/o error: {exc}", file=sys.stderr)
        return 2


def run(argv=None):
    """``main(argv)``, then flush stdout and stderr and end the process with
    its exit code, skipping the interpreter's teardown.  An exception that
    escapes ``main`` (argparse's ``--help`` exit among them) ends it the
    normal way."""
    code = main(argv)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:
        try:
            print(f"scmdist: i/o error: {exc}", file=sys.stderr, flush=True)
        except OSError:
            pass
        code = 2
    os._exit(code)


if __name__ == "__main__":
    run()
