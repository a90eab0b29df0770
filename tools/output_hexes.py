"""Print every output of the benchmark's workloads exactly, one sorted line each.

  python3 tools/output_hexes.py [--size full|smoke] [--sets K ...]

Each line is ``workload input-set output float.hex(value)``, so two trees
compare with ``diff``: run the script in each and diff what they print.
The workloads come from ``perfbench/workloads.py`` of the same tree and the
package from its ``src/``; nothing under ``perfbench/`` is written.  As in
``perfbench/run.py``, BLAS gets one thread per core before numpy loads:
with one thread against two, some outputs move in the last bits.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from run import INPUT_SETS, import_package, set_blas_threads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--sets", type=int, nargs="+", default=list(range(INPUT_SETS)),
                        help=f"input sets, 0 to {INPUT_SETS - 1} (default: all)")
    args = parser.parse_args(argv)
    bad = [k for k in args.sets if not 0 <= k < INPUT_SETS]
    if bad:
        parser.error(f"input sets must be in 0..{INPUT_SETS - 1}, got {bad}")
    set_blas_threads()
    import_package()
    from workloads import WORKLOADS

    lines = []
    with tempfile.TemporaryDirectory() as workdir:
        for name in sorted(WORKLOADS):
            workload, sizes = WORKLOADS[name]
            for k in args.sets:
                outputs, _ = workload.job(workload.setup(k, sizes[args.size], workdir))
                lines += [f"{name} {k} {out} {float(v).hex()}" for out, v in outputs.items()]
    print("\n".join(sorted(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
