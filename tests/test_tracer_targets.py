"""The benchmark tracer's targets that the package does not define.

``perfbench/tracer.py`` wraps package functions and methods by name and
lists the ones it cannot find in ``Tracer.missing``; a per-layer metric read
from a missing target stays 0.  Five targets are known to be gone.  A
package change that orphans another one, such as renaming ``kernel_vector``,
fails here instead of silently zeroing its metric.
"""

import importlib.util
import sys
from pathlib import Path

import scmdist  # noqa: F401  (the tracer wraps the loaded package modules)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

KNOWN_MISSING = [
    "scmdist.embedding.omega",
    "scmdist.embedding.interventional_weights",
    "scmdist.graph.reachable",
    "scmdist.cache.GramCache.gram",
    "scmdist.cache.GramCache.factor",
]


def _load_tracer():
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    try:
        spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def test_tracer_misses_only_the_known_targets():
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        assert tracer.missing == KNOWN_MISSING
    finally:
        tracer.uninstall()
