"""Run one scmdist CLI command under the tracer and save its spans as JSON.

Usage: python3 cli_traced.py SPANS_JSON CLI_ARGS...

Times the import of ``scmdist.cli`` in this fresh interpreter, then runs
``scmdist.cli.main(CLI_ARGS)`` with every layer wrapped, writes the spans
to SPANS_JSON and exits with the CLI's exit code.
"""

import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    start = time.perf_counter()
    import scmdist.cli
    imported = time.perf_counter()

    from tracer import Tracer

    tracer = Tracer()
    tracer.add_span("cli.import", start, imported)
    tracer.install()
    with tracer.span("cli.main"):
        code = scmdist.cli.main(sys.argv[2:])
    tracer.uninstall()
    Path(sys.argv[1]).write_text(json.dumps(tracer.spans), encoding="utf-8")
    sys.exit(code)
