"""One infodep CLI call in a fresh process, with the benchmark's tracer installed.

Usage: ``python3 perfbench/traced_cli.py SPANS_DIR ARGS...``

Runs ``infodep ARGS...`` exactly as ``python -m infodep.cli`` would, then
writes the call's spans and counters to ``SPANS_DIR/<pid>.json`` and exits
with the CLI's exit code.  ``infodep`` must be importable (PYTHONPATH).
"""

import json
import os
import sys
from pathlib import Path

import infodep.cli

from tracing import Tracer


def main() -> int:
    spans_dir, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = infodep.cli.main(argv)
    finally:
        tracer.uninstall()
        doc = {"spans": tracer.spans, "counters": dict(tracer.counters)}
        (spans_dir / f"{os.getpid()}.json").write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
