"""Run one ``sumsieve`` CLI command with span tracing, for the traced run.

    python3 perfbench/cli_child.py TRACE_OUT [CLI ARGS...]

Behaves like ``python -m sumsieve.cli CLI ARGS...`` (same stdout, exit code
and tracebacks) and writes the import time and the trace summary to
TRACE_OUT as JSON when the command ends, however it ends.
"""

import json
import sys
import time

start = time.perf_counter()
import sumsieve.cli as cli  # noqa: E402 - the import is what is timed

import_s = time.perf_counter() - start

from tracing import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.recording = False
        summary = tracer.summary()
        summary["import_s"] = import_s
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle)


if __name__ == "__main__":
    sys.exit(main())
