"""Run the zerosums CLI with layer tracing; write the trace summary as JSON.

    python3 perfbench/traced_cli.py TRACE_OUT catalog --max-order 16 --format json

Stdout, stderr and the exit code are the CLI's own.
"""

import json
import sys
import time

t0 = time.perf_counter()
import zerosums.cli as cli  # noqa: E402

import_ms = (time.perf_counter() - t0) * 1000

import tracer as tracing  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as f:
            json.dump(dict(tracer.summary(), import_ms=[import_ms]), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
