"""``python -m repro serve`` with the span recorder installed.

Used by the serve workloads for the traced slices only.  The wrappers go
on before the server starts (the forked pool workers inherit them, but
only this process's spans are kept); the spans are written to
``$BENCH_SPAN_FILE`` when the server has shut down.
"""

from __future__ import annotations

import json
import os
import sys

import tracing


def main() -> int:
    from repro.__main__ import main as repro_main

    recorder = tracing.install("server")
    try:
        return repro_main(sys.argv[1:])
    finally:
        with open(os.environ["BENCH_SPAN_FILE"], "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
