"""One benchmark child: import distillab, mark ready, run one CLI command.

Usage::

    python3 bench/child.py READY_FILE [--trace TRACE_FILE] [--] DISTILLAB_ARGS...

``READY_FILE`` receives ``time.monotonic_ns()`` once the interpreter has
started and ``numpy`` and ``distillab.cli`` are imported (and, with
``--trace``, the call wrappers installed); the parent subtracts its spawn
time to get the set-up time.  With ``--trace`` the per-function span summary is written to ``TRACE_FILE`` as
JSON when the command returns.  The exit code is the CLI's.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy  # noqa: E402,F401
from distillab import cli  # noqa: E402


def main(argv: list[str]) -> int:
    ready_path, rest = argv[0], argv[1:]
    trace_path = None
    if rest[:1] == ["--trace"]:
        trace_path, rest = rest[1], rest[2:]
    if rest[:1] == ["--"]:
        rest = rest[1:]
    tracer = None
    if trace_path is not None:
        import tracing

        tracer = tracing.Tracer()
        wrappers = tracing.install(tracer)
        missed = tracing.untraced_references(wrappers)
    with open(ready_path, "w") as fh:
        fh.write(str(time.monotonic_ns()))
    try:
        return cli.main(rest)
    finally:
        if tracer is not None:
            with open(trace_path, "w") as fh:
                json.dump({"functions": tracer.summary(), "untraced_references": missed},
                          fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
