#!/usr/bin/env python3
"""Run ``repro serve`` with the benchmark's span wrappers installed.

    python perfbench/serve_traced.py OUT.json serve --scenario azure ...

The wrappers are installed before the server builds its system, and the
recorded stats, counters and spans are written to ``OUT.json`` once the
server has shut down (``POST /shutdown``).
"""

from __future__ import annotations

import sys

from common import use_program
from layers import LAYERS
from spans import Tracer


def main(argv: list[str]) -> int:
    out, serve_argv = argv[0], argv[1:]
    use_program()
    from repro.cli import main as repro_main

    tracer = Tracer().install(LAYERS)
    try:
        return repro_main(serve_argv)
    finally:
        tracer.uninstall()
        tracer.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
