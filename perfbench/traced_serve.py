"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/traced_serve.py SPANS_FILE <repro serve args...>``

The daemon is the shipped one, started through the shipped CLI entry point
with the same arguments the untraced run passes to ``python -m repro
serve``; the only difference is that :func:`tracing.install` has wrapped
each layer's public calls first. Spans stay in memory until SIGTERM drains
the daemon, then go to ``SPANS_FILE`` in one write.
"""

from __future__ import annotations

import sys

import tracing


def main(argv: list[str]) -> int:
    spans_file, serve_args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from repro.cli import main as repro_main

    code = repro_main(["serve", *serve_args])
    tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
