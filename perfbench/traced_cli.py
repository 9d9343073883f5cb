"""Run one symdef CLI invocation with span tracing.

    python perfbench/traced_cli.py SPANS_FILE <symdef arguments...>

Behaves like ``python -m symdef.cli <arguments>`` (same stdout, stderr and
exit code) and additionally writes the spans to SPANS_FILE at exit.
"""

import sys
import time

import tracing


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    start = time.perf_counter()
    import symdef.cli

    tracer.record("cli.import", start, time.perf_counter())
    tracing.install(tracer)
    try:
        return symdef.cli.main(argv)
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())
