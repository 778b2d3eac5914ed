"""Run one microcav CLI command in this interpreter, with spans around its layers.

Usage: python perfbench/traced_cli.py SPANS_JSON COMMAND_ID ARG...

Equivalent to ``microcav ARG...`` (``sys.argv`` is set as the console
script would see it, so ``meta.command`` in the outputs is unchanged), but
the calls listed in ``spans.TARGETS`` are timed and the spans are written
to SPANS_JSON when the command returns.
"""

from __future__ import annotations

import sys

from spans import Tracer


def main() -> int:
    spans_path, command_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import microcav.cli as cli  # imports every microcav module the tracer wraps

    tracer = Tracer(command_id)
    tracer.install()
    sys.argv = [cli.__file__, *argv]
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
