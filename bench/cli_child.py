"""Run one exobench CLI invocation with the benchmark's span recorder installed.

Usage: python3 bench/cli_child.py SPANS_JSON ARG...

The CLI's stdout, files and exit code are its own; the spans go to
SPANS_JSON as a list. The traced ``cli`` run starts one of these per op.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from exobench import cli

    try:
        return cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump([span.__dict__ for span in tracer.spans], fh)


if __name__ == "__main__":
    sys.exit(main())
