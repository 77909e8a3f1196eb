"""Run one tritangle CLI command, as ``python -m tritangle.cli`` would, and
append the duration of ``main()`` to stderr.

The traced cli pass starts this file under ``python -X importtime`` so that
import times and command time come from the same process:

    PYTHONPATH=src python -X importtime perfbench/cli_child.py tangle --p 0.8 --n 2
"""

import json
import sys
import time

MARKER = "perfbench-cli-child "


def main():
    from tritangle import cli

    start = time.perf_counter()
    code = cli.main(sys.argv[1:])
    elapsed = time.perf_counter() - start
    sys.stdout.flush()
    print(MARKER + json.dumps({"command_s": elapsed}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
