"""Traced stand-in for the `isotropy` console script.

    PERFBENCH_SPAWN=<time.monotonic at spawn> PERFBENCH_TRACE_FILE=out.json \
        python perfbench/cli_child.py COMMAND [ARGS...]

Imports isotropy.cli, installs the wrappers from spans.py, runs
isotropy.cli.main on the arguments and exits with its code.  Writes the
span summary, every span, and the start-up time (spawn to end of import)
to PERFBENCH_TRACE_FILE.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main():
    spawned = float(os.environ["PERFBENCH_SPAWN"])
    import isotropy.cli as cli
    start_s = time.monotonic() - spawned
    import spans
    tracer = spans.install()
    code = cli.main(sys.argv[1:])
    tracer.write(os.environ["PERFBENCH_TRACE_FILE"], start_s=start_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
