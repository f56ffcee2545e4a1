"""Print the CLOCK_MONOTONIC instant a fresh interpreter has a world
ready for its first event.

``run.py`` spawns this script and subtracts the spawn instant, which
times the interpreter start, every import, spec generation and world
construction of one workload.  Usage::

    python3 perfbench/setup_probe.py <workload> <seed|default>
"""

from __future__ import annotations

import os
import sys
import time


class _Ready(BaseException):
    """Raised from the first ``Environment.run``; BaseException so no
    handler in the program mistakes it for a failure to recover from."""


def main(argv: list[str]) -> None:
    workload, seed = argv
    import worlds

    worlds.use_source_tree()
    from repro.des.core import Environment

    def ready(self, until=None):
        raise _Ready

    Environment.run = ready
    try:
        worlds.run_pass(workload, None if seed == "default" else int(seed))
    except _Ready:
        print(time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)
        os._exit(0)
    raise SystemExit(f"setup_probe: {workload} never started its world")


if __name__ == "__main__":
    main(sys.argv[1:])
