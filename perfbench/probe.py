"""Host-speed probe: times a fixed memory-bound task on request.

    python3 perfbench/probe.py

``run.py`` keeps one of these processes beside a run and writes a line to
its standard input before and after each iteration; the probe answers each
line with the seconds one probe took.  It exits at the end of its input.

The task gathers random whole rows from a 128 MiB array, more than the
host's last-level cache, so it waits on memory the way the program's oracle
does.  It shares no code with the program, and it runs in its own process so
that its memory never counts towards an iteration's peak RSS (a child
inherits the peak RSS of the process that spawns it).
"""

from __future__ import annotations

import sys
import time

import numpy as np

SHAPE = (16384, 8192)
GATHER = 2048
REPS = 40


def main() -> int:
    rows = np.ones(SHAPE, dtype=np.uint8)
    idx = np.random.default_rng(0).integers(0, SHAPE[0], GATHER)

    def timed() -> float:
        t0 = time.perf_counter()
        for _ in range(REPS):
            int(rows[idx].sum())
        return time.perf_counter() - t0

    timed()  # warm-up
    for _line in sys.stdin:
        print(repr(timed()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
