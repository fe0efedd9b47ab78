"""A low-priority tick counter that measures the host's speed.

On a shared virtual machine the same op can run 1.9 times slower for a
minute at a time.  ``Ticker`` starts a counter process at nice 10 on the
CPU the benchmark is pinned to.  It runs a fixed piece of pure-Python
work (``Fraction`` sums and ``dict`` updates, as ``trilie`` does) in a
loop and publishes how many times it has done so.  Next to a busy op the
counter gets a fixed share of the CPU (about a tenth), so the ticks it
counts during the op are proportional to the op's duration times the
CPU's speed: they measure the op's work, not the host's phase.  A
smaller share (nice 19) gets the CPU too seldom to time a 0.5-s batch.
``TICKS_PER_S`` turns ticks into normalized seconds.

    python perfbench/ticks.py TICKS_FILE   # the counter process itself
"""

from __future__ import annotations

import mmap
import os
import struct
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# the counter's typical rate beside a busy op on the 2-vCPU machine the
# benchmark was tuned on, so normalized seconds read close to its seconds
TICKS_PER_S = 700.0


def read_ticks(path) -> int:
    with open(path, "rb") as f:
        return struct.unpack("<Q", f.read(8))[0]


def pin_to_one_cpu():
    """Pins this process (and every child it starts) to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Ticker:
    """The counter process; use as a context manager."""

    def __init__(self, path):
        self.path = Path(path)
        self.proc = None

    def __enter__(self):
        self.path.write_bytes(bytes(8))
        self.proc = subprocess.Popen([sys.executable, __file__,
                                     str(self.path)])
        deadline = time.monotonic() + 30.0
        while read_ticks(self.path) == 0:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.__exit__()
                raise RuntimeError("the tick counter did not start")
            time.sleep(0.01)
        return self

    def ticks(self) -> int:
        return read_ticks(self.path)

    def __exit__(self, *exc):
        self.proc.kill()
        self.proc.wait()


def _count(path):
    os.nice(10)
    parent = os.getppid()
    with open(path, "r+b") as f:
        shared = mmap.mmap(f.fileno(), 8)
    n = 0
    while True:
        total, seen = Fraction(0), {}
        for i in range(1, 60):
            total += Fraction(i % 89 + 1, i % 97 + 1)
            key = (i % 7, i % 11, i % 13)
            seen[key] = seen.get(key, 0) + i
        n += 1
        shared[0:8] = struct.pack("<Q", n)
        # end with the benchmark, even if it was killed
        if n % 64 == 0 and os.getppid() != parent:
            return


if __name__ == "__main__":
    _count(sys.argv[1])
