"""Runs one op and prints its times, ticks, exit code and peak RSS as JSON.

Linux carries the peak RSS of the process that starts a child into the
child's ``ru_maxrss``.  The benchmark runner imports ``trilie`` to build
the inputs, so it starts every op through this small process; an op's
``ru_maxrss`` then shows the op itself, above this process's own peak of
about 14 MB.  It also reads the tick counter (``ticks.py``) in the file
TICKS when the op starts and when it ends.

    python perfbench/spawn.py STDOUT STDERR TIMEOUT_S TICKS -- COMMAND...
"""

import json
import os
import subprocess
import sys
import threading
import time

from ticks import read_ticks


def main(argv):
    if len(argv) < 6 or argv[4] != "--":
        print("usage: spawn.py STDOUT STDERR TIMEOUT_S TICKS -- COMMAND...",
              file=sys.stderr)
        return 2
    stdout_path, stderr_path, timeout, ticks_path = argv[:4]
    cmd = argv[5:]
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        ticks = read_ticks(ticks_path)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        timer = threading.Timer(float(timeout), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
        ticks = read_ticks(ticks_path) - ticks
    proc.returncode = os.waitstatus_to_exitcode(status)
    json.dump({"start": start, "end": end, "exit": proc.returncode,
               "ticks": ticks,
               "max_rss_mb": usage.ru_maxrss / 1024.0}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
