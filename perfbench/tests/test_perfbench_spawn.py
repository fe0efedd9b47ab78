"""spawn.py reports the op's own peak RSS; ticks.py counts while it runs."""

import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from ticks import Ticker, read_ticks  # noqa: E402

SPAWN = Path(__file__).resolve().parents[1] / "spawn.py"


def test_spawn_reports_the_op_not_its_parent(tmp_path):
    # a parent peak far above the op's; a child of this process would
    # report it as its own ru_maxrss
    ballast = bytearray(96 * 2**20)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    out, err = tmp_path / "out", tmp_path / "err"
    ticks = tmp_path / "ticks"
    ticks.write_bytes(bytes(8))
    done = subprocess.run(
        [sys.executable, str(SPAWN), str(out), str(err), "60", str(ticks),
         "--", sys.executable, "-c", "print('hi'); raise SystemExit(3)"],
        stdout=subprocess.PIPE, check=True)
    result = json.loads(done.stdout)
    assert result["exit"] == 3
    assert out.read_text() == "hi\n"
    assert result["end"] > result["start"]
    assert 0 < result["max_rss_mb"] < 64
    assert result["ticks"] == 0
    del ballast


def test_ticker_counts_and_stops(tmp_path):
    path = tmp_path / "ticks"
    with Ticker(path) as ticker:
        first = ticker.ticks()
        time.sleep(0.3)
        assert ticker.ticks() > first > 0
    assert ticker.proc.returncode is not None
    stopped = read_ticks(path)
    time.sleep(0.1)
    assert read_ticks(path) == stopped
