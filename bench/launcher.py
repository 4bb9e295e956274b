"""Start processes for run.py and report their wall time and peak RSS.

Reads one JSON request per line on stdin, ``{"argv": [...], "log": PATH,
"timeout": SECONDS}``, runs it to completion with this process's
environment, and answers with one JSON line ``{"code", "wall", "rss_kb"}``.
Exits when stdin closes.

The peak RSS that ``os.wait4`` reports for a child includes the resident
size of the process it was forked from, so children are started from this
small process rather than from run.py, whose size grows with its inputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], log: str, timeout: float) -> dict:
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall, "rss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["log"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
