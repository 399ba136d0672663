"""Start benchmark children from a small process and time them.

Linux carries the memory high-water mark of the process that forks a child
into the child's ``ru_maxrss``, so children forked from the benchmark itself
(which holds the input tensors) would all report at least its size.  This
process stays small and does the forking instead.

Protocol: one JSON request per line on stdin, ``{"argv", "env", "log",
"timeout"}``; one JSON reply per line on stdout, ``{"wall_s", "rss_MB",
"code"}``, with the wall time and max RSS from ``os.wait4``.  The child's
stderr goes to ``log`` and its stdout is discarded.  It exits when stdin
closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["log"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], env=req["env"], stdout=subprocess.DEVNULL,
                                stderr=err)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_MB": usage.ru_maxrss * 1024 / 1e6, "code": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        try:
            reply = run(json.loads(line))
        except OSError as exc:
            reply = {"wall_s": 0.0, "rss_MB": 0.0, "code": -1, "error": str(exc)}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
