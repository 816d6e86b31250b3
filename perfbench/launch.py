"""Run one command and write its exit code, wall time and peak RSS as JSON.

    python3 perfbench/launch.py RESULT.json TIMEOUT_S -- COMMAND...

The command runs as the child of this small process rather than of the
benchmark itself: on Linux a child's ru_maxrss also counts the memory of the
process it was forked from, so it must be forked from one that is small.
The command inherits this process's working directory, environment and
standard streams; it is killed after TIMEOUT_S seconds.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    result_path, timeout, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        print(__doc__, file=sys.stderr)
        return 2
    start = time.perf_counter()
    proc = subprocess.Popen(argv)
    killer = threading.Timer(float(timeout), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w") as fh:
        json.dump({"code": proc.returncode, "wall_s": wall,
                   "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
