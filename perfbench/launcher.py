"""Starts the benchmark's child processes and reports their rusage.

    python3 perfbench/launcher.py < requests

Reads one JSON request per line, ``{"argv": [...], "log": path, "env": {...}}``,
runs it with stdout and stderr sent to ``log``, and answers one line
``{"code", "wall_s", "cpu_s", "peak_rss_mb"}``. It exits when its input closes.

Linux carries a process's peak RSS across fork and exec into the child's
``ru_maxrss``, so a child started by the benchmark process itself would
report at least the benchmark's own peak. This launcher is started before
the benchmark loads anything and stays small, so what its children report
is their own peak.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "w", encoding="utf-8") as log:
            start = perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=log, stderr=subprocess.STDOUT, env=request["env"])
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "code": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,
        }
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
