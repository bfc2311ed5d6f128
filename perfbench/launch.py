"""Run one command and report its wall time and resource use as JSON.

    python3 perfbench/launch.py <report.json> <argv...>

A process's peak RSS as the kernel reports it includes the RSS its parent
had when it forked. The benchmark process holds numpy and sympy, so it
starts every measured command through this small launcher, whose own RSS
is below that of any measured command.
"""

import json
import os
import sys
import time


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    start = time.monotonic_ns()
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    _, status, ru = os.wait4(pid, 0)
    end = time.monotonic_ns()
    with open(report, "w") as fh:
        json.dump({"code": os.waitstatus_to_exitcode(status), "start_ns": start, "end_ns": end,
                   "cpu_s": ru.ru_utime + ru.ru_stime, "maxrss_kb": ru.ru_maxrss,
                   "minflt": ru.ru_minflt}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
