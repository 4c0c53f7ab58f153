"""Run one command and report its wall time, CPU time, peak RSS and exit code.

    python3 launch.py STDOUT_PATH -- CMD...

Prints one JSON object {"wall", "cpu", "rss_mb", "code"} on its own
standard output.  Linux credits a child at exec with the peak RSS of the
address space it was forked from, so a child started by the benchmark
process (which holds numpy and the generated inputs) could report that
process's peak instead of its own.  This launcher imports nothing large,
so the children it starts report their own peak.
"""

import json
import os
import subprocess
import sys
import time


def main(argv) -> int:
    stdout_path, sep, *cmd = argv
    if sep != "--" or not cmd:
        raise SystemExit("usage: launch.py STDOUT_PATH -- CMD...")
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
