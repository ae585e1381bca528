"""Run one command; print its wall time, peak RSS and exit code as JSON.

    python3 perfbench/launch.py TIMEOUT_S CMD [ARGS...]

Linux carries a parent's resident set into a child's peak RSS across fork
and exec. The benchmark process holds inputs and reference data, so it
starts each measured command through this small process, which imports
nothing heavy. The command's standard output is discarded; its standard
error passes through. It is killed after TIMEOUT_S seconds.
"""

import json
import resource
import subprocess
import sys
import threading
import time


def main(argv) -> None:
    timeout, cmd = float(argv[0]), argv[1:]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    code = proc.wait()
    wall = time.perf_counter() - start
    killer.cancel()
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(json.dumps({"wall_s": wall, "rss_mb": rss_mb, "code": code}))


if __name__ == "__main__":
    main(sys.argv[1:])
