"""Starts the benchmark's child processes and reports, for each, its wall
time, exit status and peak resident memory.

It runs as a small process of its own because a child's peak resident
memory, as wait4 reports it, is never below the resident size of the
process that started it: started by run.py, which holds the compiled
libraries, every child would report run.py's size instead of its own.

Protocol: one JSON request a line on standard input, with the keys
``argv``, ``cwd``, ``env``, ``stdout``, ``stderr`` (file paths) and
``timeout`` (seconds, after which the child is killed); one JSON reply a
line on standard output, with ``seconds``, ``code`` and ``rss_kb``. The
launcher ends at the end of its input.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, cwd=request["cwd"], env=request["env"])
            signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, request["timeout"])
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"seconds": seconds, "code": proc.returncode, "rss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
