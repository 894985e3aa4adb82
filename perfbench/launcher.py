"""Starts the ``cli`` workload's processes on request, one at a time.

On Linux a child's ``ru_maxrss`` includes the resident size its parent had
when it forked, so a CLI process started from the benchmark process (which
holds numpy and skewkit) would report at least that much.  This process
imports only the standard library, keeping that floor near 10 MB.

Protocol: one JSON request per stdin line, ``{"cmd", "stderr", "timeout"}``;
one JSON reply per stdout line, ``{"returncode", "stdout", "maxrss_kb"}``.
"""

import json
import os
import subprocess
import sys
import threading


def run(cmd: list[str], stderr_path: str, timeout: float) -> dict:
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return {"returncode": proc.returncode, "stdout": stdout.decode(errors="replace"),
            "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["cmd"], request["stderr"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
