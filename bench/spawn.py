"""Run commands from a small helper process, so each one's peak RSS is its own.

On Linux a child's ``ru_maxrss`` starts from the high-water mark of the
process it was forked from.  Spawned straight from the benchmark (70 MB
after its set-up samples), every swap process would report at least that.
The helper is a bare interpreter of about 10 MB that forks each command,
times it from spawn to exit and reports its resource usage.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


class Spawner:
    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, cmd: list[str], env: dict, stderr_path) -> dict:
        """Exit code, wall seconds, CPU seconds and peak RSS (MB) of one command."""
        request = {"cmd": cmd, "env": env, "stderr": str(stderr_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawn helper exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def serve() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                request["cmd"], stdout=subprocess.DEVNULL, stderr=err, env=request["env"]
            )
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "code": proc.returncode,
            "wall_s": elapsed,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,  # KiB on Linux
        }
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    serve()
