"""Wall time rescaled to a fixed host speed.

On a shared host the speed at which Python runs drifts by up to half
between one minute and the next, for every process alike.  A fixed
piece of reference work, timed just before and just after each measured
call, gives the host's slowness at that moment; the call's wall time
divided by it is what the call would have taken at nominal speed.
"""
from __future__ import annotations

import subprocess
import sys
import threading
import time

# Wall time of two reference() calls that counts as host speed 1.0
# (its value on an idle 2-vCPU Xeon host when the benchmark was written).
REFERENCE_S = 0.40e-3


def reference() -> None:
    """Fixed pure-Python integer work, shaped like the digit kernels."""
    acc = [0] * 16
    for a in range(16):
        for b in range(16):
            for c in range(8):
                acc[(a + b) % 16] += a * b + c


def host_slowness() -> float:
    """How much slower than nominal the host runs Python right now."""
    t0 = time.perf_counter()
    reference()
    reference()
    return (time.perf_counter() - t0) / REFERENCE_S


def steady_call(fn):
    """Run fn; return its result, its wall time, and that wall time
    divided by the mean host slowness just before and just after."""
    before = host_slowness()
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    after = host_slowness()
    return out, dt, dt * 2 / (before + after)


def run_child(cmd: list[str], env: dict, limit_s: float = 120.0) -> subprocess.CompletedProcess:
    """Run cmd to completion, capturing its output; kill it after limit_s.

    The wait is a blocking waitpid.  ``subprocess.run(timeout=...)`` polls
    instead, sleeping up to 50 ms between polls, which would add up to
    50 ms to every measured child.
    """
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(limit_s, proc.kill)
    killer.start()
    try:
        out, err = proc.communicate()
    finally:
        killer.cancel()
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


# Wall time of a bare ``python -c pass`` process that counts as host
# speed 1.0 for process start-up (same host and time as REFERENCE_S).
SPAWN_REFERENCE_S = 45e-3


class SpawnReference:
    """Host slowness for whole processes, from bare interpreter starts.

    Process start-up spends much of its time in the kernel and the loader,
    which in-process reference work does not track; a bare interpreter
    start timed between consecutive measured calls does.
    """

    def __init__(self, env: dict):
        self.env = env
        self.last = self._spawn()

    def _spawn(self) -> float:
        t0 = time.perf_counter()
        proc = run_child([sys.executable, "-c", "pass"], self.env)
        dt = time.perf_counter() - t0
        proc.check_returncode()
        return dt

    def call(self, fn):
        """Like steady_call, with the interpreter starts either side of fn."""
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        after = self._spawn()
        before, self.last = self.last, after
        return out, dt, dt * 2 * SPAWN_REFERENCE_S / (before + after)
