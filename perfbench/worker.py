"""One workload in one fresh process; ``run.py`` starts it.

Prints one JSON object as its last stdout line: the set-up time, the
wall time of every timed job (raw, and rescaled to a fixed host speed),
operation counts and the output checks' verdict, plus the per-layer
figures when traced.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from random import Random

from steady import SpawnReference, host_slowness, steady_call

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_MESSAGES = 5
CLI_SETUP_PASSES = 5  # cli set-up samples, each a warm-up pass from a cold bytecode cache


def job_count(nominal_ms: float, seconds: int, round_size: int = 1) -> int:
    """Jobs in a run: the fixed list whose nominal cost fills ``seconds``.

    The count depends only on the arguments, never on the clock, so every
    run of a workload does the same work.
    """
    n = max(40, math.ceil(seconds * 1000.0 / nominal_ms))
    return round_size * math.ceil(n / round_size)


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


class Tally:
    """Operation counts, timings and the first few check failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.bad: list[str] = []  # check failures: the run is not correct
        self.errors: list[str] = []  # failed operations: counted, not checked
        self.wall: list[float] = []
        self.steady: list[float] = []

    def note(self, messages, into=None):
        into = self.bad if into is None else into
        into.extend(messages[: max(0, MAX_MESSAGES - len(into))])

    def timed(self, ops: int, fn, clock=steady_call):
        """Time one job of ``ops`` operations; None if it raised."""
        self.attempted += ops
        try:
            out, dt, steady = clock(fn)
        except Exception as exc:  # counted as failed operations; the run goes on
            self.failed += ops
            self.note([f"{type(exc).__name__}: {exc}"], self.errors)
            return None
        self.wall.append(dt)
        self.steady.append(steady)
        return out

    def result(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "bad": self.bad,
            "errors": self.errors,
            "wall_s": self.wall,
            "steady_s": self.steady,
        }


def traced(section, fn, *args):
    with section("jobs"):
        return fn(*args)


def run_in_process(args) -> dict:
    t = time.time()
    slow0 = host_slowness()
    ref_s = time.time() - t
    import workloads

    cls = workloads.IN_PROCESS[args.workload]
    prof = None
    if args.trace:
        import layers

        prof = layers.Profiles()
    section = prof.section if prof else lambda name: contextlib.nullcontext()
    with section("setup"):
        wl = cls(args.seed)
    t = time.time()
    warm = wl.make(Random(f"{wl.name}-warmup-{args.seed}"), 0)
    gen_s = time.time() - t
    tally = Tally()
    try:
        warm_out = wl.run(warm)
    except Exception as exc:  # the timed jobs count this failure
        warm_out = None
        tally.note([f"warm-up: {type(exc).__name__}: {exc}"], tally.errors)
    setup_s = time.time() - args.spawned_at - gen_s - ref_s
    setup = setup_s * 2 / (slow0 + host_slowness())
    if warm_out is not None:
        tally.note(wl.check(warm, warm_out))
    if args.setup_only:
        return {"setup_s": [setup], **tally.result()}

    rng = Random(f"{wl.name}-{args.seed}")
    for i in range(job_count(wl.nominal_ms, args.seconds)):
        x = wl.make(rng, i)
        gc.collect()
        out = tally.timed(wl.ops_per_job, lambda: traced(section, wl.run, x))
        if out is not None:
            tally.note(wl.check(x, out))
    res = {"setup_s": [setup], "peak_rss_mb": peak_rss_mb()}
    if prof:
        res["layers"], res["trace_file"] = layers.report(args, prof, wl, tally)
    return res | tally.result()


def run_cli(args) -> dict:
    import workloads

    with tempfile.TemporaryDirectory(prefix="cli-", dir=HERE / "out") as work:
        wl = workloads.Cli(args.seed, Path(work))
        tally = Tally()
        n = job_count(wl.nominal_ms, args.seconds, len(wl.jobs))
        if args.trace:
            import layers

            res = dict(zip(("layers", "trace_file"), layers.report_cli(args, wl, tally, n)))
        else:
            res = _cli_runs(wl, Path(work), tally, n)
        return res | tally.result()


def succeeded(proc):
    """A CLI child that exits non-zero is a failed operation."""
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr[-300:]!r}")
    return proc


def _cli_runs(wl, work: Path, tally: Tally, n: int) -> dict:
    env = dict(os.environ)
    pycache = work / "pycache"
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    clock = SpawnReference(env)
    setup = []
    for _ in range(CLI_SETUP_PASSES):
        # every warm-up pass starts from an empty bytecode cache
        shutil.rmtree(pycache, ignore_errors=True)
        for name, _ in wl.jobs:
            wl.clear_outputs(name)
        done, _, steady = clock.call(lambda: [(name, wl.spawn(argv, env)) for name, argv in wl.jobs])
        setup.append(steady)
        for name, proc in done:
            tally.note(wl.check(name, proc.returncode, proc.stdout, wl.read_outputs(name)))

    first: dict[str, dict] = {}
    for i in range(n):
        name, argv = wl.jobs[i % len(wl.jobs)]
        wl.clear_outputs(name)
        gc.collect()
        proc = tally.timed(wl.ops_per_job, lambda: succeeded(wl.spawn(argv, env)), clock.call)
        if proc is None:
            continue
        files = wl.read_outputs(name)
        if name not in first:
            first[name] = files
            tally.note(wl.check(name, proc.returncode, proc.stdout, files))
        elif files != first[name]:
            tally.note([f"{name}: same input gave different bytes"])
    return {"setup_s": setup, "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    res = run_cli(args) if args.workload == "cli" else run_in_process(args)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
