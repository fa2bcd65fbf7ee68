"""Benchmark of skewseries: one workload per run, every output checked.

    python3 perfbench/run.py --workload ring --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --compare OLD_TRACE.json NEW_TRACE.json

A run prints, as its last stdout line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (which also writes
a trace file under ``perfbench/out/``).  ``--compare`` prints the ratio
of every per-layer metric of two trace files.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import sys
import time
from pathlib import Path

from steady import run_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("ring", "weierstrass", "iwasawa_linalg", "cli")
SETUP_SAMPLES = 5  # in-process workloads: set-up-only processes plus the measuring one
RUN_LIMIT_S = 170


class WorkerFailed(Exception):
    pass


def child_env() -> dict:
    """Environment of every process the benchmark starts.

    Bytecode writing is switched back on and redirected into a directory
    the benchmark owns, so the package is compiled once per cache, not in
    every process.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn_worker(args, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
        "--spawned-at", repr(time.time()),
    ]
    proc = run_child(cmd, child_env(), max(1.0, deadline - time.monotonic()))
    if proc.returncode == -signal.SIGKILL:
        raise WorkerFailed(f"worker exceeded the {RUN_LIMIT_S} s run limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n{proc.stderr.decode()}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail_rank(n: int) -> tuple[int, int]:
    """The highest whole percentile with at least ten samples beyond it,
    and the 1-based nearest rank of that percentile among n samples."""
    pct = math.floor(100 * (1 - 10 / n))
    return pct, max(1, math.ceil(pct / 100 * n))


def end_to_end(res: dict, setup: list[float]) -> dict:
    wall = sorted(res["steady_s"])
    if not wall:
        raise WorkerFailed("every timed job failed; there is nothing to report")
    pct, rank = tail_rank(len(wall))
    raw = statistics.median(res["wall_s"])
    print(f"{len(wall)} timed jobs; tail = p{pct} (rank {rank}, {len(wall) - rank} samples beyond); "
          f"raw wall p50 {raw * 1e3:.2f} ms, host slowness {raw / statistics.median(wall):.3f}")
    return {
        "jobs_per_s": {"value": len(wall) / sum(wall), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(wall) * 1e3, "unit": "ms"},
        "latency_tail_ms": {"value": wall[rank - 1] * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }


def run(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setup: list[float] = []
    bad: list[str] = []
    if not args.trace and args.workload != "cli":
        for _ in range(SETUP_SAMPLES - 1):
            res = spawn_worker(args, deadline, "--setup-only")
            setup += res["setup_s"]
            bad += res["bad"]
    res = spawn_worker(args, deadline)
    setup += res.get("setup_s", [])
    bad += res["bad"]
    for msg in bad:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    for msg in res["errors"]:
        print(f"OPERATION FAILED: {msg}", file=sys.stderr)
    if args.trace:
        print(f"trace written to {res['trace_file']}")
        metrics = res["layers"]
    else:
        metrics = end_to_end(res, setup)
    return {
        "correct": not bad,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def compare(old_path: str, new_path: str) -> None:
    """Per-layer ratios new/old of two trace files, each with its base."""
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    print(f"base: {old['workload']} seed {old['seed']} ({old['jobs']} jobs)  "
          f"new: {new['workload']} seed {new['seed']} ({new['jobs']} jobs)")
    print(f"{'metric':40} {'unit':6} {'base':>12} {'new':>12} {'new/base':>9}  source")
    for name, o in old["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            print(f"{name:40} {o['unit']:6} {o['value']:12.4g} {'missing':>12}")
            continue
        ratio = f"{n['value'] / o['value']:9.3f}" if o["value"] else f"{'n/a':>9}"
        src = o["source"] if o["source"] == n["source"] else f"{o['source']}->{n['source']}"
        print(f"{name:40} {o['unit']:6} {o['value']:12.4g} {n['value']:12.4g} {ratio}  {src}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "skewseries" / "__init__.py").is_file():
        print(f"run.py: no skewseries sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        result = run(args)
    except WorkerFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
