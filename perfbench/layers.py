"""Per-layer figures for a traced run, taken from outside the program.

The stdlib profiler runs around the workload's calls into the public
API.  Call counts and self/cumulative times are read off the profile
for one function per layer; twist-cache figures are read from the
``SkewData`` objects the workload built.  A layer the workload's jobs
never enter is measured on the *probe* instead: one job of each other
workload, traced the same way.  Every figure in the trace file records
which of the two it came from.
"""
from __future__ import annotations

import contextlib
import cProfile
import io
import json
import os
import pstats
import statistics
import sys
import tempfile
import time
from pathlib import Path
from random import Random

from steady import run_child, steady_call

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

# layer -> (source file in skewseries/, function name)
FUNCTIONS = {
    "coeff.vmul": ("coeff.py", "vmul"),
    "coeff.vcanon": ("coeff.py", "vcanon"),
    "coeff.vinv": ("coeff.py", "vinv"),
    "skew.sig_vec": ("skew.py", "_apply"),
    "skew.build": ("skew.py", "__init__"),
    "skew.twist_cache": ("skew.py", "_twist_rows"),
    "series.y_step": ("series.py", "_y_step"),
    "series.mul": ("series.py", "_mul_rows"),
    "series.inverse": ("series.py", "inverse"),
    "series.right_coefficients": ("series.py", "right_coefficients"),
    "series.from_right_coefficients": ("series.py", "from_right_coefficients"),
    "weierstrass.divide": ("weierstrass.py", "divide"),
    "weierstrass.prepare": ("weierstrass.py", "prepare"),
    "weierstrass.divide_core": ("weierstrass.py", "_divide_core"),
    "weierstrass.shift_down": ("weierstrass.py", "_shift_down"),
    "weierstrass.divide_oracle": ("weierstrass.py", "divide_oracle"),
    "linalg.solve": ("linalg.py", "solve_mod_prime_power"),
    "linalg.smith": ("linalg.py", "smith_valuations"),
    "linalg.pval": ("linalg.py", "pval"),
    "iwasawa.rank_growth": ("iwasawa.py", "rank_growth"),
    "iwasawa.descend_ideal": ("iwasawa.py", "descend_ideal"),
    "iwasawa.normal_witness": ("iwasawa.py", "normal_witness"),
    "serialize.load_object": ("serialize.py", "load_object"),
    "serialize.canonical_json": ("serialize.py", "canonical_json"),
    "serialize.write_json_atomic": ("serialize.py", "write_json_atomic"),
}

# metric -> (layer, field); fields are per job of the traced list
PROFILED = {
    "coeff.vmul.calls": ("coeff.vmul", "calls"),
    "coeff.vmul.self_ms": ("coeff.vmul", "self_ms"),
    "coeff.vcanon.calls": ("coeff.vcanon", "calls"),
    "coeff.vcanon.self_ms": ("coeff.vcanon", "self_ms"),
    "coeff.vinv.calls": ("coeff.vinv", "calls"),
    "coeff.vinv.cum_ms": ("coeff.vinv", "cum_ms"),
    "skew.sig_vec.calls": ("skew.sig_vec", "calls"),
    "skew.sig_vec.self_ms": ("skew.sig_vec", "self_ms"),
    "skew.twist_cache.lookups": ("skew.twist_cache", "calls"),
    "series.y_step.calls": ("series.y_step", "calls"),
    "series.y_step.self_ms": ("series.y_step", "self_ms"),
    "series.mul.calls": ("series.mul", "calls"),
    "series.mul.cum_ms": ("series.mul", "cum_ms"),
    "series.inverse.calls": ("series.inverse", "calls"),
    "series.inverse.cum_ms": ("series.inverse", "cum_ms"),
    "series.right_coefficients.cum_ms": ("series.right_coefficients", "cum_ms"),
    "series.from_right_coefficients.cum_ms": ("series.from_right_coefficients", "cum_ms"),
    "weierstrass.divide.cum_ms": ("weierstrass.divide", "cum_ms"),
    "weierstrass.prepare.cum_ms": ("weierstrass.prepare", "cum_ms"),
    "weierstrass.divide_core.calls": ("weierstrass.divide_core", "calls"),
    "weierstrass.divide_oracle.cum_ms": ("weierstrass.divide_oracle", "cum_ms"),
    "linalg.solve.cum_ms": ("linalg.solve", "cum_ms"),
    "linalg.smith.cum_ms": ("linalg.smith", "cum_ms"),
    "linalg.pval.calls": ("linalg.pval", "calls"),
    "iwasawa.rank_growth.cum_ms": ("iwasawa.rank_growth", "cum_ms"),
    "iwasawa.descend_ideal.cum_ms": ("iwasawa.descend_ideal", "cum_ms"),
    "iwasawa.normal_witness.cum_ms": ("iwasawa.normal_witness", "cum_ms"),
    "serialize.load_object.cum_ms": ("serialize.load_object", "cum_ms"),
    "serialize.canonical_json.cum_ms": ("serialize.canonical_json", "cum_ms"),
    "serialize.write_json_atomic.cum_ms": ("serialize.write_json_atomic", "cum_ms"),
}

UNITS = {"calls": "count", "self_ms": "ms", "cum_ms": "ms"}
SUBPROCESS_REPEATS = 9
MAIN_ROUNDS = 2


class Profiles:
    """One profiler per named section; a section may be entered many times."""

    def __init__(self):
        self.prof: dict[str, cProfile.Profile] = {}

    @contextlib.contextmanager
    def section(self, name: str):
        prof = self.prof.setdefault(name, cProfile.Profile())
        prof.enable()
        try:
            yield
        finally:
            prof.disable()

    def table(self, *names: str, slowness: float = 1.0) -> dict:
        """Calls, self and cumulative ms of each layer function, summed.

        Times are divided by the host slowness, as the jobs' are."""
        out = {layer: {"calls": 0, "self_ms": 0.0, "cum_ms": 0.0} for layer in FUNCTIONS}
        wanted = {v: k for k, v in FUNCTIONS.items()}
        for name in names:
            if name not in self.prof:
                continue
            for (fname, _, func), (_, nc, tt, ct, _) in pstats.Stats(self.prof[name]).stats.items():
                path = Path(fname)
                layer = wanted.get((path.name, func))
                if layer and path.parent.name == "skewseries":
                    row = out[layer]
                    row["calls"] += nc
                    row["self_ms"] += tt * 1e3 / slowness
                    row["cum_ms"] += ct * 1e3 / slowness
        return out


def _twist_entries(skew_data) -> int:
    seen = {}
    todo = list(skew_data)
    while todo:
        sd = todo.pop()
        if id(sd) not in seen:
            seen[id(sd)] = sd
            todo.extend(sd._derived.values())
    return sum(len(sd._twist) for sd in seen.values())


def _per(table: dict, n: int) -> dict:
    return {layer: {k: v / n for k, v in row.items()} for layer, row in table.items()}


def _layer_figures(own: dict, n_own: int, own_entries: int, probe: dict, probe_entries: int):
    """Per-job figures, each layer from the workload's jobs if they reach it."""
    own_j, probe_j = _per(own, n_own), _per(probe, 1)
    pick = {layer: (own_j, "jobs") if own[layer]["calls"] else (probe_j, "probe") for layer in FUNCTIONS}
    metrics = {}
    for name, (layer, field) in PROFILED.items():
        src, tag = pick[layer]
        metrics[name] = (src[layer][field], UNITS[field], tag)
    src, tag = pick["weierstrass.divide_core"]
    steps = src["weierstrass.shift_down"]["calls"] - 2 * src["weierstrass.divide_core"]["calls"]
    metrics["weierstrass.contraction_steps"] = (steps, "count", tag)
    tag = pick["skew.twist_cache"][1]
    metrics["skew.twist_cache.entries"] = (own_entries if tag == "jobs" else probe_entries, "count", tag)
    return metrics


def _main_in_process(argv: list[str]):
    """One in-process ``cli.main(argv)`` call; its stdout is captured."""
    from skewseries import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().encode()


def _cli_figures(wl) -> dict:
    """Interpreter floor, package import and in-process ``cli.main``.

    The interpreter floor is the raw median wall time of bare starts; the
    import figure is the median ratio of an importing start to the bare
    starts either side of it, minus one, times that floor.
    """
    def spawn(code):
        t0 = time.perf_counter()
        proc = run_child([sys.executable, "-c", code], dict(os.environ))
        dt = time.perf_counter() - t0
        proc.check_returncode()
        return dt

    bare = [spawn("pass")]
    ratio = []
    for _ in range(SUBPROCESS_REPEATS):
        t = spawn("import skewseries.cli")
        bare.append(spawn("pass"))
        ratio.append(2 * t / (bare[-2] + bare[-1]))
    main = [steady_call(lambda: _main_in_process(argv))[2] for _ in range(MAIN_ROUNDS) for _, argv in wl.jobs]
    floor = statistics.median(bare) * 1e3
    return {
        "cli.interpreter_ms": (floor, "ms", "subprocess"),
        "cli.import_ms": ((statistics.median(ratio) - 1) * floor, "ms", "subprocess"),
        "cli.main_ms": (statistics.median(main) * 1e3, "ms", "in-process"),
    }


def _probe(prof: Profiles, seed: int, skip: str, tally, cli_wl=None) -> int:
    """One traced job of every in-process workload but ``skip``, and one
    in-process round of ``cli_wl`` when given; returns twist entries."""
    import workloads

    entries = 0
    for cls in workloads.IN_PROCESS.values():
        if cls.name == skip:
            continue
        wl = cls(seed)
        x = wl.make(Random(f"probe-{cls.name}-{seed}"), 0)
        with prof.section("probe"):
            out = wl.run(x)
        tally.note(wl.check(x, out))
        entries += _twist_entries(wl.skew_data())
    if cli_wl is not None:
        for name, argv in cli_wl.jobs:
            with prof.section("probe"):
                code, stdout = _main_in_process(argv)
            tally.note(cli_wl.check(name, code, stdout, cli_wl.read_outputs(name)))
    return entries


def _finish(args, metrics: dict, own: dict, tally) -> tuple[dict, str]:
    n = len(tally.steady)
    metrics["trace.latency_p50_ms"] = (statistics.median(tally.steady) * 1e3, "ms", "jobs")
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "jobs": n,
        "metrics": {k: {"value": v, "unit": u, "source": s} for k, (v, u, s) in sorted(metrics.items())},
        "functions_per_job": _per(own, n),
    }
    path = OUT / f"trace-{args.workload}-seed{args.seed}-{time.time_ns()}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return {k: {"value": v["value"], "unit": v["unit"]} for k, v in doc["metrics"].items()}, str(path)


def _build_figures(table: dict) -> dict:
    build = table["skew.build"]
    return {
        "skew.build.calls": (build["calls"], "count", "run"),
        "skew.build.cum_ms": (build["cum_ms"], "ms", "run"),
    }


def _slowness(tally) -> float:
    """The host slowness over the traced jobs (see steady.py)."""
    return statistics.median(tally.wall) / statistics.median(tally.steady)


def report(args, prof: Profiles, wl, tally) -> tuple[dict, str]:
    """Per-layer figures of an in-process workload's traced jobs."""
    import workloads

    slow = _slowness(tally)
    own = prof.table("jobs", slowness=slow)
    with tempfile.TemporaryDirectory(prefix="cli-", dir=OUT) as work:
        cli_wl = workloads.Cli(args.seed, Path(work))
        probe_entries = _probe(prof, args.seed, wl.name, tally, cli_wl)
        cli_figures = _cli_figures(cli_wl)
    metrics = _layer_figures(
        own, len(tally.steady), _twist_entries(wl.skew_data()),
        prof.table("probe", slowness=slow), probe_entries,
    )
    metrics.update(_build_figures(prof.table("setup", "jobs", slowness=slow)))
    metrics.update(cli_figures)
    return _finish(args, metrics, own, tally)


def report_cli(args, wl, tally, n: int) -> tuple[dict, str]:
    """The cli workload traced: its job list as in-process ``cli.main`` calls."""
    prof = Profiles()
    first: dict[str, dict] = {}

    def call(argv):
        with prof.section("jobs"):
            code, stdout = _main_in_process(argv)
        if code != 0:
            raise RuntimeError(f"cli.main exit code {code}")
        return stdout

    for i in range(n):
        name, argv = wl.jobs[i % len(wl.jobs)]
        wl.clear_outputs(name)
        stdout = tally.timed(wl.ops_per_job, lambda: call(argv))
        if stdout is None:
            continue
        files = wl.read_outputs(name)
        if name not in first:
            first[name] = files
            tally.note(wl.check(name, 0, stdout, files))
        elif files != first[name]:
            tally.note([f"{name}: same input gave different bytes"])
    slow = _slowness(tally)
    own = prof.table("jobs", slowness=slow)
    probe_entries = _probe(prof, args.seed, "cli", tally)
    metrics = _layer_figures(own, len(tally.steady), 0, prof.table("probe", slowness=slow), probe_entries)
    metrics.update(_build_figures(own))
    metrics.update(_cli_figures(wl))
    return _finish(args, metrics, own, tally)
