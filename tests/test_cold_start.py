"""Fresh CLI processes: golden bytes, and the modules each subcommand loads.

The golden tests call ``main()`` in a process that has already imported the
whole package, so they cannot see a handler that misses its own import.
These tests start a new interpreter for every run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import _infile, _manifest, _placeholder, GOLDEN

SRC = Path(__file__).resolve().parent.parent / "src"

# one golden case per subcommand
CASES = {
    "axioms": "axioms-0",
    "descend": "descend-0",
    "divide": "divide-0",
    "invert": "invert-0",
    "omega": "omega-0",
    "prepare": "prepare-0",
    "rankgrowth": "rankgrowth-0",
    "selfcheck": "selfcheck-42",
    "xi": "xi-0",
}

# Runs cli.main(argv) and writes the modules it loaded beyond the bare
# interpreter's, one per line, to the file named first.
LOADED_MODULES = """
import sys
before = set(sys.modules)
from skewseries import cli
code = cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    fh.write("\\n".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""


def _env() -> dict:
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    return {**os.environ, "PYTHONPATH": path, "COLUMNS": "80"}


def _argv(name: str, out: Path) -> list[str]:
    infile = _infile(name)
    inflag = ["--in", str(infile)] if infile is not None else []
    return [*_manifest()[name]["argv"], *inflag, "--out", str(out)]


@pytest.mark.parametrize("subcommand", sorted(CASES))
def test_fresh_process_matches_golden_bytes(subcommand, tmp_path):
    name = CASES[subcommand]
    case = _manifest()[name]
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-m", "skewseries.cli", *_argv(name, out)],
        capture_output=True, text=True, env=_env(),
    )
    assert (proc.returncode, proc.stdout, _placeholder(proc.stderr, _infile(name))) == (
        case["exit"], case["stdout"], case["stderr"]
    )
    for written, expected in (
        (out, GOLDEN / f"{name}.out.json"),
        (out.with_suffix(".csv"), GOLDEN / f"{name}.out.csv"),
    ):
        if expected.exists():
            assert written.read_bytes() == expected.read_bytes()
        else:
            assert not written.exists()


@pytest.mark.parametrize("subcommand", sorted(CASES))
def test_subcommand_loads_only_its_modules(subcommand, tmp_path):
    listing = tmp_path / "modules.txt"
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, str(listing),
         *_argv(CASES[subcommand], tmp_path / "out.json")],
        capture_output=True, text=True, env=_env(),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(listing.read_text().split())
    assert "skewseries.cli" in loaded
    assert ("skewseries.selfcheck" in loaded) == (subcommand == "selfcheck")
    if subcommand in ("prepare", "divide", "invert", "axioms"):
        assert not loaded & {"skewseries.iwasawa", "dataclasses", "inspect"}


def test_bare_interpreter_loads_no_typing(tmp_path):
    # site preloads typing on some hosts, so only a `python -S` child can
    # show that the modules these subcommands run never import it
    bare = subprocess.run(
        [sys.executable, "-S", "-c", "import sys; print('typing' in sys.modules)"],
        capture_output=True, text=True, env=_env(),
    )
    assert bare.stdout.strip() == "False"
    for subcommand in ("prepare", "divide", "invert", "axioms"):
        listing = tmp_path / f"{subcommand}.txt"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", LOADED_MODULES, str(listing),
             *_argv(CASES[subcommand], tmp_path / "out.json")],
            capture_output=True, text=True, env=_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "typing" not in listing.read_text().split(), subcommand


def _loaded_modules(subcommand: str, tmp_path: Path, *flags: str) -> set[str]:
    listing = tmp_path / f"{subcommand}{''.join(flags)}.txt"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", LOADED_MODULES, str(listing),
         *_argv(CASES[subcommand], tmp_path / "out.json")],
        capture_output=True, text=True, env=_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return set(listing.read_text().split())


@pytest.mark.parametrize("subcommand", ["descend", "omega", "xi"])
def test_iwasawa_subcommands_load_no_dataclasses(subcommand, tmp_path):
    # iwasawa's records are slot classes; only rank_growth's result, in
    # skewseries.growth, is a dataclass
    for flags in ((), ("-S",)):
        loaded = _loaded_modules(subcommand, tmp_path, *flags)
        assert "skewseries.iwasawa" in loaded
        assert not loaded & {"skewseries.growth", "dataclasses", "inspect"}, flags
        if flags:
            assert "typing" not in loaded


def test_rankgrowth_loads_growth_result_on_demand(tmp_path):
    assert {"skewseries.growth", "dataclasses"} <= _loaded_modules("rankgrowth", tmp_path)
