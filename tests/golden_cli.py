"""The golden-output corpus: a fixed list of CLI runs and the sha256 of what
each one prints and writes.

The runs go in order through ``zdmn.cli.main`` in one working directory, so
the first ones write the files the later ones read.  Every entry records the
exit code, the hashes of stdout and stderr, and the hash of every file the
run created or changed.  ``tests/test_cli.py`` compares a fresh run with the
committed ``tests/golden_cli.json``; tests never write it.  A change that
alters an answer on purpose regenerates the table with

    PYTHONPATH=src python tests/golden_cli.py

and names the changed entries in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

from zdmn import cli

TABLE = pathlib.Path(__file__).with_name("golden_cli.json")

_SPECS = ("bscfb", "classical-bsc", "deterministic", "causal-relay")
_GAUSSIAN = ["gaussian", "--power", "5", "--experiment", "--n", "8",
             "--blocks", "20", "--trials", "10", "--seed", "2"]

COMMANDS = (
    [["generate", "spec", "--name", name, "--out", f"{name}.json"] for name in _SPECS]
    + [["generate", "code", "--spec", "bscfb.json", "--n", "1", "--seed", "5",
        "--out", "code.json"],
       ["generate", "code", "--spec", "causal-relay.json", "--n", "2", "--seed", "3",
        "--message-size", "3", "--profile", "1,0,1", "--out", "relay-code.json"]]
    + [["bound", "--spec", f"{name}.json", "--grid", "4", "--mode", mode, "--format", fmt]
       for name in _SPECS for mode in ("capacity", "positive-delay")
       for fmt in ("text", "csv", "json")]
    + [["bound", "--spec", "bscfb.json", "--grid", "4", "--cut", "10", "--out", "bound.txt"],
       ["feasible", "--spec", "causal-relay.json", "--all"],
       ["feasible", "--spec", "bscfb.json", "--profile", "1,0"],
       ["validate", "--spec", "bscfb.json"],
       ["validate", "--spec", "invalid.json"],
       ["simulate", "--spec", "bscfb.json", "--code", "code.json", "--trials", "25",
        "--seed", "3", "--trace-out", "trace.csv"],
       ["simulate", "--spec", "causal-relay.json", "--code", "relay-code.json",
        "--trials", "200", "--seed", "1"],
       ["bscfb", "--eps", "0.11", "--n", "64", "--rate", "0.25", "--trials", "30",
        "--seed", "1"],
       ["bscfb", "--eps", "0.11", "--n", "2000", "--rate", "0.4", "--trials", "200",
        "--seed", "7"],
       ["gaussian", "--power", "5"],
       _GAUSSIAN]
    + [_GAUSSIAN + ["--method", method] for method in ("auto", "exhaustive", "analytic")]
    + [["gaussian", "--power", "5", "--experiment", "--n", "24", "--trials", "200",
        "--method", "analytic"],
       # one refusal per exit code: 1 domain, 2 file, 3 resource cap
       ["feasible", "--spec", "bscfb.json", "--profile", "1,1,1"],
       ["validate", "--spec", "missing.json"],
       ["bscfb", "--eps", "0.11", "--n", "70000", "--trials", "1"]]
)


def _write_invalid_spec() -> None:
    """invalid.json: bscfb.json with its first channel row no longer summing to one."""
    spec = json.loads(pathlib.Path("bscfb.json").read_text(encoding="utf-8"))
    spec["channels"][0]["rows"][0][0] = 0.9
    pathlib.Path("invalid.json").write_text(json.dumps(spec), encoding="utf-8")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files() -> dict:
    return {p.name: _digest(p.read_bytes()) for p in sorted(pathlib.Path().iterdir())}


def run_corpus() -> dict:
    """Run every command in the current directory; argv text -> its hashes."""
    table = {}
    for argv in COMMANDS:
        if argv[:3] == ["validate", "--spec", "invalid.json"]:
            _write_invalid_spec()
        before = _files()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        after = _files()
        table[" ".join(argv)] = {
            "exit": code,
            "stdout": _digest(out.getvalue().encode()),
            "stderr": _digest(err.getvalue().encode()),
            "files": {name: h for name, h in after.items() if before.get(name) != h},
        }
    return table


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        here = os.getcwd()
        os.chdir(work)
        try:
            corpus = run_corpus()
        finally:
            os.chdir(here)
    TABLE.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} entries to {TABLE}", file=sys.stderr)
