"""Record one SHA-256 per CLI run into tests/cli_digests.json. Run from
the repository root:

    PYTHONPATH=src python tests/fixtures/record_cli_digests.py

Each digest covers the run's exit code, its stdout with every
`elapsed_ms` value masked, its stderr and the bytes of the file it wrote.
The runs are every verb on every fixture and invalid fixture, `functor s`
and `adjunction-test fm-s` with and without `--grades`, `eval`,
`consequence` and `theorem2` on the fixture interpretation, and each suite
at seeds 0 and 1 with `--instances 5`. `tests/test_cli_digests.py` runs
them again and compares; re-record only when a change of output is
intended. The table sits outside this directory, where every `*.json` is
a structure file of the corpus.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

from graded_topos.cli import main
from graded_topos.suites import SUITE_NAMES

HERE = Path(__file__).parent
DIGESTS = HERE.parent / "cli_digests.json"
GRADES = ("0,1", "0,1/2,1")
_ELAPSED = re.compile(rb'"elapsed_ms": \d+')


def fixture_names() -> list[str]:
    """Every fixture, as a path relative to this directory, so that no
    message names the directory the suite runs from."""
    valid = sorted(p.name for p in HERE.glob("*.json"))
    invalid = sorted(f"invalid/{p.name}" for p in (HERE / "invalid").glob("*.json")
                     if p.name != "manifest.json")
    return valid + invalid


def runs() -> list[list[str]]:
    """The argument lists, with OUT standing for the written file."""
    out = []
    for name in fixture_names():
        out += [["check", kind, name] for kind in ("space", "frame", "system")]
        out += [["functor", functor, "--in", name, "--out", "OUT"]
                for functor in ("ext", "j", "fm", "s")]
        out += [["functor", "s", "--in", name, "--grades", g, "--out", "OUT"] for g in GRADES]
        out += [["adjunction-test", "j-ext", "--in", name],
                ["adjunction-test", "fm-s", "--in", name]]
        out += [["adjunction-test", "fm-s", "--in", name, "--grades", g] for g in GRADES]
        out += [["spatiality", name],
                ["eval", "--interp", name, "--formula", "p(c1)"],
                ["consequence", "--interp", name, "--lhs", "p(x1)", "--rhs", "q(x1)"],
                ["theorem2", "--interp", name, "--pool", "pool_basic.json"],
                ["theorem2", "--interp", "interp_basic.json", "--pool", name]]
    interp = "interp_basic.json"
    for formula in ("p(c1)", "E x1. (p(x1) & q(f(x1)))", "(p(x1) -> q(x1))", "zz(x1)"):
        out.append(["eval", "--interp", interp, "--formula", formula, "--assign", "x1=d2"])
    for lhs, rhs in (("p(x1)", "q(x1)"), ("q(x1)", "p(x1)"), ("T", "E x2. q(x2)")):
        out.append(["consequence", "--interp", interp, "--lhs", lhs, "--rhs", rhs])
    for suite in SUITE_NAMES:
        out += [["suite", suite, "--seed", str(seed), "--instances", "5"] for seed in (0, 1)]
    return out


def digest(argv: list[str], outdir: Path) -> str:
    """Run `argv` from this directory and hash what it did."""
    outfile = outdir / "out.json"
    argv = [str(outfile) if arg == "OUT" else arg for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(cwd)
    written = outfile.read_bytes() if outfile.exists() else b"<none>"
    outfile.unlink(missing_ok=True)
    sha = hashlib.sha256()
    for part in (str(code).encode(), _ELAPSED.sub(b'"elapsed_ms": 0', stdout.getvalue().encode()),
                 stderr.getvalue().encode(), written):
        sha.update(len(part).to_bytes(8, "big"))
        sha.update(part)
    return sha.hexdigest()


def record() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        return {" ".join(argv): digest(argv, Path(tmp)) for argv in runs()}


if __name__ == "__main__":
    table = record()
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DIGESTS}")
