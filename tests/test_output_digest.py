"""``tools/output_digest.py``, the digest that byte-identity claims rest on."""
import hashlib
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from semigrav.scenarios import SCENARIO_NAMES

ROOT = Path(__file__).resolve().parents[1]
STEMS = (*SCENARIO_NAMES, "epr7", "pg5", "scan_V", "scan_V0")
USAGE = "python tools/output_digest.py <src dir>\n"
# the tool's output for this tree, after a first line "# <environment stamp>"
PINNED = ROOT / "tests" / "output_digests.txt"


def _digest(*args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py"), *args],
                          capture_output=True, text=True, timeout=120, cwd=ROOT, env=env)


def _stamp() -> str:
    """Python, numpy, BLAS and the SIMD targets numpy dispatches to: what the digests rest on."""
    config = np.show_config(mode="dicts")
    blas, simd = config["Build Dependencies"]["blas"], config["SIMD Extensions"]
    return (f"python {platform.python_version()}; numpy {np.__version__}; "
            f"blas {blas['name']} {blas['version']}; "
            f"cpu {' '.join(simd['baseline'] + simd['found'])}")


@pytest.fixture(scope="module")
def src_digest():
    """One tool run over this tree's ``src``, shared by the tests below."""
    return _digest(str(ROOT / "src"))


def test_digest_prints_one_line_per_output_and_status_file_then_the_combined_one(src_digest):
    proc = src_digest
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = [re.fullmatch(r"([0-9a-f]{64})  (\S+)", line) for line in proc.stdout.splitlines()]
    assert all(lines)
    *files, (combined, last) = [m.groups() for m in lines]
    assert last == "combined"
    names = [name for _, name in files]
    assert names == sorted(set(names))
    # every run in JSON and in CSV, each with its status file; further CSV tables
    # at <stem>.<table>.csv
    core = {f"{stem}.{ext}" for stem in STEMS for ext in
            ("json", "csv", "json.status", "csv.status")}
    assert core <= set(names)
    for name in set(names) - core:
        stem, table, ext = name.split(".")
        assert stem in STEMS and table.isidentifier() and ext == "csv", name
    # every packaged run exits 0 with nothing on stderr
    passed = hashlib.sha256(b"0\n").hexdigest()
    assert {sha for sha, name in files if name.endswith(".status")} == {passed}
    body = "".join(f"{name}\0{sha}\n" for sha, name in files)
    assert combined == hashlib.sha256(body.encode()).hexdigest()


def test_digests_match_the_pinned_file(src_digest):
    """Every packaged output is byte for byte the pinned one.  A change of output on
    purpose rewrites the file: the stamp line, then the tool's output."""
    assert src_digest.returncode == 0, src_digest.stderr
    stamp, *pinned = PINNED.read_text(encoding="utf-8").splitlines()
    assert stamp == f"# {_stamp()}", (
        f"{PINNED.name} was pinned in another environment: it reads {stamp[2:]!r}, "
        f"this one is {_stamp()!r}")
    want, got = ({name: sha for sha, name in (line.split("  ") for line in lines)}
                 for lines in (pinned, src_digest.stdout.splitlines()))
    differing = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not differing, f"outputs differ from {PINNED.name}: {', '.join(differing)}"


@pytest.mark.parametrize("args", [(), ("src", "src"), ("tests",)],
                         ids=["no-src", "two-srcs", "no-package"])
def test_digest_rejects_wrong_arguments_with_exit_2(args):
    proc = _digest(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    if len(args) != 1:
        assert proc.stderr == USAGE
    else:
        assert proc.stderr == f"no semigrav package in {ROOT / 'tests'}\n"
