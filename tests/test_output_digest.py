"""``tools/output_digest.py``, the digest that byte-identity claims rest on."""
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from semigrav.scenarios import SCENARIO_NAMES

ROOT = Path(__file__).resolve().parents[1]
STEMS = (*SCENARIO_NAMES, "epr7", "pg5", "scan_V", "scan_V0")
USAGE = "python tools/output_digest.py <src dir>\n"


def _digest(*args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py"), *args],
                          capture_output=True, text=True, timeout=120, cwd=ROOT, env=env)


def test_digest_prints_one_line_per_output_and_status_file_then_the_combined_one():
    proc = _digest(str(ROOT / "src"))
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
