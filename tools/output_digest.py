"""SHA-256 digests of the packaged scenario outputs, for byte-identity checks.

    python tools/output_digest.py <src dir>

Imports ``semigrav`` from ``<src dir>`` and runs, through ``cli.main``, all
eight packaged scenarios, ``epr_collapse --seed 7 --trials 777``,
``page_geilker --seed 5 --trials 999``, ``scan minkowski_particle --param V
--values 10,20,40,80`` (the packaged config made 1-D, ``mode_label`` [1]) and
``scan eds_cosmology --param V0 --values 18.85,188.5,1885``, each in JSON and
in CSV.  Every output file, and each invocation's exit code and stderr (as
``<run>.status``), gets one ``sha256  name`` line; the last line is one
SHA-256 over the sorted ``name NUL sha256 LF`` lines of them all.  Two
source trees print the same last line exactly when these outputs agree
byte for byte.  A wrong argument count, or a directory that holds no
``semigrav`` package, exits 2.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path


def _invocations(config_1d: Path) -> list[tuple[str, list[str]]]:
    from semigrav.scenarios import SCENARIO_NAMES
    runs = [(name, ["run", name]) for name in SCENARIO_NAMES]
    runs += [("epr7", ["run", "epr_collapse", "--seed", "7", "--trials", "777"]),
             ("pg5", ["run", "page_geilker", "--seed", "5", "--trials", "999"]),
             ("scan_V", ["scan", "minkowski_particle", "--param", "V",
                         "--values", "10,20,40,80", "--config", str(config_1d)]),
             ("scan_V0", ["scan", "eds_cosmology", "--param", "V0",
                          "--values", "18.85,188.5,1885"])]
    return runs


def digest(work_dir: Path) -> dict[str, str]:
    """Run every invocation under ``work_dir``; the SHA-256 of each file it writes."""
    from semigrav.cli import main
    from semigrav.scenarios import default_config
    out_dir = work_dir / "out"
    out_dir.mkdir()
    config_1d = work_dir / "minkowski_particle_1d.json"
    config_1d.write_text(json.dumps(dict(default_config("minkowski_particle"),
                                         dimension=1, mode_label=[1])), encoding="utf-8")
    for stem, argv in _invocations(config_1d):
        for fmt in ("json", "csv"):
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main(argv + ["--format", fmt, "--out", str(out_dir / f"{stem}.{fmt}")])
            (out_dir / f"{stem}.{fmt}.status").write_text(f"{code}\n{stderr.getvalue()}",
                                                          encoding="utf-8")
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.iterdir())}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    if not (src / "semigrav" / "__init__.py").is_file():
        print(f"no semigrav package in {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import semigrav
    if Path(semigrav.__file__).resolve().parent != src / "semigrav":
        print(f"semigrav was imported from {semigrav.__file__}, not {src}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        hashes = digest(Path(tmp))
    for name, sha in hashes.items():
        print(f"{sha}  {name}")
    combined = "".join(f"{name}\0{sha}\n" for name, sha in sorted(hashes.items()))
    print(f"{hashlib.sha256(combined.encode()).hexdigest()}  combined")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
