"""Time one fresh start: import semigrav, then load and validate configs.

    python3 setup_probe.py <src dir> <inputs.json>

``inputs.json`` is a list of ``[scenario, path or null]``; null means the
packaged default config.  Prints the elapsed seconds, which is the cost
every CLI invocation pays before it runs a scenario.
"""
import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    src, inputs = sys.argv[1], json.loads(Path(sys.argv[2]).read_text(encoding="utf-8"))
    sys.path.insert(0, src)
    start = time.perf_counter()
    import semigrav

    for name, path in inputs:
        cfg = semigrav.default_config(name) if path is None else json.loads(
            Path(path).read_text(encoding="utf-8"))
        semigrav.validate_config(name, cfg)
    elapsed = time.perf_counter() - start
    if not semigrav.__file__.startswith(src):
        sys.exit(f"semigrav was imported from {semigrav.__file__}, not {src}")
    print(repr(elapsed))
