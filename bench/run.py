"""Run one workload of the semigrav benchmark and print its metrics.

    python3 bench/run.py --workload collapse|field|suite --seed N --seconds S --trace 0|1

Run it from anywhere; it builds nothing and imports ``semigrav`` from the
``src`` directory next to ``bench``.  It runs whole rounds of the workload
until ``--seconds`` have passed (at least two, so that rounds made with one
seed can be compared), checks every output, and prints one line per metric
and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off.  With ``--trace 1`` rounds alternate between untraced and
traced, and the metrics are the per-layer ones of the traced rounds.  Each
run also writes ``bench/out/<workload>-seed<N>-trace<T>.json`` (metrics,
rounds, failures and the environment stamp) and, when traced, the spans of
the last traced round to ``bench/out/<workload>-spans.npz``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 7
MIN_ROUNDS = 2
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads(cores: int) -> int:
    """Cap numpy's BLAS threads at the core count; effective only before numpy loads."""
    threads = cores
    for var in BLAS_VARS:
        try:
            threads = min(threads, int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    threads = max(threads, 1)
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def git_sha() -> str:
    """The commit of the checkout, or "unknown" outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(workload, workdir: Path) -> float:
    """Median over fresh processes of import plus config load and validation."""
    inputs = []
    for i, (name, cfg) in enumerate(workload.config_inputs):
        path = None
        if cfg is not None:
            path = workdir / f"setup-{i}-{name}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
        inputs.append([name, None if path is None else str(path)])
    spec = workdir / "setup-inputs.json"
    spec.write_text(json.dumps(inputs), encoding="utf-8")
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(spec)],
            capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_rounds(workload, seconds: float, trace: bool):
    """Untraced rounds, and with ``trace`` a traced round after each of them."""
    from tracing import Tracer

    plain, traced, layer_metrics, tracer = [], [], [], None
    start = time.perf_counter()
    while len(plain) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        gc.collect()  # every round starts from the same heap state
        plain.append(workload.run_round())
        if trace:
            gc.collect()
            with Tracer() as tracer:
                traced.append(workload.run_round())
            layer_metrics.append(tracer.metrics())
    return plain, traced, layer_metrics, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("collapse", "field", "suite"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "semigrav" / "__init__.py").is_file():
        print(f"error: no semigrav sources under {SRC}", file=sys.stderr)
        return 2
    cores = len(os.sched_getaffinity(0))
    blas_threads = cap_blas_threads(cores)
    sys.path.insert(0, str(SRC))
    import numpy
    import semigrav
    import workloads
    from tracing import METRICS

    if not semigrav.__file__.startswith(str(SRC)):
        print(f"error: semigrav was imported from {semigrav.__file__}", file=sys.stderr)
        return 2
    env = {"python": platform.python_version(), "numpy": numpy.__version__, "cores": cores,
           "blas_threads": blas_threads, "git_sha": git_sha()}

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = None if args.trace else measure_setup(workload, workdir)
        plain, traced, layer_metrics, tracer = run_rounds(workload, args.seconds, bool(args.trace))

    rounds = plain + traced
    failures = [f for r in rounds for f in r.failures]
    attempted = sum(r.attempted for r in rounds)
    # the same seed must give the same outputs in every round
    reproducible = all(r.fingerprint == rounds[0].fingerprint for r in rounds)
    if args.trace:
        units = dict(METRICS)
        metrics = {name: {"value": statistics.median(m[name] for m in layer_metrics),
                          "unit": units[name]} for name, _ in METRICS}
        overhead = (statistics.median(r.seconds for r in traced)
                    - statistics.median(r.seconds for r in plain))
        metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
        tracer.save(OUT / f"{args.workload}-spans.npz")
    else:
        rate = statistics.median(r.ref_rate for r in plain)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"ops_per_ref_s": {"value": rate, "unit": "ops/ref_s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mib": {"value": peak_rss, "unit": "MiB"}}

    result = {"correct": reproducible, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "env": env, **result, "failures": failures,
        "rounds": [{"traced": i >= len(plain), "work": r.work, "seconds": r.seconds,
                    "ref_seconds": r.ref_seconds, "kernel_seconds": r.kernel_seconds,
                    "attempted": r.attempted, "failed": len(r.failures)}
                   for i, r in enumerate(rounds)],
    }, indent=2) + "\n", encoding="utf-8")

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload={args.workload} seed={args.seed} rounds={len(plain)}"
          f"{f'+{len(traced)} traced' if traced else ''} attempted={attempted} "
          f"failed={len(failures)} reproducible={str(reproducible).lower()}")
    for failure in failures[:10]:
        print(f"FAILED {failure}")
    if not args.trace:  # an op is a trial, a stress event or a CLI run
        wall_rate = statistics.median(r.rate for r in plain)
        print(f"{workload.rate_name} = {wall_rate:.6g} {workload.unit}/s (wall clock)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
