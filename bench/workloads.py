"""The benchmark's three workloads: inputs from a seed, timed rounds, checks.

A workload is built from ``--seed`` and then runs whole rounds.  A round
performs the same operations every time; each operation is one call into
the package's public API (a scenario run, a CLI invocation, or a direct
energy computation), and it fails when it raises or when any check of its
output fails.  Only the calls into the package and the reference kernel
below are timed; building inputs and checking outputs are not.

Every check compares with a computation made here, apart from the package,
or with a property the method must have.  None compares with a stored copy
of an earlier output.

The speed of the shared machine the benchmark was written on changes by
up to 1.7 times, in phases of seconds to minutes, and the change moves
every kind of work together.  So a round also times a fixed reference kernel that does not
touch the package, before its first operation and after each one, and
measures each operation's time in reference seconds as well as in
seconds: a change of machine speed moves both the operation and the
kernels around it, and cancels out.
"""
from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import semigrav
from semigrav import cli

TRIAL_SCENARIOS = ("epr_collapse", "page_geilker")

# one reference second is this many runs of ``reference_kernel``, which is
# about one second on the 2-core machine of the README's figures
KERNELS_PER_REF_SECOND = 50


def reference_kernel() -> float:
    """Fixed work of the kinds the package does, without calling it.

    Python dict and complex arithmetic as in the Fock-state walk, then
    short numpy vector operations as in the mode coefficients.
    """
    acc: dict = {}
    for i in range(9000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0j) + complex(i, 1) * 0.5
    total = sum(abs(v) for v in acc.values())
    x = np.linspace(0.0, 1.0, 257)
    for i in range(750):
        total += float(np.exp(-1j * x * i).real.sum())
    return total


@dataclass
class Round:
    """What one round did: work units, timed seconds and failed operations."""

    work: int = 0
    seconds: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    fingerprint: list = field(default_factory=list)
    kernel_seconds: list[float] = field(default_factory=list)
    ref_seconds: float = 0.0

    @property
    def rate(self) -> float:
        """Work per second spent in the package."""
        return self.work / self.seconds

    @property
    def ref_rate(self) -> float:
        """Work per reference second spent in the package."""
        return self.work / self.ref_seconds

    def _time_kernel(self) -> float:
        t0 = time.perf_counter()
        reference_kernel()
        self.kernel_seconds.append(time.perf_counter() - t0)
        return self.kernel_seconds[-1]

    def call(self, fn, *args, **kwargs):
        """Time one call into the package."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - t0

    def operation(self, label: str, body) -> None:
        """Run one operation; ``body`` returns the list of failed checks."""
        if not self.kernel_seconds:
            self._time_kernel()
        start = self.seconds
        self.attempted += 1
        try:
            problems = body()
        except Exception as exc:  # any error of the package fails the operation
            problems = [f"{type(exc).__name__}: {exc}"]
        finally:
            kernel = 0.5 * (self.kernel_seconds[-1] + self._time_kernel())
            self.ref_seconds += (self.seconds - start) / (KERNELS_PER_REF_SECOND * kernel)
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))


def _close(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


def _column(table, name: str) -> list:
    columns, rows = table
    j = columns.index(name)
    return [row[j] for row in rows]


def _report_tables(report) -> dict:
    return {name: (t.columns, t.rows) for name, t in report.tables.items()}


def _json_tables(payload: dict) -> dict:
    return {name: (tuple(t["columns"]), [tuple(r) for r in t["rows"]])
            for name, t in payload["tables"].items()}


def _flag_problems(flags: dict) -> list[str]:
    return [f"flag {name} is false" for name, ok in sorted(flags.items()) if not ok]


# ---- oracles ----------------------------------------------------------------

def packet_energy(box_side: float, mass: float, n_max: int, dimension: int) -> float:
    """sum_k w_k |c_k|^2 of the packet c_k ~ 1/sqrt(2 w_k), normalised."""
    labels = np.array(list(itertools.product(range(-n_max, n_max + 1), repeat=dimension)))
    omega = np.sqrt(np.sum((2.0 * np.pi * labels / box_side) ** 2, axis=1) + mass**2)
    weight = 1.0 / (2.0 * omega)
    return float(np.sum(omega * weight) / np.sum(weight))


def _born_within_4sigma(counts, n: int) -> bool:
    # the singlet and the sphere pointer state both give Born weights 1/2
    return all(abs(c / n - 0.5) <= 4.0 * math.sqrt(0.25 / n) for c in counts)


def _page_geilker_discontinuity(cfg: dict) -> float:
    """max over the equal-time probes of |pre - post| = |bump_A - bump_B| / 2."""
    xs = np.linspace(0.0, cfg["box_side"], cfg["n_probes"])
    width, mass = cfg["sphere_width"], cfg["sphere_mass"]
    norm = mass / (math.sqrt(2.0 * math.pi) * width)
    bump_a = norm * np.exp(-((xs - cfg["position_a"]) ** 2) / (2.0 * width**2))
    bump_b = norm * np.exp(-((xs - cfg["position_b"]) ** 2) / (2.0 * width**2))
    # a probe at the lab event itself is on the light cone, not outside it
    outside = xs != 0.5 * (cfg["position_a"] + cfg["position_b"])
    return float(np.max(0.5 * np.abs(bump_a - bump_b)[outside]))


# ---- checks shared by the field and suite workloads -------------------------

def check_minkowski_particle(tables: dict, cfg: dict) -> list[str]:
    """One quantum |k>: T00 = w/V everywhere, residual = 8 pi max|T|, energy = w."""
    problems = []
    d = cfg["dimension"]
    k = 2.0 * np.pi * np.asarray(cfg["mode_label"], dtype=float) / cfg["box_side"]
    omega = math.sqrt(float(k @ k) + cfg["mass"] ** 2)
    volume = cfg["box_side"] ** d
    stress = tables["stress"]
    values = _column(stress, "value")
    mus, nus = _column(stress, "mu"), _column(stress, "nu")
    per_event = (d + 1) ** 2
    if len(values) != cfg["n_events"] * per_event:
        problems.append(f"{len(values)} stress rows for {cfg['n_events']} events")
    t00 = [v for v, mu, nu in zip(values, mus, nus) if mu == 0 and nu == 0]
    worst = max(abs(v - omega / volume) / (omega / volume) for v in t00)
    if worst > 1e-12:
        problems.append(f"T00 differs from w/V by {worst:.3e} relative")
    residuals = _column(tables["residuals"], "residual")
    for i, r in enumerate(residuals):
        expected = 8.0 * math.pi * max(abs(v) for v in values[i * per_event:(i + 1) * per_event])
        if not _close(r, expected, 1e-13):
            problems.append(f"residual {r!r} at event {i} is not 8 pi max|T| = {expected!r}")
            break
    (total, _, lattice), = tables["energy"][1]
    if not _close(total, omega, 1e-12):
        problems.append(f"total energy {total!r} is not w = {omega!r}")
    if not _close(lattice, omega, 1e-10):
        problems.append(f"lattice energy {lattice!r} is not w = {omega!r}")
    return problems


def check_kg_wavepacket(tables: dict, cfg: dict) -> list[str]:
    """Total and lattice energy equal sum_k w_k |c_k|^2 above Nyquist."""
    problems = []
    exact = packet_energy(cfg["box_side"], cfg["mass"], cfg["n_max"], 1)
    summary = dict(zip(tables["summary"][0], tables["summary"][1][0]))
    if not _close(summary["total_energy"], exact, 1e-12):
        problems.append(f"total energy {summary['total_energy']!r} is not {exact!r}")
    if not _close(summary["lattice_energy"], exact, 1e-12):
        problems.append(f"lattice energy {summary['lattice_energy']!r} is not {exact!r}")
    if len(tables["energy_density"][1]) != cfg["profile_points"]:
        problems.append("profile row count differs from profile_points")
    return problems


def _scan_slope_problems(tables: dict, values: list[float], slope: float) -> list[str]:
    params, residuals = zip(*tables["scaling"][1])
    if list(params) != values:
        return [f"scan rows {params} are not the values {values}"]
    fit = float(np.polyfit(np.log(params), np.log(residuals), 1)[0])
    if abs(fit - slope) > 1e-6:
        return [f"log-log slope {fit!r} is not {slope}"]
    return []


# ---- collapse ---------------------------------------------------------------

class Collapse:
    """Projection trials: 100,000 EPR and 60,000 page_geilker trials a round.

    Each scenario runs in ``chunks`` runs with distinct seeds, EPR and
    page_geilker alternating.  Runs of a third of a second let the
    reference kernel between them follow the machine's speed, which a
    3-second run would not.
    """

    unit, rate_name = "trials", "trials_per_s"

    def __init__(self, seed: int, epr_trials: int = 10_000, pg_trials: int = 6_000,
                 chunks: int = 10):
        rng = np.random.default_rng(seed)
        epr = semigrav.default_config("epr_collapse")
        pg = semigrav.default_config("page_geilker")
        pg.update(position_a=float(rng.uniform(1.5, 4.5)),
                  position_b=float(rng.uniform(5.5, 8.5)))
        self.runs = [(name, dict(base, seed=int(rng.integers(2**31))), trials)
                     for _ in range(chunks)
                     for name, base, trials in (("epr_collapse", epr, epr_trials),
                                                ("page_geilker", pg, pg_trials))]
        self.config_inputs = [(name, cfg) for name, cfg, _ in self.runs]

    def run_round(self) -> Round:
        rnd = Round()
        totals = {name: [0, 0] for name in TRIAL_SCENARIOS}
        for i, (name, cfg, trials) in enumerate(self.runs):
            last = i >= len(self.runs) - len(TRIAL_SCENARIOS)
            rnd.operation(name, lambda name=name, cfg=cfg, trials=trials, last=last: self._run(
                rnd, name, cfg, trials, totals[name], last))
        return rnd

    def _run(self, rnd: Round, name: str, cfg: dict, n: int, total: list, last: bool):
        report = rnd.call(semigrav.run_scenario, name, cfg, trials=n)
        rnd.work += n
        tables = _report_tables(report)
        counts = _column(tables["statistics"], "count")
        rnd.fingerprint.append((name, tuple(counts)))
        # the 4-sigma test is made once a round, on all of a scenario's trials
        flags = {k: v for k, v in report.flags.items() if k != "born_within_4sigma"}
        problems = _flag_problems(flags)
        if sum(counts) != n:
            problems.append(f"branch counts {counts} do not sum to {n}")
        total[0] += counts[0]
        total[1] += counts[1]
        if last and not _born_within_4sigma(total, sum(total)):
            problems.append(f"round counts {total} are not within 4 sigma of 1/2")
        if name == "epr_collapse":
            # anticorrelation on every trial is what the flag records
            outside = _column(tables["causality"], "max_violation_outside")
            if any(v != 0.0 for v in outside) or 0 in _column(tables["causality"], "n_outside"):
                problems.append(f"violation outside the light cone {outside} is not exactly 0")
        else:
            (disc, _), = tables["summary"][1]
            expected = _page_geilker_discontinuity(cfg)
            rnd.fingerprint.append(disc)
            if not _close(disc, expected, 1e-12):
                problems.append(f"discontinuity {disc!r} is not max |A - B|/2 = {expected!r}")
        return problems


# ---- field ------------------------------------------------------------------

class Field:
    """Stress-energy of large states at many events."""

    unit, rate_name = "events", "stress_events_per_s"

    def __init__(self, seed: int, kg_n_max: int = 128, kg_points: int = 288,
                 lattice: int = 16, packet_n_max: int = 2):
        rng = np.random.default_rng(seed)
        kg = {"box_side": 10.0, "mass": 1.0, "n_max": kg_n_max,
              "x0": float(rng.uniform(0.0, 10.0)), "profile_points": 64,
              "integration_points": kg_points, "seed": int(rng.integers(2**31))}
        mp = {"box_side": 10.0, "dimension": 3, "mass": 1.0, "n_max": 2,
              "mode_label": [int(c) for c in rng.integers(-2, 3, size=3)],
              "n_events": 32, "lattice_points": lattice, "seed": int(rng.integers(2**31))}
        self.configs = {"kg_wavepacket": kg, "minkowski_particle": mp}
        self.config_inputs = list(self.configs.items())
        self.packet = {"box_side": 10.0, "mass": 1.0, "n_max": packet_n_max,
                       "x0": tuple(float(c) for c in rng.uniform(0.0, 10.0, size=3)),
                       "points": 2 * packet_n_max + 2}  # above Nyquist: > 2 n_max
        self.events = {
            "kg_wavepacket": kg["profile_points"] + 2 + kg_points,
            "minkowski_particle": lattice**3 + 2 * mp["n_events"],  # residual and table
            "packet_3d": self.packet["points"] ** 3,
        }

    def run_round(self) -> Round:
        rnd = Round()
        rnd.operation("kg_wavepacket", lambda: self._scenario(
            rnd, "kg_wavepacket", check_kg_wavepacket))
        rnd.operation("minkowski_particle", lambda: self._scenario(
            rnd, "minkowski_particle", check_minkowski_particle))
        rnd.operation("packet_3d", lambda: self._packet(rnd))
        return rnd

    def _scenario(self, rnd: Round, name: str, check) -> list[str]:
        cfg = self.configs[name]
        report = rnd.call(semigrav.run_scenario, name, cfg)
        rnd.work += self.events[name]
        tables = _report_tables(report)
        rnd.fingerprint.append(tables.get("summary") or tables["energy"])
        return _flag_problems(report.flags) + check(tables, cfg)

    def _packet(self, rnd: Round) -> list[str]:
        p = self.packet

        def compute():
            basis = semigrav.minkowski_basis(p["box_side"], 3, p["mass"], p["n_max"])
            state = semigrav.wavepacket_state(basis, p["x0"])
            energy = semigrav.integrated_energy(state, basis, basis.backend, t=0.0,
                                                points_per_axis=p["points"])
            return len(state.terms), energy

        terms, energy = rnd.call(compute)
        rnd.work += self.events["packet_3d"]
        rnd.fingerprint.append(energy)
        exact = packet_energy(p["box_side"], p["mass"], p["n_max"], 3)
        problems = []
        if terms != (2 * p["n_max"] + 1) ** 3:
            problems.append(f"packet has {terms} terms")
        if not _close(energy, exact, 1e-12):
            problems.append(f"lattice energy {energy!r} is not {exact!r}")
        return problems


# ---- suite ------------------------------------------------------------------

class Suite:
    """Every scenario once plus both scans, through ``semigrav.cli.main``."""

    unit, rate_name = "runs", "runs_per_s"
    suite_trials = 1000  # collapse measures the trial loop at full size

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.workdir = Path(workdir)
        self.seed = int(rng.integers(2**31))
        box = float(rng.uniform(5.0, 20.0))
        scan_cfg = {"box_side": box, "dimension": 1, "mass": float(rng.uniform(0.5, 2.0)),
                    "n_max": 4, "mode_label": [int(rng.integers(1, 5))], "n_events": 5,
                    "lattice_points": 8, "seed": self.seed}
        self.scan_config = self.workdir / "scan_V.json"
        self.scan_config.write_text(json.dumps(scan_cfg), encoding="utf-8")
        # whole multiples of the box keep the scanned wavevector exact
        multiples = np.sort(rng.choice(np.arange(1, 33), size=4, replace=False))
        self.v_values = [box * int(m) for m in multiples]
        v0 = float(rng.uniform(10.0, 100.0)) * np.cumprod([1.0, *rng.uniform(1.5, 4.0, size=3)])
        self.v0_values = [float(v) for v in v0]
        # read here, not in a round, so that the traced run counts only the CLI
        self.packaged = {name: semigrav.default_config(name) for name in semigrav.SCENARIO_NAMES}
        self.config_inputs = [(name, None) for name in semigrav.SCENARIO_NAMES]
        self.config_inputs.append(("minkowski_particle", scan_cfg))

    def invocations(self) -> list[tuple[str, list[str]]]:
        out = []
        for name in semigrav.SCENARIO_NAMES:
            argv = ["run", name, "--seed", str(self.seed)]
            if name in TRIAL_SCENARIOS:
                argv += ["--trials", str(self.suite_trials)]
            out.append((name, argv))
        out.append(("scan_V", ["scan", "minkowski_particle", "--param", "V", "--values",
                               ",".join(map(repr, self.v_values)),
                               "--config", str(self.scan_config)]))
        out.append(("scan_V0", ["scan", "eds_cosmology", "--param", "V0", "--values",
                                ",".join(map(repr, self.v0_values))]))
        return out

    def run_round(self) -> Round:
        rnd = Round()
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            for label, argv in self.invocations():
                rnd.operation(label, lambda label=label, argv=argv: self._run(
                    rnd, label, argv, Path(tmp)))
        return rnd

    def _run(self, rnd: Round, label: str, argv: list[str], tmp: Path) -> list[str]:
        json_path, csv_path = tmp / f"{label}.json", tmp / f"{label}.csv"
        codes = [rnd.call(cli.main, argv + ["--format", "json", "--out", str(json_path)]),
                 rnd.call(cli.main, argv + ["--format", "csv", "--out", str(csv_path)])]
        rnd.work += 2
        problems = [f"exit code {c}" for c in codes if c != 0]
        raw = json_path.read_bytes()
        rnd.fingerprint.append(hashlib.sha256(raw).hexdigest())
        payload = json.loads(raw)
        if set(payload) != {"scenario", "tables", "flags", "seed"}:
            problems.append(f"JSON keys {sorted(payload)}")
        tables = _json_tables(payload)
        problems += _csv_problems(tables, csv_path)
        problems += self._scenario_problems(label, tables)
        return problems

    def _scenario_problems(self, label: str, tables: dict) -> list[str]:
        cfg = self.packaged.get(label)
        if label == "scan_V":
            return _scan_slope_problems(tables, self.v_values, -1.0)
        if label == "scan_V0":
            return _scan_slope_problems(tables, self.v0_values, -2.0)
        if label == "minkowski_vacuum":
            if any(r != 0.0 for r in _column(tables["residuals"], "residual")):
                return ["vacuum residual is not exactly 0"]
        elif label == "minkowski_particle":
            return check_minkowski_particle(tables, cfg)
        elif label == "kg_wavepacket":
            return check_kg_wavepacket(tables, cfg)
        elif label == "rindler_unruh":
            omegas = np.geomspace(cfg["freq_lo"], cfg["freq_hi"], cfg["n_frequencies"])
            rows = tables["spectrum"][1]
            if len(rows) != len(omegas):
                return [f"{len(rows)} spectrum rows for {len(omegas)} frequencies"]
            for w, (omega, occ, _, _) in zip(omegas, rows):
                planck = 1.0 / math.expm1(2.0 * math.pi * w / cfg["acceleration"])
                if not _close(omega, w, 1e-12) or not _close(occ, planck, 0.01):
                    return [f"occupancy {occ!r} at w = {omega!r} is not within 1% of {planck!r}"]
        elif label == "eds_cosmology":
            m, v0 = cfg["mass"], cfg["comoving_volume"]
            for t, value, _, _ in tables["t00"][1]:
                closed = m / (v0 * t**2) + 1.0 / (2.0 * m * v0 * t**4)
                if not _close(value, closed, 1e-10):
                    return [f"T00 {value!r} at t = {t} is not {closed!r}"]
        elif label == "eds_fit":
            (best, _, _, _, _), = tables["fit"][1]
            target = cfg["comoving_volume"] / (6.0 * math.pi)
            if not _close(best, target, 1e-3):
                return [f"fitted mass {best!r} is not within 1e-3 of {target!r}"]
        elif label in TRIAL_SCENARIOS:
            counts = _column(tables["statistics"], "count")
            if sum(counts) != self.suite_trials:
                return [f"branch counts {counts} do not sum to {self.suite_trials}"]
        return []


def _csv_problems(tables: dict, primary: Path) -> list[str]:
    """The first table is at ``primary``, every other one at ``<stem>.<name>.csv``."""
    problems = []
    siblings = {name: primary.with_name(f"{primary.stem}.{name}.csv") for name in tables}
    missing = [name for name, path in siblings.items() if not path.exists()]
    if len(missing) != 1:
        return [f"CSV files missing for tables {missing}"]
    siblings[missing[0]] = primary
    for name, path in siblings.items():
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        columns, json_rows = tables[name]
        if tuple(rows[0]) != columns or len(rows) - 1 != len(json_rows):
            problems.append(f"CSV table {name} has {len(rows) - 1} rows, JSON {len(json_rows)}")
    return problems


# each factory takes the seed and a scratch directory
WORKLOADS = {
    "collapse": lambda seed, workdir: Collapse(seed),
    "field": lambda seed, workdir: Field(seed),
    "suite": Suite,
}
