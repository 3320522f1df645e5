"""Named end-to-end scenarios: one registry record per scenario.

Each ``_Scenario`` record in ``_SCENARIOS`` holds the config schema (field
to validator), the cross-field rules, the runner and an optional volume
scan.  ``SCENARIO_NAMES``, ``SCANS`` and the ``trials`` override (allowed
when the schema has ``n_trials``) derive from the records.  A runner
returns a RunReport whose flags record the scenario's own pass criteria.
Config validation is total: every field is required, unknown fields are
rejected, and every error message names the offending field.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from importlib import resources
from math import isfinite
from typing import Callable, Sequence

import numpy as np

from .bogolubov import bogolubov_coefficients, rindler_occupancy_in_vacuum
from .consistency import fit_parameter, residual, scaling_study
from .fock import create, new_vacuum
from .measurement import run_epr_scenario, run_page_geilker
from .modes import eds_basis, minkowski_basis, rindler_basis
from .report import RunReport, Table
from .stress_energy import (box_lattice, integrated_energy, stress_field, total_energy,
                            wavepacket_state)
from .stress_energy import stress_sample  # noqa: F401  (the one-event view, traced by bench/)

__all__ = [
    "ScenarioConfigError",
    "SCENARIO_NAMES",
    "SCANS",
    "default_config",
    "validate_config",
    "run_scenario",
    "scan_scenario",
]


class ScenarioConfigError(ValueError):
    """Invalid scenario configuration; the message names the field."""


class _Bad(Exception):
    pass


# ---- field validators ------------------------------------------------------

def _number(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise _Bad("must be a number")
    try:
        v = float(v)
    except OverflowError:  # an int beyond the float range
        raise _Bad("must be finite") from None
    if not isfinite(v):
        raise _Bad("must be finite")
    return v


def _positive(v) -> float:
    v = _number(v)
    if v <= 0.0:
        raise _Bad("must be positive")
    return v


def _nonnegative(v) -> float:
    v = _number(v)
    if v < 0.0:
        raise _Bad("must be non-negative")
    return v


def _integer(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise _Bad("must be an integer")
    return v


def _int_at_least(lo: int) -> Callable:
    def check(v):
        v = _integer(v)
        if v < lo:
            raise _Bad(f"must be an integer >= {lo}")
        return v
    return check


def _dimension(v) -> int:
    v = _integer(v)
    if v not in (1, 2, 3):
        raise _Bad("must be 1, 2 or 3")
    return v


def _seed(v) -> int:
    v = _integer(v)
    if v < 0:
        raise _Bad("must be a non-negative integer")
    if v >= 2**128:  # the trial stream's Philox key is 128 bits
        raise _Bad("must be below 2**128")
    return v


def _int_vector(v) -> tuple:
    if not isinstance(v, (list, tuple)):
        raise _Bad("must be a list of integers")
    return tuple(_integer(c) for c in v)


def _increasing_positive(min_len: int) -> Callable:
    def check(v):
        if not isinstance(v, (list, tuple)) or len(v) < min_len:
            raise _Bad(f"must be a list of at least {min_len} numbers")
        vals = [_number(c) for c in v]
        if any(c <= 0.0 for c in vals):
            raise _Bad("entries must be positive")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise _Bad("entries must be strictly increasing")
        return tuple(vals)
    return check


# ---- shared table builders -------------------------------------------------

def _x_columns(dimension: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(dimension))


def _stress_table(scenario: str, t, x, tensors: np.ndarray) -> Table:  # a row per component
    dimension = tensors.shape[1] - 1
    columns = ("scenario", "t") + _x_columns(dimension) + ("mu", "nu", "value")
    rows = [(scenario, ti) + tuple(xi) + (mu, nu, tensor[mu][nu])
            for ti, xi, tensor in zip(t.tolist(), x.tolist(), tensors.tolist())
            for mu in range(dimension + 1) for nu in range(dimension + 1)]
    return Table.build("stress", columns, rows)


def _residual_table(report) -> Table:
    columns = ("t",) + _x_columns(report.x.shape[1]) + ("residual",)
    rows = [(ti,) + tuple(xi) + (r,)
            for ti, xi, r in zip(report.t.tolist(), report.x.tolist(), report.per_event)]
    return Table.build("residuals", columns, rows)


def _random_events(rng: np.random.Generator, n: int, box_side: float, dimension: int):
    """Events t (n,) uniform on [0, 1) and x (n, d) on [0, box_side)^d, one row per event."""
    u = rng.random((n, dimension + 1))
    return u[:, 0], box_side * u[:, 1:]


# ---- scenario pipelines ----------------------------------------------------

def _run_minkowski_vacuum(cfg: dict, seed: int) -> RunReport:
    basis = minkowski_basis(cfg["box_side"], cfg["dimension"], cfg["mass"], cfg["n_max"])
    backend = basis.backend
    state = new_vacuum(basis)
    rng = np.random.default_rng(seed)
    t, x = _random_events(rng, cfg["n_events"], cfg["box_side"], cfg["dimension"])
    rep = residual(backend, state, basis, t, x)
    report = RunReport(scenario="minkowski_vacuum", seed=seed)
    report.add_table(_stress_table("minkowski_vacuum", t[:10], x[:10], rep.stress[:10]))
    report.add_table(_residual_table(rep))
    report.flags["residual_zero"] = bool(rep.global_max <= 1e-12)
    return report


def _run_minkowski_particle(cfg: dict, seed: int) -> RunReport:
    basis = minkowski_basis(cfg["box_side"], cfg["dimension"], cfg["mass"], cfg["n_max"])
    backend = basis.backend
    idx = basis.mode_index(cfg["mode_label"])  # the config rules keep it in the basis
    state = create(new_vacuum(basis), idx)
    omega = float(basis.frequencies([idx])[0])
    total = total_energy(state, basis)
    lattice = integrated_energy(state, basis, backend, t=0.0,
                                points_per_axis=cfg["lattice_points"])
    rng = np.random.default_rng(seed)
    t, x = _random_events(rng, cfg["n_events"], cfg["box_side"], cfg["dimension"])
    rep = residual(backend, state, basis, t, x)
    report = RunReport(scenario="minkowski_particle", seed=seed)
    report.add_table(_stress_table("minkowski_particle", t, x, rep.stress))
    report.add_table(_residual_table(rep))
    report.add_table(Table.build(
        "energy", ("total_energy", "omega", "lattice_energy"), [(total, omega, lattice)]))
    report.flags["total_energy_exact"] = bool(abs(total - omega) <= 1e-12 * max(1.0, omega))
    report.flags["lattice_energy_matches"] = bool(abs(lattice - total) <= 1e-8 * total)
    return report


def _run_kg_wavepacket(cfg: dict, seed: int) -> RunReport:
    basis = minkowski_basis(cfg["box_side"], 1, cfg["mass"], cfg["n_max"])
    backend = basis.backend
    state = wavepacket_state(basis, (cfg["x0"],))
    L = cfg["box_side"]
    # the profile, the packet's center and the point opposite it, then the
    # lattice of ``integrated_energy``: one stress_field call, one moments walk
    xs = np.linspace(0.0, L, cfg["profile_points"], endpoint=False).tolist()
    probes = np.array(xs + [cfg["x0"], (cfg["x0"] + 0.5 * L) % L])[:, None]
    points, cell = box_lattice(backend, cfg["integration_points"])
    t00 = stress_field(state, basis, backend, 0.0, np.concatenate([probes, points]))[:, 0, 0]
    *profile, center, far = t00[:len(probes)].tolist()
    profile_rows = list(zip(xs, profile))
    ratio = center / far
    total = total_energy(state, basis)
    # rows do not depend on their block, so this is integrated_energy's sum bit for bit
    lattice = float(t00[len(probes):].sum() * cell)
    report = RunReport(scenario="kg_wavepacket", seed=seed)
    report.add_table(Table.build("energy_density", ("x", "t00"), profile_rows))
    report.add_table(Table.build(
        "summary",
        ("t00_center", "t00_far", "ratio", "total_energy", "lattice_energy"),
        [(center, far, ratio, total, lattice)]))
    report.flags["localized"] = bool(ratio > 10.0)
    report.flags["energy_matches"] = bool(abs(lattice - total) <= 1e-3 * total)
    return report


def _eds_t00_closed_form(mass: float, volume: float, t: float) -> float:
    # one k = 0 quantum on the dust background: rest-mass density plus the
    # finite-volume 1/t^4 tail from the mode's 1/t falloff
    return mass / (volume * t**2) + 1.0 / (2.0 * mass * volume * t**4)


def _run_eds_cosmology(cfg: dict, seed: int) -> RunReport:
    basis = eds_basis(cfg["comoving_volume"], cfg["mass"])
    backend = basis.backend
    state = create(new_vacuum(basis), 0)
    t_grid = np.array(cfg["t_grid"])
    rep = residual(backend, state, basis, t_grid, np.zeros((len(t_grid), 3)))

    t00_rows = []
    worst_rel = 0.0
    for t, value in zip(rep.t.tolist(), rep.stress[:, 0, 0].tolist()):
        closed = _eds_t00_closed_form(cfg["mass"], cfg["comoving_volume"], t)
        rel = abs(value - closed) / closed
        worst_rel = max(worst_rel, rel)
        t00_rows.append((t, value, closed, rel))
    off_diagonal = ~np.eye(rep.stress.shape[1], dtype=bool)
    worst_offdiag = np.abs(rep.stress[:, off_diagonal]).max()

    report = RunReport(scenario="eds_cosmology", seed=seed)
    report.add_table(_stress_table("eds_cosmology", rep.t, rep.x, rep.stress))
    report.add_table(Table.build("t00", ("t", "value", "closed_form", "rel_err"), t00_rows))
    report.add_table(_residual_table(rep))
    report.flags["t00_closed_form"] = bool(worst_rel <= 1e-10)
    report.flags["off_diagonals_zero"] = bool(worst_offdiag <= 1e-12)
    # at finite comoving volume the 1/t^4 tail obstructs exact consistency
    report.flags["finite_volume_obstruction_present"] = bool(rep.global_max > 0.0)
    return report


def _eds_residual_at(mass: float, volume: float, t_grid) -> float:
    basis = eds_basis(volume, mass)
    state = create(new_vacuum(basis), 0)
    return residual(basis.backend, state, basis, t_grid, np.zeros((len(t_grid), 3))).global_max


def _eds_volume_observable(cfg: dict) -> Callable[[float], float]:
    """Residual at t = 1 with the self-consistent mass m = V0 / 6 pi at each volume."""
    return lambda volume: _eds_residual_at(volume / (6.0 * math.pi), volume, (1.0,))


def _add_scaling_tables(report: RunReport, study) -> None:
    report.add_table(Table.build("scaling", (study.parameter, "residual"), study.rows()))
    report.add_table(Table.build(
        "scaling_slope", ("slope", "status"),
        [(study.slope if study.slope is not None else float("nan"), study.status)]))


def _run_eds_fit(cfg: dict, seed: int) -> RunReport:
    volume = cfg["comoving_volume"]
    target = volume / (6.0 * math.pi)
    fit = fit_parameter(lambda m: _eds_residual_at(m, volume, cfg["t_grid"]),
                        cfg["bracket_lo"], cfg["bracket_hi"], cfg["fit_tol"])
    study = scaling_study(_eds_volume_observable(cfg), cfg["scaling_volumes"], parameter="V0")

    report = RunReport(scenario="eds_fit", seed=seed)
    report.add_table(Table.build(
        "fit",
        ("best_mass", "best_residual", "target_mass", "rel_err", "hit_boundary"),
        [(fit.parameter, fit.value, target, abs(fit.parameter - target) / target,
          fit.hit_boundary)]))
    _add_scaling_tables(report, study)
    report.flags["fit_recovers_mass"] = bool(
        not fit.hit_boundary and abs(fit.parameter - target) <= 1e-3 * target)
    report.flags["scaling_slope_minus_2"] = bool(
        study.slope is not None and abs(study.slope + 2.0) <= 1e-6)
    return report


def _run_rindler_unruh(cfg: dict, seed: int) -> RunReport:
    a = cfg["acceleration"]
    mink = minkowski_basis(cfg["box_side"], 1, 0.0, cfg["n_max"])
    rind = rindler_basis(a, np.geomspace(cfg["freq_lo"], cfg["freq_hi"], cfg["n_frequencies"]))
    matrix = bogolubov_coefficients(mink, rind)
    spectrum_rows = []
    norm_rows = []
    for j, w in enumerate(matrix.row_frequencies):
        occ = rindler_occupancy_in_vacuum(matrix, j)
        planck = 1.0 / math.expm1(2.0 * math.pi * w / a)
        spectrum_rows.append((float(w), occ, planck, abs(occ - planck) / planck))
        norm_rows.append((float(w), matrix.row_normalization(j)))

    report = RunReport(scenario="rindler_unruh", seed=seed)
    report.add_table(Table.build("spectrum", ("omega", "occupancy", "planck", "rel_err"),
                                 spectrum_rows))
    report.add_table(Table.build("normalization", ("omega", "row_norm"), norm_rows))
    # all() rather than a running max, so that a NaN fails its flag
    report.flags["thermal_within_1pct"] = all(row[3] <= 0.01 for row in spectrum_rows)
    report.flags["rows_normalized"] = all(abs(norm - 1.0) <= 1e-3 for _, norm in norm_rows)
    report.flags["occupancy_positive"] = all(row[1] > 0.0 for row in spectrum_rows)
    return report


def _four_sigma(p: float, n: int) -> float:
    return 4.0 * math.sqrt(p * (1.0 - p) / n) if 0.0 < p < 1.0 else 0.0


def _run_epr_collapse(cfg: dict, seed: int) -> RunReport:
    res = run_epr_scenario(
        cfg["n_trials"], seed,
        box_side=cfg["box_side"], station_separation=cfg["station_separation"],
        measurement_time=cfg["measurement_time"], sphere_mass=cfg["sphere_mass"],
        sphere_width=cfg["sphere_width"], n_probes=cfg["n_probes"], tol=cfg["tol"])
    report = RunReport(scenario="epr_collapse", seed=seed)
    report.add_table(Table.build(
        "statistics", ("branch", "count", "frequency", "born"),
        [("I", res.branch_counts[0], res.branch_frequencies[0], res.born[0]),
         ("II", res.branch_counts[1], res.branch_frequencies[1], res.born[1])]))
    report.add_table(Table.build(
        "causality",
        ("branch", "max_violation_outside", "max_diff_inside", "n_outside", "n_inside", "passed"),
        [(label, rep.max_violation_outside, rep.max_diff_inside,
          rep.n_outside, rep.n_inside, rep.passed)
         for label, rep in zip(("I", "II"), res.causality_reports)]))
    within = all(
        abs(freq - p) <= _four_sigma(p, res.n_trials)
        for freq, p in zip(res.branch_frequencies, res.born))
    report.flags["anticorrelation_exact"] = bool(res.anticorrelation_rate == 1.0)
    report.flags["causality_pass"] = bool(all(r.passed for r in res.causality_reports))
    report.flags["born_within_4sigma"] = bool(within)
    return report


def _run_page_geilker(cfg: dict, seed: int) -> RunReport:
    res = run_page_geilker(
        cfg["n_trials"], seed,
        box_side=cfg["box_side"], position_a=cfg["position_a"],
        position_b=cfg["position_b"], sphere_mass=cfg["sphere_mass"],
        sphere_width=cfg["sphere_width"], measurement_time=cfg["measurement_time"],
        n_probes=cfg["n_probes"], tol=cfg["tol"])
    n = res.n_trials
    report = RunReport(scenario="page_geilker", seed=seed)
    report.add_table(Table.build(
        "statistics", ("branch", "count", "frequency"),
        [("sphere_at_A", res.branch_counts[0], res.branch_counts[0] / n),
         ("sphere_at_B", res.branch_counts[1], res.branch_counts[1] / n)]))
    report.add_table(Table.build(
        "summary", ("discontinuity", "always_single_sphere"),
        [(res.discontinuity, res.always_single_sphere)]))
    within = abs(res.branch_counts[0] / n - 0.5) <= _four_sigma(0.5, n)
    report.flags["single_sphere_every_trial"] = bool(res.always_single_sphere)
    report.flags["discontinuity_nonzero"] = bool(res.discontinuity > 0.0)
    report.flags["born_within_4sigma"] = bool(within)
    return report




# ---- scan observables ----------------------------------------------------------

def _box_volume_observable(cfg: dict) -> Callable[[float], float]:
    """Residual of |k> at a fixed event while the box volume grows.

    The physical wavevector is pinned to the config's mode at the config's
    box size; each volume re-labels the mode so k stays fixed.
    """
    if cfg["dimension"] != 1:
        raise ScenarioConfigError(
            "field 'dimension': scanning over V requires dimension 1")
    n0 = cfg["mode_label"][0]
    k_ref = 2.0 * math.pi * n0 / cfg["box_side"]

    def observable(volume: float) -> float:
        L = volume  # d = 1: volume is the box side
        n = int(round(k_ref * L / (2.0 * math.pi)))
        if n == 0:
            raise ScenarioConfigError(
                "field 'values': volume too small to hold the reference wavevector")
        basis = minkowski_basis(L, 1, cfg["mass"], abs(n))
        state = create(new_vacuum(basis), basis.mode_index((n,)))
        return residual(basis.backend, state, basis, 0.0, [[0.0]]).global_max

    return observable


# ---- the registry --------------------------------------------------------------

# a Gaussian sphere needs 2 width^2 to stay a normal float and a finite peak density
_SPHERE_CHECKS = (
    ("sphere_width", "must lie between 1e-150 and 1e150",
     lambda c: not 1e-150 <= c["sphere_width"] <= 1e150),
    ("sphere_width", "too narrow for sphere_mass: the peak density overflows",
     lambda c: math.isinf(c["sphere_mass"] / (math.sqrt(2.0 * math.pi) * c["sphere_width"]))),
)


# the box modes take box_side^dimension (d <= 3) and mass^2: both must stay normal floats
_BOX_CHECKS = (
    ("box_side", "must lie between 1e-100 and 1e100",
     lambda c: not 1e-100 <= c["box_side"] <= 1e100),
    ("mass", "must be at most 1e150", lambda c: c["mass"] > 1e150),
    ("mass", "must be 0 or at least 1e-150", lambda c: 0.0 < c["mass"] < 1e-150),
)


def _dust_checks(lightest: str, heaviest: str) -> tuple:
    """Rules for the dust closed form m/(V0 t^2) + 1/(2 m V0 t^4) over the masses
    from field ``lightest`` to field ``heaviest``: t^4 and m^2 must stay finite,
    both denominators normal at the first time, and the rest-mass term at most
    1e300 there and nonzero at the last time."""
    def out_of_range(c: dict) -> bool:
        volume, first, last = c["comoving_volume"], c["t_grid"][0], c["t_grid"][-1]
        return (min(volume * first**2, 2.0 * c[lightest] * volume * first**4) < 1e-300
                or c[heaviest] / volume / first**2 > 1e300
                or c[lightest] / volume / last**2 < 1e-300)
    return (("t_grid", "entries must lie between 1e-75 and 1e75",
             lambda c: not 1e-75 <= c["t_grid"][0] <= c["t_grid"][-1] <= 1e75),
            (heaviest, "must be at most 1e150", lambda c: c[heaviest] > 1e150),
            ("t_grid", "leaves the float range of the closed form at this mass and "
             "comoving_volume", out_of_range))


def _stations_coincide(c: dict) -> bool:
    """The EPR stations, placed as ``run_epr_scenario`` places them, round to one
    point or lie so close that their squared distance underflows to zero."""
    left = 0.5 * (c["box_side"] - c["station_separation"])
    gap = left + c["station_separation"] - left
    return gap * gap == 0.0


@dataclass(frozen=True)
class _Scenario:
    schema: dict[str, Callable]
    run: Callable[[dict, int], RunReport]
    # cross-field rules in order: (field, message, test that is true for a bad config)
    checks: tuple[tuple[str, str, Callable[[dict], bool]], ...] = ()
    # (scanned parameter, factory of the observable from a validated config)
    scan: tuple[str, Callable[[dict], Callable[[float], float]]] | None = None


_SCENARIOS: dict[str, _Scenario] = {
    "minkowski_vacuum": _Scenario(
        schema={"box_side": _positive, "dimension": _dimension, "mass": _nonnegative,
                "n_max": _int_at_least(1), "n_events": _int_at_least(1), "seed": _seed},
        run=_run_minkowski_vacuum, checks=_BOX_CHECKS),
    "minkowski_particle": _Scenario(
        schema={"box_side": _positive, "dimension": _dimension, "mass": _nonnegative,
                "n_max": _int_at_least(1), "mode_label": _int_vector,
                "n_events": _int_at_least(1), "lattice_points": _int_at_least(1),
                "seed": _seed},
        run=_run_minkowski_particle, scan=("V", _box_volume_observable),
        checks=(("mode_label", "must have one integer per spatial dimension",
                 lambda c: len(c["mode_label"]) != c["dimension"]),
                ("mode_label", "exceeds n_max",
                 lambda c: max(abs(n) for n in c["mode_label"]) > c["n_max"]),
                ("mode_label", "zero mode does not exist for a massless field",
                 lambda c: c["mass"] == 0.0 and all(n == 0 for n in c["mode_label"])))
        + _BOX_CHECKS),
    "kg_wavepacket": _Scenario(
        schema={"box_side": _positive, "mass": _positive, "n_max": _int_at_least(1),
                "x0": _nonnegative, "profile_points": _int_at_least(2),
                "integration_points": _int_at_least(1), "seed": _seed},
        run=_run_kg_wavepacket,
        checks=(("x0", "must lie inside the box", lambda c: c["x0"] >= c["box_side"]),)
        + _BOX_CHECKS),
    "eds_cosmology": _Scenario(
        schema={"comoving_volume": _positive, "mass": _positive,
                "t_grid": _increasing_positive(1), "seed": _seed},
        run=_run_eds_cosmology, scan=("V0", _eds_volume_observable),
        checks=_dust_checks("mass", "mass")),
    "eds_fit": _Scenario(
        schema={"comoving_volume": _positive, "t_grid": _increasing_positive(1),
                "bracket_lo": _positive, "bracket_hi": _positive, "fit_tol": _positive,
                "scaling_volumes": _increasing_positive(3), "seed": _seed},
        run=_run_eds_fit,
        checks=(("bracket_hi", "must exceed bracket_lo",
                 lambda c: c["bracket_hi"] <= c["bracket_lo"]),
                # the scan's mass V0/(6 pi) takes m^2 and its tail 3 pi/V0^2 at t = 1
                ("scaling_volumes", "entries must lie between 1e-149 and 1e150",
                 lambda c: not 1e-149 <= c["scaling_volumes"][0]
                 <= c["scaling_volumes"][-1] <= 1e150))
        + _dust_checks("bracket_lo", "bracket_hi")),
    "rindler_unruh": _Scenario(
        schema={"acceleration": _positive, "box_side": _positive, "n_max": _int_at_least(2),
                "n_frequencies": _int_at_least(1), "freq_lo": _positive,
                "freq_hi": _positive, "seed": _seed},
        run=_run_rindler_unruh,
        # nu = w/a must not underflow to 0, where Gamma(i nu) has its pole, and the
        # Planck occupancy e^(-2 pi nu) must stay a normal float
        checks=(("freq_hi", "must exceed freq_lo", lambda c: c["freq_hi"] <= c["freq_lo"]),
                ("freq_lo", "freq_lo/acceleration must be at least 1e-100",
                 lambda c: c["freq_lo"] / c["acceleration"] < 1e-100),
                ("freq_hi", "freq_hi/acceleration must be at most 100",
                 lambda c: c["freq_hi"] / c["acceleration"] > 100.0))),
    "epr_collapse": _Scenario(
        schema={"box_side": _positive, "station_separation": _positive,
                "measurement_time": _nonnegative, "sphere_mass": _positive,
                "sphere_width": _positive, "n_trials": _int_at_least(1),
                "n_probes": _int_at_least(2), "tol": _nonnegative, "seed": _seed},
        run=_run_epr_collapse,
        checks=(("station_separation", "must be smaller than box_side",
                 lambda c: c["station_separation"] >= c["box_side"]),
                ("station_separation", "too small to separate the stations at this box_side",
                 _stations_coincide)) + _SPHERE_CHECKS),
    "page_geilker": _Scenario(
        schema={"box_side": _positive, "position_a": _positive, "position_b": _positive,
                "sphere_mass": _positive, "sphere_width": _positive,
                "measurement_time": _nonnegative, "n_trials": _int_at_least(1),
                "n_probes": _int_at_least(2), "tol": _nonnegative, "seed": _seed},
        run=_run_page_geilker,
        checks=(("position_a", "sphere positions must lie inside the box",
                 lambda c: c["position_a"] >= c["box_side"]),
                ("position_b", "sphere positions must lie inside the box",
                 lambda c: c["position_b"] >= c["box_side"]),
                ("position_b", "positions must differ",
                 lambda c: c["position_a"] == c["position_b"])) + _SPHERE_CHECKS
        # a sphere between two probes of the equal-time grid would go unseen
        + (("sphere_width", "narrower than the probe spacing box_side/(n_probes-1)",
            lambda c: c["n_probes"] - 1 < c["box_side"] / c["sphere_width"]),)),
}

SCENARIO_NAMES = tuple(sorted(_SCENARIOS))
SCANS = {name: sc.scan[0] for name, sc in _SCENARIOS.items() if sc.scan is not None}


def _scenario(name: str) -> _Scenario:
    if name not in _SCENARIOS:
        raise ScenarioConfigError(
            f"unknown scenario {name!r}; choose from {', '.join(SCENARIO_NAMES)}")
    return _SCENARIOS[name]


def _field(schema: dict, key: str, value):
    try:
        return schema[key](value)
    except _Bad as bad:
        raise ScenarioConfigError(f"field {key!r}: {bad}") from None


# ---- public entry points -------------------------------------------------------

def validate_config(name: str, cfg) -> dict:
    """Return the validated config or raise ScenarioConfigError naming a field."""
    scenario = _scenario(name)
    if not isinstance(cfg, dict):
        raise ScenarioConfigError("config must be a JSON object")
    for key in sorted(cfg):
        if key not in scenario.schema:
            raise ScenarioConfigError(f"unknown field {key!r}")
    out = {}
    for key in scenario.schema:
        if key not in cfg:
            raise ScenarioConfigError(f"missing required field {key!r}")
        out[key] = _field(scenario.schema, key, cfg[key])
    for key, message, bad in scenario.checks:
        if bad(out):
            raise ScenarioConfigError(f"field {key!r}: {message}")
    return out


def default_config(name: str) -> dict:
    """Packaged default configuration for a scenario."""
    _scenario(name)
    text = resources.files("semigrav.configs").joinpath(f"{name}.json").read_text("utf-8")
    return json.loads(text)


def run_scenario(name: str, config: dict | None = None, seed: int | None = None,
                 trials: int | None = None) -> RunReport:
    """Validate the config and execute one scenario deterministically.

    ``seed`` overrides the config seed; ``trials`` overrides the trial
    count of the scenarios whose config has ``n_trials``.  Both overrides
    go through the config field's own validator.
    """
    scenario = _scenario(name)
    cfg = validate_config(name, default_config(name) if config is None else config)
    if trials is not None:
        if "n_trials" not in scenario.schema:
            raise ScenarioConfigError(
                f"scenario {name!r} has no trial count to override")
        cfg["n_trials"] = _field(scenario.schema, "n_trials", trials)
    effective_seed = cfg["seed"] if seed is None else _field(scenario.schema, "seed", seed)
    start = time.perf_counter()
    report = scenario.run(cfg, effective_seed)
    report.wall_time = time.perf_counter() - start
    return report


def scan_scenario(name: str, config: dict | None, param: str,
                  values: Sequence[float]) -> RunReport:
    """Log-log scaling study of a scenario's residual over a volume parameter.

    ``param`` must be the scenario's scan parameter, ``SCANS[name]``; the
    ``values`` must be at least three strictly increasing positive
    volumes.  The report has the ``scaling`` and ``scaling_slope`` tables
    and the flag ``slope_defined``.
    """
    scenario = _scenario(name)
    if scenario.scan is None:
        raise ScenarioConfigError(f"scenario {name!r} has no volume scan")
    cfg = validate_config(name, default_config(name) if config is None else config)
    scan_param, make_observable = scenario.scan
    if param != scan_param:
        raise ScenarioConfigError(f"field 'param': {name} scans over {scan_param}")
    observable = make_observable(cfg)
    try:
        with np.errstate(over="raise"):  # a volume beyond double range names 'values'
            study = scaling_study(observable, values, parameter=param)
    except ScenarioConfigError:  # already names its field
        raise
    except (ValueError, ArithmeticError) as exc:
        raise ScenarioConfigError(f"field 'values': {exc}") from None
    report = RunReport(scenario=f"scan_{name}", seed=cfg["seed"])
    _add_scaling_tables(report, study)
    report.flags["slope_defined"] = study.status == "ok"
    return report
