"""Named end-to-end scenarios: one registry record per scenario.

Each ``_Scenario`` record in ``_SCENARIOS`` holds the config schema (one
``_Field`` record of kind and bounds per field), the rules that read two or
more fields, the runner and an optional volume scan.  All eight pipelines
are runners here.  A runner hands the engines its states alone: each state
carries its basis and the basis its backend.  The two collapse scenarios
share one runner, ``_run_collapse``, and differ only in data: a setup, the
names of two flags and whether the projection should change T_00 outside
the cone.  A setup reads only the geometry fields: it builds the branch set
from labelled states, places the measurement at t = 0, hands the gate the
pre-projection density and one row per branch at its probes (EPR passes one
zero array as all three; ``page_geilker`` evaluates its Gaussian spheres
once, ``_spheres``) and checks each branch, returning the pre-state, branch
set, one gate report and one verdict per branch, but no per-probe array.
The trials read ``seed`` and ``n_trials``; both scenarios emit the tables
``statistics``, ``causality`` and ``summary``, and their flags read the
verdicts of the branches that occurred.
``SCENARIO_NAMES``, ``SCANS`` and the ``trials`` override (allowed when the
schema has ``n_trials``) derive from the records.  A runner reads the
validated config alone, seed included, and returns its tables and flags,
the flags recording the scenario's own pass criteria; the ``RunReport`` is
built from the registry key and the config's seed by ``run_scenario`` and
``scan_scenario`` alone.  Config validation is total: every field is
required, unknown fields are rejected, and every error message names the
offending field.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import partial
from importlib import resources
from math import isfinite
from typing import Callable, Sequence

import numpy as np

from .bogolubov import bogolubov_coefficients
from .consistency import fit_parameter, residual, scaling_study
from .fock import create, new_vacuum, number_expectation, superpose
from .measurement import BranchSet, CausalityReport, causality_check, run_trials
from .modes import eds_basis, minkowski_basis
from .report import RunReport, Table
from .stress_energy import (box_lattice, energy_density, integrated_energy, total_energy,
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


# ---- field records ---------------------------------------------------------

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


def _integer(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise _Bad("must be an integer")
    return v


@dataclass(frozen=True)
class _Field:
    """One config field's kind and bounds, from which its validator and messages derive.

    Kinds: "number" (positive, or non-negative with ``zero``), "integer",
    "integers" (a list of integers) and "increasing" (a strictly increasing list
    of at least ``min_len`` positive numbers).  An integer, a nonzero number and
    each entry lie in [lo, hi] where those are set (with ``zero``, a number's lo reads
    "0 or at least"); ``texts`` holds the (lo, hi) messages a bound cannot phrase.
    """
    kind: str
    lo: float | None = None
    hi: float | None = None
    zero: bool = False
    min_len: int = 1
    texts: tuple[str, str] | None = None

    @property
    def messages(self) -> tuple[str, str]:
        """What a value below ``lo`` and a value above ``hi`` fail with, where those are set."""
        if self.texts:
            return self.texts
        lo, hi = (str(b).replace("e+", "e") for b in (self.lo, self.hi))  # 1e100, not 1e+100
        if self.kind == "integer":
            return f"must be an integer >= {lo}", f"must be at most {hi}"
        if self.zero or self.lo is None:
            return f"must be 0 or at least {lo}", f"must be at most {hi}"
        return f"must lie between {lo} and {hi}", f"must lie between {lo} and {hi}"

    def _bound(self, values, prefix: str = "") -> None:
        for v in values:
            if self.lo is not None and v < self.lo:
                raise _Bad(prefix + self.messages[0])
            if self.hi is not None and v > self.hi:
                raise _Bad(prefix + self.messages[1])

    def check(self, v):
        """The validated value; raises _Bad with the message of the first failure."""
        if self.kind == "integers":
            if not isinstance(v, (list, tuple)):
                raise _Bad("must be a list of integers")
            return tuple(_integer(c) for c in v)
        if self.kind == "increasing":
            if not isinstance(v, (list, tuple)) or len(v) < self.min_len:
                raise _Bad(f"must be a list of at least {self.min_len} numbers")
            vals = tuple(_number(c) for c in v)
            if any(c <= 0.0 for c in vals):
                raise _Bad("entries must be positive")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise _Bad("entries must be strictly increasing")
            self._bound(vals, "entries ")
            return vals
        if self.kind == "integer":
            v = _integer(v)
        else:
            v = _number(v)
            if v < 0.0 if self.zero else v <= 0.0:
                raise _Bad("must be non-negative" if self.zero else "must be positive")
            if v == 0.0:  # where ``zero`` admits it, 0 is exempt from ``lo``
                return v
        self._bound((v,))
        return v


# ---- shared table builders -------------------------------------------------

def _x_columns(dimension: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(dimension))


def _stress_table(scenario: str, t, x, tensors: np.ndarray) -> Table:  # a row per component
    n_events, width = tensors.shape[:2]
    per_event = width * width  # the components (mu, nu) of one event, nu fastest
    mu, nu = np.divmod(np.tile(np.arange(per_event), n_events), width)
    columns = ("scenario", "t") + _x_columns(width - 1) + ("mu", "nu", "value")
    return Table("stress", columns, ([scenario] * len(mu), np.repeat(t, per_event),
                                     *np.repeat(x, per_event, axis=0).T, mu, nu, tensors.ravel()))


def _residual_table(t, x, report) -> Table:  # a row per event (t, x) of ``residual``
    columns = ("t",) + _x_columns(x.shape[1]) + ("residual",)
    return Table("residuals", columns, (t, *x.T, report.per_event))


def _random_events(rng: np.random.Generator, n: int, box_side: float, dimension: int):
    """Events t (n,) uniform on [0, 1) and x (n, d) on [0, box_side)^d, one row per event."""
    u = rng.random((n, dimension + 1))
    return u[:, 0], box_side * u[:, 1:]


# ---- scenario pipelines ----------------------------------------------------

_Outcome = tuple[list[Table], dict[str, bool]]  # a runner's tables and flags, in report order


def _run_minkowski_vacuum(cfg: dict) -> _Outcome:
    # no mode is occupied, so T = 0 at every mass and cutoff: any basis gives these bytes
    state = new_vacuum(minkowski_basis(cfg["box_side"], cfg["dimension"], 1.0, 0))
    rng = np.random.default_rng(cfg["seed"])
    t, x = _random_events(rng, cfg["n_events"], cfg["box_side"], cfg["dimension"])
    rep = residual(state, t, x)
    tables = [_stress_table("minkowski_vacuum", t[:10], x[:10], rep.stress[:10]),
              _residual_table(t, x, rep)]
    return tables, {"residual_zero": bool(rep.global_max <= 1e-12)}


def _run_minkowski_particle(cfg: dict) -> _Outcome:
    basis = minkowski_basis(cfg["box_side"], cfg["dimension"], cfg["mass"], cfg["n_max"])
    idx = basis.mode_index(cfg["mode_label"])  # the config rules keep it in the basis
    state = create(new_vacuum(basis), idx)
    omega = float(basis.frequencies([idx])[0])
    total = total_energy(state)
    lattice = integrated_energy(state, basis, basis.backend, t=0.0,
                                points_per_axis=cfg["lattice_points"])
    rng = np.random.default_rng(cfg["seed"])
    t, x = _random_events(rng, cfg["n_events"], cfg["box_side"], cfg["dimension"])
    rep = residual(state, t, x)
    tables = [_stress_table("minkowski_particle", t, x, rep.stress),
              _residual_table(t, x, rep),
              Table("energy", ("total_energy", "omega", "lattice_energy"),
                    ([total], [omega], [lattice]))]
    return tables, {
        "total_energy_exact": bool(abs(total - omega) <= 1e-12 * max(1.0, omega)),
        "lattice_energy_matches": bool(abs(lattice - total) <= 1e-8 * total)}


def _run_kg_wavepacket(cfg: dict) -> _Outcome:
    basis = minkowski_basis(cfg["box_side"], 1, cfg["mass"], cfg["n_max"])
    state = wavepacket_state(basis, (cfg["x0"],))
    L = cfg["box_side"]
    # the profile, the packet's center and the point opposite it, then the
    # lattice of ``integrated_energy``: one energy_density call, one moments walk
    n = cfg["profile_points"]
    xs = np.linspace(0.0, L, n, endpoint=False)
    probes = np.append(xs, [cfg["x0"], (cfg["x0"] + 0.5 * L) % L])[:, None]
    points, cell = box_lattice(basis.backend, cfg["integration_points"])
    t00 = energy_density(state, 0.0, np.concatenate([probes, points]))
    center, far = t00[n:n + 2].tolist()
    ratio = center / far
    total = total_energy(state)
    # rows do not depend on their block, so this is integrated_energy's sum bit for bit
    lattice = float(t00[len(probes):].sum() * cell)
    tables = [Table("energy_density", ("x", "t00"), (xs, t00[:n])),
              Table("summary",
                    ("t00_center", "t00_far", "ratio", "total_energy", "lattice_energy"),
                    ([center], [far], [ratio], [total], [lattice]))]
    return tables, {"localized": bool(ratio > 10.0),
                    "energy_matches": bool(abs(lattice - total) <= 1e-3 * total)}


def _eds_t00_closed_form(mass: float, volume: float, t: float) -> float:
    # one k = 0 quantum on the dust background: rest-mass density plus the
    # finite-volume 1/t^4 tail from the mode's 1/t falloff
    return mass / (volume * t**2) + 1.0 / (2.0 * mass * volume * t**4)


def _run_eds_cosmology(cfg: dict) -> _Outcome:
    basis = eds_basis(cfg["comoving_volume"], cfg["mass"])
    state = create(new_vacuum(basis), 0)
    t_grid = np.array(cfg["t_grid"])
    x = np.zeros((len(t_grid), 3))
    rep = residual(state, t_grid, x)

    value = rep.stress[:, 0, 0]
    # the closed form per time in Python floats: the t00 table rests on these bits
    closed = np.array([_eds_t00_closed_form(cfg["mass"], cfg["comoving_volume"], t)
                       for t in t_grid.tolist()])
    rel_err = np.abs(value - closed) / closed
    off_diagonal = ~np.eye(rep.stress.shape[1], dtype=bool)
    worst_offdiag = np.abs(rep.stress[:, off_diagonal]).max()

    tables = [_stress_table("eds_cosmology", t_grid, x, rep.stress),
              Table("t00", ("t", "value", "closed_form", "rel_err"),
                    (t_grid, value, closed, rel_err)),
              _residual_table(t_grid, x, rep)]
    return tables, {
        "t00_closed_form": bool(np.all(rel_err <= 1e-10)),
        "off_diagonals_zero": bool(worst_offdiag <= 1e-12),
        # at finite comoving volume the 1/t^4 tail obstructs exact consistency
        "finite_volume_obstruction_present": bool(rep.global_max > 0.0)}


def _eds_residual_at(mass: float, volume: float, t_grid) -> float:
    state = create(new_vacuum(eds_basis(volume, mass)), 0)
    return residual(state, t_grid, np.zeros((len(t_grid), 3))).global_max


def _eds_volume_observable(cfg: dict) -> Callable[[float], float]:
    """Residual at t = 1 with the self-consistent mass m = V0 / 6 pi at each volume."""
    return lambda volume: _eds_residual_at(volume / (6.0 * math.pi), volume, (1.0,))


def _scaling_tables(study) -> list[Table]:
    return [Table("scaling", (study.parameter, "residual"), (study.values, study.observables)),
            Table("scaling_slope", ("slope", "status"),
                  ([study.slope if study.slope is not None else float("nan")], [study.status]))]


def _run_eds_fit(cfg: dict) -> _Outcome:
    volume = cfg["comoving_volume"]
    target = volume / (6.0 * math.pi)
    fit = fit_parameter(lambda m: _eds_residual_at(m, volume, cfg["t_grid"]),
                        cfg["bracket_lo"], cfg["bracket_hi"], cfg["fit_tol"])
    study = scaling_study(_eds_volume_observable(cfg), cfg["scaling_volumes"], parameter="V0")

    fit_table = Table("fit", ("best_mass", "best_residual", "target_mass", "rel_err",
                              "hit_boundary"),
                      ([fit.parameter], [fit.value], [target],
                       [abs(fit.parameter - target) / target], [fit.hit_boundary]))
    return [fit_table, *_scaling_tables(study)], {
        "fit_recovers_mass": bool(
            not fit.hit_boundary and abs(fit.parameter - target) <= 1e-3 * target),
        "scaling_slope_minus_2": bool(
            study.slope is not None and abs(study.slope + 2.0) <= 1e-6)}


def _rindler_grid(cfg: dict) -> np.ndarray:
    """The wedge frequencies: n_frequencies geometric steps from freq_lo to freq_hi."""
    return np.geomspace(cfg["freq_lo"], cfg["freq_hi"], cfg["n_frequencies"])


def _run_rindler_unruh(cfg: dict) -> _Outcome:
    a = cfg["acceleration"]
    matrix = bogolubov_coefficients(a, _rindler_grid(cfg))
    omega = matrix.row_frequencies
    occupancy, row_norm = np.array(matrix.occupancy), np.array(matrix.row_norms)
    # math.expm1 per frequency, not np.expm1: the spectrum rests on these bits
    planck = np.array([1.0 / math.expm1(2.0 * math.pi * w / a) for w in omega.tolist()])
    rel_err = np.abs(occupancy - planck) / planck
    tables = [Table("spectrum", ("omega", "occupancy", "planck", "rel_err"),
                    (omega, occupancy, planck, rel_err)),
              Table("normalization", ("omega", "row_norm"), (omega, row_norm))]
    # np.all rather than a running max, so that a NaN fails its flag
    return tables, {
        "thermal_within_1pct": bool(np.all(rel_err <= 0.01)),
        "rows_normalized": bool(np.all(np.abs(row_norm - 1.0) <= 1e-3)),
        "occupancy_positive": bool(np.all(occupancy > 0.0))}


def _four_sigma(p: float, n: int) -> float:
    return 4.0 * math.sqrt(p * (1.0 - p) / n) if 0.0 < p < 1.0 else 0.0


def _linspace(stop: float, k: int) -> np.ndarray:
    """``np.linspace(0.0, stop, k)`` bit for bit, for k >= 1 points and a nonzero step
    (as every ``box_side`` of the records gives), without its general-purpose overhead."""
    x = np.arange(k, dtype=float)
    if k > 1:
        x *= stop / (k - 1)
        x[-1] = stop
    return x


def _epr_setup(cfg: dict):
    """Anticorrelated pair: the singlet of spin modes L+, L-, R+, R- on a 1-D box,
    its ``BranchSet`` |L+ R-> and |L- R+>, the gate's reports and one anticorrelation
    verdict per branch.  The branches differ only in which station holds which spin,
    so the projection changes spin correlations but not energy: the gate is handed
    one zero array as the pre-projection density and as both branch rows."""
    box_side, n_probes = cfg["box_side"], cfg["n_probes"]
    basis = minkowski_basis(box_side=box_side, dimension=1, mass=1.0, n_max=2)
    vac = new_vacuum(basis)
    l_up, l_dn, r_up, r_dn = (basis.mode_index((n,)) for n in (1, -1, 2, -2))
    # a quantum created in an empty mode has amplitude sqrt(1): the branches are unit states
    branch_i = create(create(vac, l_up), r_dn)
    branch_ii = create(create(vac, l_dn), r_up)
    singlet = superpose([(1.0, branch_i), (1.0, branch_ii)], normalize=True)
    branches = BranchSet({"I": branch_i, "II": branch_ii})

    # the config rules keep the two stations apart, so at one shared time
    # each lies outside the other's future cone
    x_left = 0.5 * (box_side - cfg["station_separation"])
    # probe grid straddling the cone: same-time points are all outside,
    # later points near the station are inside
    n_now = n_probes // 2
    t = np.zeros(n_probes)
    t[n_now:] = 1.0
    x = np.concatenate([_linspace(box_side, k) for k in (n_now, n_probes - n_now)])[:, None]
    unchanged = np.zeros(n_probes)
    reports = causality_check(unchanged, (unchanged, unchanged), 0.0, (x_left,), t, x)

    def anticorrelated(post) -> bool:  # local "up" pairs with remote "down", and vice versa
        counts = tuple(number_expectation(post, m) for m in (l_up, r_dn, r_up))
        return counts in ((1.0, 1.0, 0.0), (0.0, 0.0, 1.0))

    return singlet, branches, reports, tuple(anticorrelated(post) for post in branches.states)


def _spheres(centers, mass: float, width: float, x: np.ndarray) -> np.ndarray:
    """Static Gaussian energy densities, each carrying total ``mass``, at
    positions x (n, d): one row (n,) per sphere center (a point of d coordinates)."""
    d = x.shape[-1]
    norm = mass / ((2.0 * math.pi) ** (d / 2.0) * width**d)
    dx = x - np.array(centers, dtype=float).reshape(len(centers), 1, d)
    # np.vecdot sums |x - center|^2 as a one-event ``dx @ dx`` does, bit for bit;
    # dividing by a negated divisor negates the quotient exactly
    return norm * np.exp(np.vecdot(dx, dx) / (-2.0 * width**2))


def _page_geilker_setup(cfg: dict):
    """A sphere in an equal superposition of two positions: the pointer state, one
    quantum in mode -1 plus one in mode +1, its ``BranchSet`` of those two states, the
    gate's reports and one single-sphere verdict per branch.  Before projection the
    sourced energy density is half a sphere at each position; afterwards it is one
    full sphere, a jump that a sourced Einstein equation cannot absorb."""
    basis = minkowski_basis(box_side=cfg["box_side"], dimension=1, mass=1.0, n_max=1)
    vac = new_vacuum(basis)
    state_a, state_b = (create(vac, basis.mode_index((n,))) for n in (-1, 1))  # unit states
    pointer = superpose([(1.0, state_a), (1.0, state_b)], normalize=True)
    branches = BranchSet({"sphere_at_A": state_a, "sphere_at_B": state_b})

    a, b, n_probes = cfg["position_a"], cfg["position_b"], cfg["n_probes"]
    # the equal-time probes and then the two sphere positions
    points = np.concatenate([_linspace(cfg["box_side"], n_probes), (a, b)])[:, None]
    # the branch densities there, one full sphere each; before projection, half of each
    posts = _spheres((a, b), cfg["sphere_mass"], cfg["sphere_width"], points)
    pre = 0.5 * posts[0] + 0.5 * posts[1]
    # equal-time probes sit outside the cone, so the gate sees the sphere relocation
    reports = causality_check(pre[:n_probes], posts[:, :n_probes], 0.0, (0.5 * (a + b),),
                              np.zeros(n_probes), points[:n_probes])
    # the post density is one full sphere, never the pre-projection average:
    # it must deviate from the average at both sphere positions
    single = tuple(bool((np.abs(post[n_probes:] - pre[n_probes:]) > 0.0).all()) for post in posts)
    return pointer, branches, reports, single


_GATE_COLUMNS = tuple(f.name for f in fields(CausalityReport))


def _run_collapse(cfg: dict, setup: Callable, check_flag: str, gate_flag: str,
                  changes_t00: bool) -> _Outcome:
    """Project the setup's state at t = 0 in ``n_trials`` seeded trials.

    ``setup(cfg)`` reads the geometry fields and returns the pre-projection state,
    its ``BranchSet``, the gate's report and the scenario's own check for each
    branch.  A trial's post-state is its branch's state exactly, so a branch's
    verdicts count for all of its trials, and only branches that occurred are
    read.  ``discontinuity`` is the smallest change outside the cone over the
    branches.  The gate flag holds when every branch passes the gate if the
    projection should leave T_00 outside the cone unchanged, and when
    ``discontinuity`` is nonzero if it should change it (``changes_t00``).
    """
    state, branches, reports, checks = setup(cfg)
    batch = run_trials(state, branches, cfg["seed"], cfg["n_trials"])
    n = batch.n_trials
    checked = all(ok for ok, c in zip(checks, batch.counts) if c)
    discontinuity = min(rep.max_violation_outside for rep in reports)
    tables = [
        Table("statistics", ("branch", "count", "frequency", "born"),
              (branches.labels, batch.counts, [c / n for c in batch.counts], batch.born)),
        Table("causality", ("branch", *_GATE_COLUMNS),
              (branches.labels, *([getattr(rep, c) for rep in reports] for c in _GATE_COLUMNS))),
        Table("summary", ("discontinuity", check_flag), ([discontinuity], [checked]))]
    return tables, {
        check_flag: checked,
        gate_flag: discontinuity > 0.0 if changes_t00 else all(rep.passed for rep in reports),
        "born_within_4sigma": all(
            abs(c / n - p) <= _four_sigma(p, n) for c, p in zip(batch.counts, batch.born))}


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
        return residual(state, 0.0, [[0.0]]).global_max

    return observable


# ---- the registry --------------------------------------------------------------

_POSITIVE, _NONNEGATIVE = _Field("number"), _Field("number", zero=True)
_COUNT = _Field("integer", lo=1)
_DIMENSION = _Field("integer", lo=1, hi=3, texts=("must be 1, 2 or 3",) * 2)
_SEED = _Field("integer", lo=0, hi=2**128 - 1,  # the trial stream's Philox key is 128 bits
               texts=("must be a non-negative integer", "must be below 2**128"))
# the box modes take box_side^dimension (d <= 3) and mass^2: both must stay normal floats
_BOX_SIDE = _Field("number", lo=1e-100, hi=1e100)
_BOX_MASS = _Field("number", lo=1e-150, hi=1e150, zero=True)
# the dust closed form takes t^4 and m^2 (``_dust_check``)
_T_GRID = _Field("increasing", lo=1e-75, hi=1e75)
_DUST_MASS = _Field("number", hi=1e150)
_SCAN_VALUES = _Field("increasing", min_len=3)  # the volumes of the V scan
# the V0 observable's mass V0/(6 pi) takes m^2 and its tail 3 pi/V0^2 at t = 1
_EDS_VOLUMES = _Field("increasing", lo=1e-149, hi=1e150, min_len=3)


def _dust_check(lightest: str, heaviest: str) -> tuple:
    """The rule for the dust closed form m/(V0 t^2) + 1/(2 m V0 t^4) over the masses
    from field ``lightest`` to field ``heaviest``: both denominators normal at the
    first time, and the rest-mass term at most 1e300 there and nonzero at the last
    time (the ``t_grid`` and mass records keep t^4 and m^2 finite)."""
    def out_of_range(c: dict) -> bool:
        volume, first, last = c["comoving_volume"], c["t_grid"][0], c["t_grid"][-1]
        return (min(volume * first**2, 2.0 * c[lightest] * volume * first**4) < 1e-300
                or c[heaviest] / volume / first**2 > 1e300
                or c[lightest] / volume / last**2 < 1e-300)
    return ("t_grid", "leaves the float range of the closed form at this mass and "
            "comoving_volume", out_of_range)


def _stations_coincide(c: dict) -> bool:
    """The EPR stations, placed as ``_epr_setup`` places them, round to one
    point: exactly the configs where ``outside_future_cone`` would not separate
    them, since the ``box_side`` bounds keep a nonzero gap's square a normal float."""
    left = 0.5 * (c["box_side"] - c["station_separation"])
    return left + c["station_separation"] - left == 0.0


@dataclass(frozen=True)
class _Scenario:
    schema: dict[str, _Field]
    run: Callable[[dict], _Outcome]
    # rules over two or more fields, in order: (field, message, test true for a bad config)
    checks: tuple[tuple[str, str, Callable[[dict], bool]], ...] = ()
    # (scanned parameter, factory of the observable from a validated config, values record)
    scan: tuple[str, Callable[[dict], Callable[[float], float]], _Field] | None = None


_SCENARIOS: dict[str, _Scenario] = {
    "minkowski_vacuum": _Scenario(
        schema={"box_side": _BOX_SIDE, "dimension": _DIMENSION, "n_events": _COUNT, "seed": _SEED},
        run=_run_minkowski_vacuum),
    "minkowski_particle": _Scenario(
        schema={"box_side": _BOX_SIDE, "dimension": _DIMENSION, "mass": _BOX_MASS,
                "n_max": _COUNT, "mode_label": _Field("integers"), "n_events": _COUNT,
                "lattice_points": _COUNT, "seed": _SEED},
        run=_run_minkowski_particle, scan=("V", _box_volume_observable, _SCAN_VALUES),
        checks=(("mode_label", "must have one integer per spatial dimension",
                 lambda c: len(c["mode_label"]) != c["dimension"]),
                ("mode_label", "exceeds n_max",
                 lambda c: max(abs(n) for n in c["mode_label"]) > c["n_max"]),
                ("mode_label", "zero mode does not exist for a massless field",
                 lambda c: c["mass"] == 0.0 and all(n == 0 for n in c["mode_label"])))),
    "kg_wavepacket": _Scenario(
        schema={"box_side": _BOX_SIDE, "mass": _Field("number", lo=1e-150, hi=1e150),
                "n_max": _COUNT, "x0": _NONNEGATIVE, "profile_points": _Field("integer", lo=2),
                "integration_points": _COUNT, "seed": _SEED},
        run=_run_kg_wavepacket,
        checks=(("x0", "must lie inside the box", lambda c: c["x0"] >= c["box_side"]),)),
    "eds_cosmology": _Scenario(
        schema={"comoving_volume": _POSITIVE, "mass": _DUST_MASS, "t_grid": _T_GRID,
                "seed": _SEED},
        run=_run_eds_cosmology, scan=("V0", _eds_volume_observable, _EDS_VOLUMES),
        checks=(_dust_check("mass", "mass"),)),
    "eds_fit": _Scenario(
        schema={"comoving_volume": _POSITIVE, "t_grid": _T_GRID, "bracket_lo": _POSITIVE,
                "bracket_hi": _DUST_MASS, "fit_tol": _POSITIVE,
                "scaling_volumes": _EDS_VOLUMES,
                "seed": _SEED},
        run=_run_eds_fit,
        checks=(("bracket_hi", "must exceed bracket_lo",
                 lambda c: c["bracket_hi"] <= c["bracket_lo"]),
                _dust_check("bracket_lo", "bracket_hi"))),
    "rindler_unruh": _Scenario(
        # the last rule below builds the grid, so n_frequencies is capped to keep it buildable
        schema={"acceleration": _POSITIVE, "n_frequencies": _Field("integer", lo=1, hi=1_000_000),
                "freq_lo": _POSITIVE, "freq_hi": _POSITIVE, "seed": _SEED},
        run=_run_rindler_unruh,
        # nu = w/a must not underflow to 0, where Gamma(i nu) has its pole, and the
        # Planck occupancy e^(-2 pi nu) must stay a normal float
        checks=(("freq_hi", "must exceed freq_lo", lambda c: c["freq_hi"] <= c["freq_lo"]),
                ("freq_lo", "freq_lo/acceleration must be at least 1e-100",
                 lambda c: c["freq_lo"] / c["acceleration"] < 1e-100),
                ("freq_hi", "freq_hi/acceleration must be at most 100",
                 lambda c: c["freq_hi"] / c["acceleration"] > 100.0),
                ("n_frequencies", "too many frequencies between freq_lo and freq_hi",
                 lambda c: not np.all(np.diff(_rindler_grid(c)) > 0.0)))),
    "epr_collapse": _Scenario(
        schema={"box_side": _BOX_SIDE,  # the spin modes' box basis
                "station_separation": _POSITIVE, "n_trials": _COUNT,
                "n_probes": _Field("integer", lo=2), "seed": _SEED},
        run=partial(_run_collapse, setup=_epr_setup, check_flag="anticorrelation_exact",
                    gate_flag="causality_pass", changes_t00=False),
        checks=(("station_separation", "must be smaller than box_side",
                 lambda c: c["station_separation"] >= c["box_side"]),
                ("station_separation", "too small to separate the stations at this box_side",
                 _stations_coincide))),
    "page_geilker": _Scenario(
        schema={"box_side": _POSITIVE, "position_a": _POSITIVE, "position_b": _POSITIVE,
                "sphere_mass": _POSITIVE,
                # a Gaussian sphere needs 2 width^2 to stay a normal float and a finite peak
                "sphere_width": _Field("number", lo=1e-150, hi=1e150),
                "n_trials": _COUNT, "n_probes": _Field("integer", lo=2), "seed": _SEED},
        run=partial(_run_collapse, setup=_page_geilker_setup,
                    check_flag="single_sphere_every_trial", gate_flag="discontinuity_nonzero",
                    changes_t00=True),
        checks=(("position_a", "sphere positions must lie inside the box",
                 lambda c: c["position_a"] >= c["box_side"]),
                ("position_b", "sphere positions must lie inside the box",
                 lambda c: c["position_b"] >= c["box_side"]),
                ("position_b", "positions must differ",
                 lambda c: c["position_a"] == c["position_b"]),
                ("sphere_width", "too narrow for sphere_mass: the peak density overflows",
                 lambda c: math.isinf(
                     c["sphere_mass"] / (math.sqrt(2.0 * math.pi) * c["sphere_width"]))),
                # a sphere between two probes of the equal-time grid would go unseen
                ("sphere_width", "narrower than the probe spacing box_side/(n_probes-1)",
                 lambda c: c["n_probes"] - 1 < c["box_side"] / c["sphere_width"]))),
}

SCENARIO_NAMES = tuple(sorted(_SCENARIOS))
SCANS = {name: sc.scan[0] for name, sc in _SCENARIOS.items() if sc.scan is not None}
_CONFIGS = resources.files(__package__) / "configs"  # resolved once: a plain path, no listing


def _scenario(name: str) -> _Scenario:
    if name not in _SCENARIOS:
        raise ScenarioConfigError(
            f"unknown scenario {name!r}; choose from {', '.join(SCENARIO_NAMES)}")
    return _SCENARIOS[name]


def _field(schema: dict, key: str, value):
    try:
        return schema[key].check(value)
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
    """Packaged default configuration for a scenario, parsed anew into a fresh dict on
    every call from ``configs/<name>.json``, a directory resolved once per process."""
    _scenario(name)
    return json.loads(_CONFIGS.joinpath(f"{name}.json").read_text("utf-8"))


def run_scenario(name: str, config: dict | None = None, seed: int | None = None,
                 trials: int | None = None) -> RunReport:
    """Validate the config and execute one scenario deterministically.

    ``seed`` overrides the config's ``seed``; ``trials`` overrides the
    ``n_trials`` of the scenarios whose config has one.  Each override is
    checked by that field's own validator and written into the validated
    config, the one source of the run's inputs and of the report's seed.
    """
    scenario = _scenario(name)
    cfg = validate_config(name, default_config(name) if config is None else config)
    if trials is not None:
        if "n_trials" not in scenario.schema:
            raise ScenarioConfigError(
                f"scenario {name!r} has no trial count to override")
        cfg["n_trials"] = _field(scenario.schema, "n_trials", trials)
    if seed is not None:
        cfg["seed"] = _field(scenario.schema, "seed", seed)
    tables, flags = scenario.run(cfg)
    return RunReport(name, cfg["seed"], {table.name: table for table in tables}, flags)


def scan_scenario(name: str, config: dict | None, param: str,
                  values: Sequence[float]) -> RunReport:
    """Log-log scaling study of a scenario's residual over a volume parameter.

    ``param`` must be the scenario's scan parameter, ``SCANS[name]``; the ``values``, a
    sequence or numpy array, are checked next by the scan's values record (at least
    three strictly increasing positive finite volumes, within the range that the
    observable can evaluate), before the observable is built.
    The report has the ``scaling`` and ``scaling_slope`` tables and the flag ``slope_defined``.
    """
    scenario = _scenario(name)
    if scenario.scan is None:
        raise ScenarioConfigError(f"scenario {name!r} has no volume scan")
    cfg = validate_config(name, default_config(name) if config is None else config)
    scan_param, make_observable, record = scenario.scan
    if param != scan_param:
        raise ScenarioConfigError(f"field 'param': {name} scans over {scan_param}")
    values = _field({"values": record}, "values", np.asarray(values, dtype=object).tolist())
    observable = make_observable(cfg)
    try:
        with np.errstate(over="raise"):  # a volume beyond double range names 'values'
            study = scaling_study(observable, values, parameter=param)
    except ScenarioConfigError:  # already names its field
        raise
    except (ValueError, ArithmeticError) as exc:
        raise ScenarioConfigError(f"field 'values': {exc}") from None
    return RunReport(f"scan_{name}", cfg["seed"],
                     {table.name: table for table in _scaling_tables(study)},
                     {"slope_defined": study.status == "ok"})
