"""Scenario configs, runners, and the command-line front end."""
import argparse
import ast
import dataclasses
import functools
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semigrav.cli import build_parser, main
from semigrav.report import emit
from semigrav.scenarios import (
    _SCAN_VALUES,
    _SCENARIOS,
    SCANS,
    SCENARIO_NAMES,
    ScenarioConfigError,
    _Field,
    _field,
    default_config,
    run_scenario,
    scan_scenario,
    validate_config,
)

FAST_TRIALS = {"epr_collapse": 400, "page_geilker": 120}


def _small_config(name):
    """Packaged defaults shrunk where the full size is slow."""
    cfg = default_config(name)
    if name == "kg_wavepacket":
        cfg.update(n_max=12, profile_points=32, integration_points=32)
    elif name == "rindler_unruh":
        cfg.update(n_frequencies=6)
    elif name == "eds_fit":
        cfg.update(fit_tol=1e-3)
    return cfg


# ---- config validation -------------------------------------------------------

def test_scenario_name_list_is_sorted_and_complete():
    assert list(SCENARIO_NAMES) == sorted(SCENARIO_NAMES)
    assert len(SCENARIO_NAMES) == 8


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_packaged_defaults_validate(name):
    cfg = validate_config(name, default_config(name))
    assert "seed" in cfg


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_missing_field_is_reported_by_name(name):
    base = default_config(name)
    for key in base:
        broken = {k: v for k, v in base.items() if k != key}
        with pytest.raises(ScenarioConfigError, match=key):
            validate_config(name, broken)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_unknown_field_is_reported_by_name(name):
    broken = dict(default_config(name), not_a_real_field=1)
    with pytest.raises(ScenarioConfigError, match="not_a_real_field"):
        validate_config(name, broken)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_sign_flips_are_rejected(name):
    base = default_config(name)
    for key, value in base.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        if key == "seed" or value == 0:
            continue
        broken = dict(base, **{key: -abs(value)})
        with pytest.raises(ScenarioConfigError):
            validate_config(name, broken)


def test_unknown_scenario_and_bad_shapes():
    with pytest.raises(ScenarioConfigError, match="unknown scenario"):
        validate_config("warp_drive", {})
    with pytest.raises(ScenarioConfigError):
        validate_config("minkowski_vacuum", [1, 2, 3])
    cfg = default_config("eds_cosmology")
    with pytest.raises(ScenarioConfigError, match="t_grid"):
        validate_config("eds_cosmology", dict(cfg, t_grid=[2.0, 1.0]))
    cfg = default_config("minkowski_particle")
    with pytest.raises(ScenarioConfigError, match="mode_label"):
        validate_config("minkowski_particle", dict(cfg, mode_label=[1, 0]))
    with pytest.raises(ScenarioConfigError, match="mode_label"):
        validate_config("minkowski_particle", dict(cfg, mode_label=[9, 0, 0]))


# ---- runners -------------------------------------------------------------------

@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_every_scenario_passes_its_flags(name):
    report = run_scenario(name, config=_small_config(name),
                          trials=FAST_TRIALS.get(name))
    assert report.scenario == name
    assert report.flags, "every scenario must publish at least one flag"
    assert report.passed, f"failing flags: {report.flags}"
    assert report.tables
    for flag, value in report.flags.items():
        assert type(value) is bool, f"flag {flag} is {type(value)}"
    json.dumps(report.flags)  # flags must be JSON-clean


# config fields that no one-field change moves an output byte of, each with the reason
INERT_FIELDS = {
    ("minkowski_particle", "n_max"): "the one-quantum T does not depend on the cutoff; "
                                     "the bench field workload sets it",
}
# the one-field change of each field whose generic nudge is not a valid config,
# or moves no byte although another value of the field does
FIELD_NUDGES = {
    ("minkowski_vacuum", "dimension"): {"dimension": 2},
    ("minkowski_particle", "dimension"): {"dimension": 1, "mode_label": [1]},
    # a station at 2 has 4 later probes in its cone; one at 3 or at 2.5 (the
    # nudge) has 5
    ("epr_collapse", "station_separation"): {"station_separation": 6.0},
    # a bracket shrinks by 1.618 a step: a tol 1.25 times as large stops at the same step
    ("eds_fit", "fit_tol"): {"fit_tol": 1e-5},
    # the discontinuity is read at the probe nearest a = 3; there the B sphere's tail
    # is below an ulp at b = 8.75 (the nudge) and at b = 7, but 8e-13 at b = 6
    ("page_geilker", "position_b"): {"position_b": 6.0},
}


def _nudged(value):
    """A nearby value of a config field: an integer plus one, a float times 1.25,
    a list with its first entry nudged."""
    if isinstance(value, list):
        return [_nudged(value[0])] + value[1:]
    return value + 1 if isinstance(value, int) else value * 1.25


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_every_config_field_reaches_the_output(name):
    """Each field of the schema has a valid change that moves a byte of the packaged
    run's JSON, or an ``INERT_FIELDS`` entry that says why it has none."""
    base = default_config(name)
    packaged = emit(run_scenario(name, base), "json")
    inert = []
    for key in validate_config(name, base):
        cfg = dict(base, **FIELD_NUDGES.get((name, key), {key: _nudged(base[key])}))
        validate_config(name, cfg)  # an invalid nudge belongs in FIELD_NUDGES
        if emit(run_scenario(name, cfg), "json") == packaged:
            inert.append(key)
    assert inert == [key for scenario, key in INERT_FIELDS if scenario == name]


def test_run_scenario_is_deterministic():
    a = run_scenario("eds_cosmology")
    b = run_scenario("eds_cosmology")
    assert emit(a, "json") == emit(b, "json")


def test_kg_wavepacket_walks_the_moments_once(monkeypatch):
    """The profile, the probes and the energy lattice share one energy_density call,
    and the lattice sum is still ``integrated_energy``'s, bit for bit."""
    import semigrav.stress_energy as stress_energy
    from semigrav.modes import minkowski_basis

    calls = []
    moments = stress_energy.moments

    def counting(state):
        calls.append(len(state.terms))
        return moments(state)

    monkeypatch.setattr(stress_energy, "moments", counting)
    cfg = _small_config("kg_wavepacket")
    report = run_scenario("kg_wavepacket", cfg)
    assert report.passed
    assert calls == [2 * cfg["n_max"] + 1]
    summary = report.tables["summary"]
    basis = minkowski_basis(cfg["box_side"], 1, cfg["mass"], cfg["n_max"])
    state = stress_energy.wavepacket_state(basis, (cfg["x0"],))
    lattice = stress_energy.integrated_energy(state, basis, basis.backend, 0.0,
                                              cfg["integration_points"])
    assert summary.rows[0][summary.columns.index("lattice_energy")] == lattice


def test_seed_override_lands_in_report():
    report = run_scenario("minkowski_vacuum", seed=777)
    assert report.seed == 777


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_seed_override_is_the_config_seed(name):
    """``--seed`` and a config ``seed`` are one input: the same bytes either way."""
    cfg = dict(_small_config(name), **({"n_trials": FAST_TRIALS[name]}
                                        if name in FAST_TRIALS else {}))
    assert cfg["seed"] != 4242
    overridden = emit(run_scenario(name, cfg, seed=4242), "json")
    assert overridden == emit(run_scenario(name, dict(cfg, seed=4242)), "json")
    assert json.loads(overridden)["seed"] == 4242


def test_only_the_entry_points_build_reports_and_runners_take_the_config_alone():
    """Each ``_run_*`` reads its seed from the validated config and returns its
    tables and flags; ``run_scenario`` and ``scan_scenario`` build every report.
    The one collapse runner takes the config first and its scenario's data after
    it, which the registry binds: each registry runner is called with the config alone."""
    path = Path(__file__).resolve().parents[1] / "src" / "semigrav" / "scenarios.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    builders, runners = set(), {}
    for node in tree.body:
        owner = getattr(node, "name", "<module>")
        if any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == "RunReport"
               for call in ast.walk(node)):
            builders.add(owner)
        if isinstance(node, ast.FunctionDef) and owner.startswith("_run_"):
            args = node.args
            runners[owner] = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    assert builders == {"run_scenario", "scan_scenario"}
    collapse = runners.pop("_run_collapse")
    assert collapse == ["cfg", "setup", "check_flag", "gate_flag", "changes_t00"]
    assert runners == {name: ["cfg"] for name in runners}
    runs = [scenario.run for scenario in _SCENARIOS.values()]
    bound = [run for run in runs if isinstance(run, functools.partial)]
    assert all(run.func.__name__ == "_run_collapse" and not run.args
               and list(run.keywords) == collapse[1:] for run in bound)
    assert sorted(run.__name__ for run in runs if run not in bound) == sorted(runners)


def test_trials_override_only_for_projection_scenarios():
    with pytest.raises(ScenarioConfigError, match="trial count"):
        run_scenario("eds_cosmology", trials=10)
    report = run_scenario("page_geilker", trials=25)
    stats = report.tables["statistics"]
    count_col = stats.columns.index("count")
    assert sum(row[count_col] for row in stats.rows) == 25


def test_eds_cosmology_honest_closed_form_flags():
    report = run_scenario("eds_cosmology")
    assert report.flags["t00_closed_form"]
    assert report.flags["off_diagonals_zero"]
    assert report.flags["finite_volume_obstruction_present"]


@pytest.mark.parametrize("acceleration", [0.1, 0.2, 0.3])
def test_rindler_small_accelerations_pass_on_the_packaged_grid(acceleration, tmp_path, capsys):
    """nu = w / a reaches 30 on the packaged grid at a = 0.1."""
    path = _write_json(tmp_path / "ru.json",
                       dict(default_config("rindler_unruh"), acceleration=acceleration))
    rc = main(["run", "rindler_unruh", "--config", path])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["flags"] and all(payload["flags"].values())


# one-function faults in the wedge rows' log-gamma, each with the rindler_unruh
# flags it must fail, in the report's flag order
RINDLER_FAULTS = {
    "nan": (lambda loggamma: lambda z: np.full(np.shape(z), np.nan + 0j),
            ("thermal_within_1pct", "rows_normalized", "occupancy_positive")),
    # e^(0.02) = 1.0202 on every S_j: 2% off Planck and off unit norm, still positive
    "real-bias": (lambda loggamma: lambda z: loggamma(z) + 0.01,
                  ("thermal_within_1pct", "rows_normalized")),
}


def _run_failing(argv, failed, capsys):
    """The ``main`` call ``argv`` (a packaged run, unless it adds ``--config``): it
    exits 1 and stderr names exactly the flags ``failed`` lists, in order.
    Returns the JSON payload."""
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "".join(f"flag {flag!r} failed\n" for flag in failed)
    return json.loads(captured.out)


def _run_rindler_with_fault(fault, monkeypatch, capsys):
    """The packaged rindler_unruh run with ``bogolubov._loggamma`` replaced as
    ``RINDLER_FAULTS[fault]`` says, failing the flags the entry lists."""
    make, failed = RINDLER_FAULTS[fault]
    bogolubov = importlib.import_module("semigrav.bogolubov")
    monkeypatch.setattr(bogolubov, "_loggamma", make(bogolubov._loggamma))
    return _run_failing(["run", "rindler_unruh"], failed, capsys)


def test_rindler_non_finite_spectrum_fails_every_flag(monkeypatch, capsys):
    """A NaN log-gamma makes every row NaN, and a NaN fails every flag."""
    payload = _run_rindler_with_fault("nan", monkeypatch, capsys)
    assert list(payload["tables"]) == ["normalization", "spectrum"]
    assert payload["flags"] and not any(payload["flags"].values())


def test_rindler_biased_loggamma_fails_the_gamma_identity_flags(monkeypatch, capsys):
    """|Gamma(i nu)|^2 off by 2% breaks the Planck and norm flags, not positivity."""
    payload = _run_rindler_with_fault("real-bias", monkeypatch, capsys)
    assert payload["flags"]["occupancy_positive"]


class _Squared:
    """A generator whose every uniform u comes out as u**2."""

    def __init__(self, rng):
        self.rng = rng

    def random(self, size=None):
        return self.rng.random(size) ** 2


# faults in the trial stream, made through ``np.random.Generator``, each with
# the collapse flags it must fail, in the report's flag order
COLLAPSE_FAULTS = {
    # an even split's first branch gets P(u**2 < 1/2) = 1/sqrt(2) of the trials
    "squared-uniforms": (lambda generator: lambda bits: _Squared(generator(bits)),
                         ("born_within_4sigma",)),
}


@pytest.mark.parametrize("fault", sorted(COLLAPSE_FAULTS))
@pytest.mark.parametrize("name", ["epr_collapse", "page_geilker"])
def test_collapse_skewed_trial_stream_fails_the_born_flag(name, fault, monkeypatch, capsys):
    """A trial stream that is not uniform fails the Born statistics, and only them."""
    make, failed = COLLAPSE_FAULTS[fault]
    monkeypatch.setattr(np.random, "Generator", make(np.random.Generator))
    _run_failing(["run", name], failed, capsys)


def _graded(slot_factors):
    """EdS slot factors whose k = 0 mode has a gradient of 1e-6 in x1."""
    def faulty(self, t, modes=(0,)):
        out = slot_factors(self, t, modes)
        out[..., 1, :] = 1e-6j
        return out
    return faulty


# one-function faults in the field engines, each with its scenario, the
# ``module:attribute`` it replaces and the flags it must fail, in the report's flag order
FIELD_FAULTS = {
    # a flat box given a curvature of 1e-9 in every diagonal G_mm
    "curved-flat-box": ("minkowski_vacuum", "semigrav.consistency:einstein_tensor",
                        lambda einstein_tensor: lambda backend, t, x:
                        einstein_tensor(backend, t, x) + 1e-9,
                        ("residual_zero",)),
    # the quantum lands one mode past the labelled one, whose w the flag reads
    "create-next-mode": ("minkowski_particle", "semigrav.scenarios:create",
                         lambda create: lambda state, mode: create(state, mode + 1),
                         ("total_energy_exact",)),
    # n lattice points a side, each given a cell of side L/(n+1)
    "short-cells": ("minkowski_particle", "semigrav.stress_energy:box_lattice",
                    lambda box_lattice: lambda backend, n: (
                        box_lattice(backend, n)[0],
                        (backend.box_side / (n + 1)) ** backend.dimension),
                    ("lattice_energy_matches",)),
    # the dust mode normalized to m V0, not 2 m V0: twice the closed-form T_00
    "half-norm-dust-mode": ("eds_cosmology", "semigrav.modes:eds_k0_mode",
                            lambda mode: lambda t, mass, volume:
                            math.sqrt(2.0) * mode(t, mass, volume),
                            ("t00_closed_form",)),
    # T_01 reads 3e-11 to 2e-9 on the grid, over the 1e-12 bound, and T_00 still
    # rounds to the closed form
    "graded-dust-mode": ("eds_cosmology", "semigrav.modes:EdSModeBasis.slot_factors", _graded,
                         ("off_diagonals_zero",)),
}


@pytest.mark.parametrize("fault", sorted(FIELD_FAULTS))
def test_field_fault_fails_exactly_its_flags(fault, monkeypatch, capsys):
    """A fault in one engine function turns its entry's flags false, and only them."""
    name, target, make, failed = FIELD_FAULTS[fault]
    module, path = target.split(":")
    *parents, attr = path.split(".")
    owner = importlib.import_module(module)
    for parent in parents:
        owner = getattr(owner, parent)
    monkeypatch.setattr(owner, attr, make(getattr(owner, attr)))
    _run_failing(["run", name], failed, capsys)


# valid configs, each with its scenario, its changes to the packaged config and
# the flags it must fail, in the report's flag order
_ULP = math.ulp(1.0)
CONFIG_CONTROLS = {
    # 1e-9 apart, the two declared spheres agree at both positions to the last bit
    "page_geilker-coincident-spheres": ("page_geilker", {"position_b": 3.0 + 1e-9},
                                        ("single_sphere_every_trial",)),
    # at V0 = 1e10 and its self-consistent mass V0/(6 pi), the 1/t^4 tail (1.5e-19 at
    # t = 2) is under half an ulp of G_00 = 1/3: the residual rounds to 0
    "eds_cosmology-tail-below-ulp": ("eds_cosmology", {"comoving_volume": 1e10,
                                                       "mass": 1e10 / (6.0 * math.pi),
                                                       "t_grid": [2.0, 4.0]},
                                     ("finite_volume_obstruction_present",)),
    # a one-ulp bracket at 10 cannot hold the mass V0/(6 pi) = 100
    "eds_fit-one-ulp-bracket": ("eds_fit", {"bracket_hi": math.nextafter(10.0, math.inf)},
                                ("fit_recovers_mass",)),
    # volumes one ulp apart leave the log-log slope to rounding
    "eds_fit-ulp-volumes": ("eds_fit", {"scaling_volumes": [1.0, 1.0 + _ULP, 1.0 + 2 * _ULP]},
                            ("scaling_slope_minus_2",)),
    # a one-point lattice samples the packet at x = 0 only
    "kg_wavepacket-one-point": ("kg_wavepacket", {"integration_points": 1},
                                ("energy_matches",)),
    # a near-massless packet of the modes |n| <= 1 is broad: T_00 at x0 is 5.2 times
    # that at the antipode, under the 10 that ``localized`` asks
    "kg_wavepacket-spread": ("kg_wavepacket", {"n_max": 1, "mass": 0.01}, ("localized",)),
}


@pytest.mark.parametrize("control", sorted(CONFIG_CONTROLS))
def test_config_control_fails_exactly_its_flags(control, tmp_path, capsys):
    """A valid config turns the flags its entry lists false, and only them."""
    name, changes, failed = CONFIG_CONTROLS[control]
    path = _write_json(tmp_path / "control.json", dict(default_config(name), **changes))
    _run_failing(["run", name, "--config", path], failed, capsys)


# valid scans, each with its scenario, parameter and values and the flags it must fail
SCAN_CONTROLS = {
    # at V0 = 2e9 the 1/t^4 tail is below an ulp of G_00: the residual rounds to 0,
    # and the log-log slope of a zero observable is undefined
    "eds_cosmology-zero-residual": ("eds_cosmology", "V0", "5e8,1e9,2e9", ("slope_defined",)),
    # volumes two ulps apart leave the log-log fit rank 1, so the slope is undefined
    "minkowski_particle-ulp-volumes": ("minkowski_particle", "V",
                                       "10,10.000000000000002,10.000000000000004",
                                       ("slope_defined",)),
}


@pytest.mark.parametrize("control", sorted(SCAN_CONTROLS))
def test_scan_control_fails_exactly_its_flags(control, tmp_path, capsys):
    """A valid scan, of the scenario's ``_SCAN_CONFIGS`` config, turns the flags its
    entry lists false, and only them."""
    name, param, values, failed = SCAN_CONTROLS[control]
    path = _write_json(tmp_path / "scan.json", _SCAN_CONFIGS[name])
    _run_failing(["scan", name, "--param", param, "--values", values, "--config", path],
                 failed, capsys)


# flags that no valid config and no one-function fault can turn false, each
# with what makes it hold by construction
COLLAPSE_IDENTITIES = {
    "causality_pass": "both EPR branches carry the pre-projection density, so the "
                      "setup hands the gate one zero array as pre and as both branch rows",
    "anticorrelation_exact": "the EPR branches are built as |L+ R-> and |L- R+>, "
                             "so every branch state has opposite spins",
    "discontinuity_nonzero": "it compares two declared Gaussians at distinct positions, "
                             "not densities computed from the branch states",
}


# a valid scan of each scannable scenario: its config changes and its values
_SCAN_RUNS = {"minkowski_particle": ({"dimension": 1, "mode_label": [1]}, (10.0, 20.0, 40.0)),
              "eds_cosmology": ({}, (18.85, 188.5, 1885.0))}
_SCAN_CONFIGS = {name: dict(default_config(name), **changes)
                 for name, (changes, _) in _SCAN_RUNS.items()}


def test_every_collapse_flag_has_a_fault_or_an_identity_entry():
    """Every flag of the eight scenarios and the two scans is failed by a config or
    scan control or by a fault entry, or holds by construction for the reason
    ``COLLAPSE_IDENTITIES`` gives: exactly one of the three."""
    flags = {flag for name in SCENARIO_NAMES
             for flag in run_scenario(name, _small_config(name), trials=FAST_TRIALS.get(name)).flags}
    assert set(_SCAN_RUNS) == set(SCANS)
    flags |= {flag for name, (changes, values) in _SCAN_RUNS.items()
              for flag in scan_scenario(name, dict(default_config(name), **changes), SCANS[name],
                                        values).flags}
    tables = ({flag for controls in (CONFIG_CONTROLS, SCAN_CONTROLS)
               for *_, failed in controls.values() for flag in failed},
              {flag for faults in (COLLAPSE_FAULTS, RINDLER_FAULTS, FIELD_FAULTS)
               for *_, failed in faults.values() for flag in failed},
              set(COLLAPSE_IDENTITIES))
    counts = {flag: sum(flag in table for table in tables) for flag in flags}
    assert counts == dict.fromkeys(flags, 1)


@pytest.mark.parametrize("changes", [
    dict(freq_lo=1e-15, freq_hi=2e-15),
    dict(freq_lo=1e-20, freq_hi=2e-20),
    dict(acceleration=2.84e95, freq_lo=9.19e96, freq_hi=1.38e97, n_frequencies=2),
], ids=["nu-1e-15", "nu-1e-20", "k-omega-1e192"])
def test_rindler_row_sums_hold_at_extreme_nu_and_scale(changes, tmp_path, capsys):
    """Near nu = 0, the norm (1 - e^(-2 pi nu)) S_j must not cancel; at a ~ 1e95,
    with nu ~ 48 in the last row, neither S_j nor e^(-2 pi nu) S_j may underflow."""
    path = _write_json(tmp_path / "ru.json", dict(default_config("rindler_unruh"), **changes))
    rc = main(["run", "rindler_unruh", "--config", path])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["flags"] and all(payload["flags"].values())
    for _, occupancy, planck, _ in payload["tables"]["spectrum"]["rows"]:
        assert abs(occupancy - planck) <= 1e-12 * planck


def test_rindler_extreme_configs_only_raise_config_errors():
    """Seeded fuzz over [1e-320, 1e308]: a config is either refused or runs.

    Half the draws are log-uniform in all three scales (the acceleration and
    the two frequencies); the other half put
    the frequencies near the acceleration, so that many configs pass the
    nu = w / a rules and reach the runner.  Non-finite values that extreme
    scales produce must fail flags, not raise.
    """
    rng = np.random.default_rng(20201)
    lo, hi = -320.0, np.log10(1.7e308)
    ran = 0
    for i in range(300):
        with np.errstate(all="ignore"):
            a, *scales = 10.0 ** rng.uniform(lo, hi, 3)
            freqs = np.sort(scales if i % 2 else a * 10.0 ** rng.uniform(-105.0, 5.0, 2))
            cfg = dict(acceleration=float(a), freq_lo=float(freqs[0]), freq_hi=float(freqs[1]),
                       n_frequencies=int(rng.integers(1, 4)), seed=0)
            try:
                run_scenario("rindler_unruh", cfg)
            except ScenarioConfigError:
                continue
        ran += 1
    assert ran >= 100


# ---- CLI -----------------------------------------------------------------------

def test_cli_run_json_stdout(capsys):
    rc = main(["run", "minkowski_vacuum"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert sorted(payload.keys()) == ["flags", "scenario", "seed", "tables"]
    assert payload["scenario"] == "minkowski_vacuum"


def test_cli_run_writes_csv_with_siblings(tmp_path):
    dest = tmp_path / "mv.csv"
    rc = main(["run", "minkowski_vacuum", "--out", str(dest), "--format", "csv"])
    assert rc == 0
    text = dest.read_bytes().decode()
    header = text.split("\r\n")[0]
    assert header == "scenario,t,x1,x2,x3,mu,nu,value"
    assert (tmp_path / "mv.residuals.csv").exists()


def test_cli_run_with_config_and_seed(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(default_config("eds_cosmology")))
    rc = main(["run", "eds_cosmology", "--config", str(cfg_path), "--seed", "5"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5


def test_cli_trials_override(tmp_path, capsys):
    rc = main(["run", "page_geilker", "--trials", "30"])
    assert rc == 0
    capsys.readouterr()


def test_cli_scan_eds_volume(capsys):
    rc = main(["scan", "eds_cosmology", "--param", "V0",
               "--values", "18.85,188.5,1885.0"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    slope = payload["tables"]["scaling_slope"]["rows"][0][0]
    assert abs(slope + 2.0) < 1e-6


def test_cli_scan_box_volume(tmp_path, capsys):
    cfg = dict(default_config("minkowski_particle"), dimension=1, mode_label=[1])
    path = tmp_path / "cfg1d.json"
    path.write_text(json.dumps(cfg))
    rc = main(["scan", "minkowski_particle", "--param", "V",
               "--values", "10,20,40,80", "--config", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    slope = payload["tables"]["scaling_slope"]["rows"][0][0]
    assert abs(slope + 1.0) < 1e-6


def test_cli_error_paths_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(default_config("minkowski_vacuum"), box_side=-1)))
    assert main(["run", "minkowski_vacuum", "--config", str(bad)]) == 2
    assert "box_side" in capsys.readouterr().err

    notjson = tmp_path / "nope.json"
    notjson.write_text("{")
    assert main(["run", "minkowski_vacuum", "--config", str(notjson)]) == 2
    capsys.readouterr()

    assert main(["run", "minkowski_vacuum", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()

    assert main(["run", "eds_cosmology", "--trials", "5"]) == 2
    assert "trial count" in capsys.readouterr().err

    assert main(["scan", "eds_cosmology", "--param", "V0", "--values", "1,2"]) == 2
    capsys.readouterr()

    assert main(["scan", "eds_cosmology", "--param", "V", "--values", "1,2,3"]) == 2
    capsys.readouterr()


def test_cli_unknown_scenario_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "warp_drive"])
    assert exc.value.code == 2
    capsys.readouterr()


def _cli(argv, capsys):
    """Exit code, stdout and stderr of one ``main`` call, usage errors included."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("calls", [
    [["run", "eds_cosmology", "--seed", "5"], ["run", "eds_cosmology"]],
    [["run", "page_geilker", "--trials", "30"], ["run", "page_geilker"]],
    [["run", "warp_drive"],
     ["run", "minkowski_vacuum", "--format", "csv", "--out", "{tmp}/vacuum.csv"]],
], ids=["seed-then-config-seed", "trials-then-config-trials", "usage-error-then-run"])
def test_main_calls_in_one_process_match_fresh_calls(calls, tmp_path, capsys):
    """The shared parser carries nothing from one call into the next."""
    calls = [[a.format(tmp=tmp_path) for a in argv] for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(_cli(argv, capsys))
    assert [_cli(argv, capsys) for argv in calls] == fresh
    assert fresh[0] != fresh[1]


def test_second_main_call_does_not_rebuild_the_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    assert main(["run", "eds_cosmology"]) == 0
    first = len(built)
    assert main(["run", "eds_cosmology", "--seed", "3"]) == 0
    capsys.readouterr()
    assert first == 3  # the parser and its two subcommand parsers
    assert len(built) == first


def test_importing_the_cli_builds_no_parser():
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = "import semigrav.cli as c; print(c.build_parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_cli_scan_param_volume_requires_dimension_one(tmp_path, capsys):
    cfg = dict(default_config("minkowski_particle"), dimension=3)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main(["scan", "minkowski_particle", "--param", "V",
               "--values", "10,20,40", "--config", str(path)])
    assert rc == 2
    assert "dimension" in capsys.readouterr().err


# ---- exact error messages --------------------------------------------------------

_DROP = object()  # marks a field removed from the packaged config

# (scenario, changes to its packaged config, the exact ScenarioConfigError text)
CONFIG_MESSAGES = [
    ("minkowski_vacuum", {"zzz": 1}, "unknown field 'zzz'"),
    ("minkowski_vacuum", {"box_side": _DROP}, "missing required field 'box_side'"),
    ("minkowski_vacuum", {"box_side": "1"}, "field 'box_side': must be a number"),
    ("minkowski_vacuum", {"box_side": True}, "field 'box_side': must be a number"),
    ("minkowski_vacuum", {"box_side": float("inf")}, "field 'box_side': must be finite"),
    ("minkowski_vacuum", {"box_side": float("nan")}, "field 'box_side': must be finite"),
    ("minkowski_vacuum", {"box_side": 0}, "field 'box_side': must be positive"),
    ("minkowski_particle", {"mass": -1.0}, "field 'mass': must be non-negative"),
    ("minkowski_particle", {"n_max": 1.5}, "field 'n_max': must be an integer"),
    ("minkowski_particle", {"n_max": 0}, "field 'n_max': must be an integer >= 1"),
    ("minkowski_vacuum", {"dimension": 4}, "field 'dimension': must be 1, 2 or 3"),
    ("minkowski_vacuum", {"seed": -1}, "field 'seed': must be a non-negative integer"),
    ("minkowski_vacuum", {"seed": "x"}, "field 'seed': must be an integer"),
    ("minkowski_particle", {"mode_label": "x"},
     "field 'mode_label': must be a list of integers"),
    ("minkowski_particle", {"mode_label": [1.5, 0, 0]}, "field 'mode_label': must be an integer"),
    ("minkowski_particle", {"mode_label": [1, 0]},
     "field 'mode_label': must have one integer per spatial dimension"),
    ("minkowski_particle", {"mode_label": [9, 0, 0]}, "field 'mode_label': exceeds n_max"),
    ("minkowski_particle", {"mass": 0.0, "mode_label": [0, 0, 0]},
     "field 'mode_label': zero mode does not exist for a massless field"),
    ("kg_wavepacket", {"profile_points": 1}, "field 'profile_points': must be an integer >= 2"),
    ("kg_wavepacket", {"x0": 10.0, "box_side": 10.0}, "field 'x0': must lie inside the box"),
    ("eds_cosmology", {"t_grid": []}, "field 't_grid': must be a list of at least 1 numbers"),
    ("eds_cosmology", {"t_grid": 1.0}, "field 't_grid': must be a list of at least 1 numbers"),
    ("eds_cosmology", {"t_grid": ["a"]}, "field 't_grid': must be a number"),
    ("eds_cosmology", {"t_grid": [0.0, 1.0]}, "field 't_grid': entries must be positive"),
    ("eds_cosmology", {"t_grid": [2.0, 1.0]},
     "field 't_grid': entries must be strictly increasing"),
    ("eds_fit", {"scaling_volumes": [1.0, 2.0]},
     "field 'scaling_volumes': must be a list of at least 3 numbers"),
    ("eds_fit", {"bracket_lo": 2.0, "bracket_hi": 2.0},
     "field 'bracket_hi': must exceed bracket_lo"),
    ("rindler_unruh", {"n_frequencies": 0}, "field 'n_frequencies': must be an integer >= 1"),
    ("rindler_unruh", {"freq_lo": 3.0, "freq_hi": 3.0}, "field 'freq_hi': must exceed freq_lo"),
    ("epr_collapse", {"station_separation": 10.0, "box_side": 10.0},
     "field 'station_separation': must be smaller than box_side"),
    ("page_geilker", {"box_side": 10.0, "position_a": 10.0, "position_b": 7.0},
     "field 'position_a': sphere positions must lie inside the box"),
    ("page_geilker", {"box_side": 10.0, "position_a": 3.0, "position_b": 10.0},
     "field 'position_b': sphere positions must lie inside the box"),
    ("page_geilker", {"position_a": 3.0, "position_b": 3.0},
     "field 'position_b': positions must differ"),
    ("epr_collapse", {"box_side": 1e300},  # the bound runs before the station rule
     "field 'box_side': must lie between 1e-100 and 1e100"),
    ("epr_collapse", {"station_separation": 1e-320},
     "field 'station_separation': too small to separate the stations at this box_side"),
    ("epr_collapse", {"box_side": 1e-250, "station_separation": 1e-260},
     "field 'box_side': must lie between 1e-100 and 1e100"),
    # the deleted EPR sphere fields, in the slots of their deleted rules
    ("epr_collapse", {"sphere_width": 0.3}, "unknown field 'sphere_width'"),
    ("epr_collapse", {"sphere_mass": 1.0}, "unknown field 'sphere_mass'"),
    ("page_geilker", {"sphere_width": 1e-200},
     "field 'sphere_width': must lie between 1e-150 and 1e150"),
    ("page_geilker", {"sphere_width": 1e200},
     "field 'sphere_width': must lie between 1e-150 and 1e150"),
    ("page_geilker", {"sphere_mass": 1e300, "sphere_width": 1e-150},
     "field 'sphere_width': too narrow for sphere_mass: the peak density overflows"),
    # the vacuum's deleted mass, in the slot of a row whose message the next row keeps
    ("minkowski_vacuum", {"mass": 1e300}, "unknown field 'mass'"),
    ("minkowski_particle", {"mass": 1e300}, "field 'mass': must be at most 1e150"),
    ("kg_wavepacket", {"mass": 1e300}, "field 'mass': must lie between 1e-150 and 1e150"),
    ("minkowski_particle", {"box_side": 1e150},
     "field 'box_side': must lie between 1e-100 and 1e100"),
    ("kg_wavepacket", {"box_side": 1e-120, "x0": 0.0},
     "field 'box_side': must lie between 1e-100 and 1e100"),
    ("eds_cosmology", {"t_grid": [1e-300, 1.0]},
     "field 't_grid': entries must lie between 1e-75 and 1e75"),
    ("eds_cosmology", {"t_grid": [1.0, 1e300]},
     "field 't_grid': entries must lie between 1e-75 and 1e75"),
    ("eds_fit", {"t_grid": [1e-300]}, "field 't_grid': entries must lie between 1e-75 and 1e75"),
    ("eds_cosmology", {"mass": 1e200}, "field 'mass': must be at most 1e150"),
    ("eds_fit", {"bracket_hi": 1e200}, "field 'bracket_hi': must be at most 1e150"),
    ("eds_cosmology", {"comoving_volume": 1e-320},  # V0 t^2 underflows at the first time
     "field 't_grid': leaves the float range of the closed form at this mass and "
     "comoving_volume"),
    ("eds_cosmology", {"comoving_volume": 1e308},  # m/(V0 t^2) underflows at the last time
     "field 't_grid': leaves the float range of the closed form at this mass and "
     "comoving_volume"),
    ("eds_fit", {"comoving_volume": 1e-244, "bracket_hi": 1e132},  # m/(V0 t^2) overflows
     "field 't_grid': leaves the float range of the closed form at this mass and "
     "comoving_volume"),
    ("eds_fit", {"scaling_volumes": [1.0, 2.0, 1e200]},
     "field 'scaling_volumes': entries must lie between 1e-149 and 1e150"),
    ("page_geilker", {"sphere_width": 1e-4},
     "field 'sphere_width': narrower than the probe spacing box_side/(n_probes-1)"),
    ("minkowski_particle", {"mass": 1e-200, "mode_label": [0, 0, 0]},  # mass^2 underflows
     "field 'mass': must be 0 or at least 1e-150"),
    # the vacuum's deleted n_max, in the slot of a row whose message the row above keeps
    ("minkowski_vacuum", {"n_max": 2}, "unknown field 'n_max'"),
    ("kg_wavepacket", {"mass": 1e-200}, "field 'mass': must lie between 1e-150 and 1e150"),
    ("epr_collapse", {"seed": 2**128}, "field 'seed': must be below 2**128"),
    ("minkowski_vacuum", {"seed": 2**200}, "field 'seed': must be below 2**128"),
    ("rindler_unruh", {"acceleration": 1e-3},  # nu = 3000 at freq_hi
     "field 'freq_hi': freq_hi/acceleration must be at most 100"),
    ("rindler_unruh", {"acceleration": 1e-300},
     "field 'freq_hi': freq_hi/acceleration must be at most 100"),
    ("rindler_unruh", {"acceleration": 1e300},  # nu = 1e-301 at freq_lo
     "field 'freq_lo': freq_lo/acceleration must be at least 1e-100"),
    ("epr_collapse", {"box_side": 1e200, "station_separation": 4e199},  # |dx|^2 overflows
     "field 'box_side': must lie between 1e-100 and 1e100"),
    ("epr_collapse", {"box_side": 1e-120, "station_separation": 4e-121},
     "field 'box_side': must lie between 1e-100 and 1e100"),
    ("epr_collapse", {"measurement_time": 0.5}, "unknown field 'measurement_time'"),
    ("rindler_unruh", {"n_max": 48}, "unknown field 'n_max'"),
    ("rindler_unruh", {"box_side": 314.1592653589793}, "unknown field 'box_side'"),
    ("rindler_unruh", {"freq_lo": 1.0, "freq_hi": 1.00000000000001, "n_frequencies": 100},
     "field 'n_frequencies': too many frequencies between freq_lo and freq_hi"),
    ("rindler_unruh", {"n_frequencies": 1_000_001},
     "field 'n_frequencies': must be at most 1000000"),
    ("epr_collapse", {"tol": 0.0}, "unknown field 'tol'"),
    ("page_geilker", {"measurement_time": 1.0}, "unknown field 'measurement_time'"),
    ("page_geilker", {"tol": 0.0}, "unknown field 'tol'"),
    # the station rule at in-range box sides: the stations round to one point
    ("epr_collapse", {"box_side": 1e50},
     "field 'station_separation': too small to separate the stations at this box_side"),
    ("epr_collapse", {"box_side": 1e-100, "station_separation": 1e-170},
     "field 'station_separation': too small to separate the stations at this box_side"),
]


@pytest.mark.parametrize("name, changes, message", CONFIG_MESSAGES)
def test_config_error_messages_are_exact(name, changes, message):
    cfg = default_config(name)
    for key, value in changes.items():
        if value is _DROP:
            del cfg[key]
        else:
            cfg[key] = value
    with pytest.raises(ScenarioConfigError) as exc:
        validate_config(name, cfg)
    assert str(exc.value) == message


# ---- field records ---------------------------------------------------------------

# (scenario, field) of every schema record with a bound
_BOUNDED = [(name, key) for name, scenario in _SCENARIOS.items()
            for key, rec in scenario.schema.items() if rec.lo is not None or rec.hi is not None]


def _of_kind(rec, x):
    """x as a value of the record's kind: an increasing list holds x among entries
    strictly inside the bounds."""
    if rec.kind != "increasing":
        return x
    return sorted({x, *np.geomspace(rec.lo, rec.hi, rec.min_len + 2)[1:-1].tolist()})


def _beyond(rec, side):
    """Values past the lower (side 0) or upper (side 1) bound that pass the sign test."""
    bound = (rec.lo, rec.hi)[side]
    if rec.kind == "integer":
        return st.integers(max_value=bound - 1) if side == 0 else st.integers(min_value=bound + 1)
    if side == 0:
        return st.floats(0.0, math.nextafter(bound, 0.0), exclude_min=True)
    return st.floats(math.nextafter(bound, math.inf), allow_infinity=False)


@pytest.mark.parametrize("name, key", _BOUNDED, ids=[f"{n}-{k}" for n, k in _BOUNDED])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_field_record_accepts_its_bounds_and_rejects_beyond(name, key, data):
    """Each bound of each record is accepted; the next float (or integer) beyond it,
    and any drawn value beyond it, fail with the record's message naming the field."""
    schema = _SCENARIOS[name].schema
    rec = schema[key]
    integer = rec.kind == "integer"
    inside = (st.integers(rec.lo, rec.hi) if integer
              else st.floats(rec.lo or 0.0, rec.hi, exclude_min=rec.lo is None))
    if rec.zero:
        assert _field(schema, key, 0.0) == 0.0
    assert _field(schema, key, _of_kind(rec, data.draw(inside))) is not None
    prefix = "entries " if rec.kind == "increasing" else ""
    for side, (bound, message) in enumerate(zip((rec.lo, rec.hi), rec.messages)):
        if bound is None:
            continue
        _field(schema, key, _of_kind(rec, bound))
        step = (-1, 1)[side]
        edge = bound + step if integer else math.nextafter(bound, step * math.inf)
        for past in (edge, data.draw(_beyond(rec, side))):
            with pytest.raises(ScenarioConfigError) as exc:
                _field(schema, key, _of_kind(rec, past))
            assert str(exc.value) == f"field {key!r}: {prefix}{message}"


def test_every_field_record_option_is_set_by_some_record():
    """Each ``_Field`` option but ``kind`` is set away from its default by a schema
    record or by ``_SCAN_VALUES``: an option that no value reads does not stay."""
    records = [rec for scenario in _SCENARIOS.values() for rec in scenario.schema.values()]
    records.append(_SCAN_VALUES)
    unused = [option.name for option in dataclasses.fields(_Field) if option.name != "kind"
              and all(getattr(rec, option.name) == option.default for rec in records)]
    assert unused == []


UNKNOWN = ("unknown scenario 'warp_drive'; choose from eds_cosmology, eds_fit, epr_collapse, "
           "kg_wavepacket, minkowski_particle, minkowski_vacuum, page_geilker, rindler_unruh")

# (call, the exact ScenarioConfigError text)
API_MESSAGES = [
    (lambda: validate_config("warp_drive", {}), UNKNOWN),
    (lambda: default_config("warp_drive"), UNKNOWN),
    (lambda: validate_config("minkowski_vacuum", [1, 2, 3]), "config must be a JSON object"),
    (lambda: run_scenario("eds_cosmology", trials=10),
     "scenario 'eds_cosmology' has no trial count to override"),
    (lambda: run_scenario("page_geilker", trials=0), "field 'n_trials': must be an integer >= 1"),
    (lambda: run_scenario("page_geilker", trials=-3), "field 'n_trials': must be an integer >= 1"),
    (lambda: run_scenario("page_geilker", trials=2.5), "field 'n_trials': must be an integer"),
    (lambda: run_scenario("eds_cosmology", seed=-1),
     "field 'seed': must be a non-negative integer"),
    (lambda: run_scenario("eds_cosmology", seed="3"), "field 'seed': must be an integer"),
    (lambda: run_scenario("eds_cosmology", seed=True), "field 'seed': must be an integer"),
    (lambda: run_scenario("epr_collapse", seed=2**128), "field 'seed': must be below 2**128"),
    # scan values, through the one record both scans check them with
    *((lambda name=name, values=values: scan_scenario(name, _SCAN_CONFIGS[name], SCANS[name],
                                                      values), f"field 'values': {message}")
      for name in ("minkowski_particle", "eds_cosmology")
      for values, message in [([10, 20, math.inf], "must be finite"),
                              ([10, 20, math.nan], "must be finite"),
                              ([10, 20, True], "must be a number"),
                              ([10, 20], "must be a list of at least 3 numbers"),
                              ([30, 20, 40], "entries must be strictly increasing"),
                              ([0, 20, 40], "entries must be positive")]),
    # the values are named before the observable's own errors, the 3-D V scan's among them
    (lambda: scan_scenario("minkowski_particle", None, "V", [10.0, 20.0]),
     "field 'values': must be a list of at least 3 numbers"),
    # the V0 scan checks its volumes with eds_fit's scaling_volumes record
    (lambda: scan_scenario("eds_cosmology", None, "V0", [1e-300, 1.0, 2.0]),
     "field 'values': entries must lie between 1e-149 and 1e150"),
    (lambda: scan_scenario("eds_cosmology", None, "V0", [1.0, 2.0, 1e160]),
     "field 'values': entries must lie between 1e-149 and 1e150"),
]


@pytest.mark.parametrize("call, message", API_MESSAGES)
def test_api_error_messages_are_exact(call, message):
    with pytest.raises(ScenarioConfigError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("name", sorted(_SCAN_CONFIGS))
def test_scan_values_may_be_a_tuple_or_a_numpy_array(name):
    values = _SCAN_RUNS[name][1]
    forms = [list(values), tuple(values), np.array(values)]
    if all(v.is_integer() for v in values):  # the V scan's volumes, also as an integer array
        forms.append(np.array(values, dtype=np.int64))
    reports = [emit(scan_scenario(name, _SCAN_CONFIGS[name], SCANS[name], v), "json")
               for v in forms]
    assert reports == [reports[0]] * len(forms)


def test_largest_seed_runs(capsys):
    """2**128 - 1, the largest Philox key, is valid through config, API and CLI."""
    seed = 2**128 - 1
    cfg = dict(default_config("page_geilker"), seed=seed)
    assert validate_config("page_geilker", cfg)["seed"] == seed
    assert run_scenario("epr_collapse", seed=seed, trials=100).passed
    assert main(["run", "page_geilker", "--seed", str(seed), "--trials", "100"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == seed


def _write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


# (argv, where {tmp} is the test's directory, the exact stderr after "error: ")
CLI_MESSAGES = [
    (["run", "minkowski_vacuum", "--config", "{tmp}/missing.json"],
     "cannot read config file: [Errno 2] No such file or directory: '{tmp}/missing.json'"),
    (["run", "minkowski_vacuum", "--config", "{tmp}/notjson.json"],
     "config is not valid JSON: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    (["run", "minkowski_vacuum", "--config", "{tmp}/negative.json"],
     "field 'box_side': must be positive"),
    (["run", "minkowski_vacuum", "--out", "{tmp}/no_dir/out.json"],
     "[Errno 2] No such file or directory: '{tmp}/no_dir/out.json'"),
    (["run", "eds_cosmology", "--trials", "5"],
     "scenario 'eds_cosmology' has no trial count to override"),
    (["run", "epr_collapse", "--trials", "0"], "field 'n_trials': must be an integer >= 1"),
    (["run", "eds_cosmology", "--seed", "-1"], "field 'seed': must be a non-negative integer"),
    (["scan", "eds_cosmology", "--param", "V0", "--values", "a,b,c"],
     "field 'values': must be comma-separated numbers"),
    (["scan", "eds_cosmology", "--param", "V0", "--values", "1,2"],
     "field 'values': must be a list of at least 3 numbers"),
    (["scan", "eds_cosmology", "--param", "V", "--values", "1,2,3"],
     "field 'param': eds_cosmology scans over V0"),
    (["scan", "minkowski_particle", "--param", "V0", "--values", "1,2,3",
      "--config", "{tmp}/mp1.json"],
     "field 'param': minkowski_particle scans over V"),
    (["scan", "minkowski_particle", "--param", "V", "--values", "10,20,40"],
     "field 'dimension': scanning over V requires dimension 1"),
    (["scan", "eds_cosmology", "--param", "V0", "--values", "30,20,40"],
     "field 'values': entries must be strictly increasing"),
    (["scan", "minkowski_particle", "--param", "V", "--values", "0,20,40",
      "--config", "{tmp}/mp1.json"],
     "field 'values': entries must be positive"),
    (["scan", "minkowski_particle", "--param", "V", "--values", "0.1,0.2,0.3",
      "--config", "{tmp}/mp1.json"],
     "field 'values': volume too small to hold the reference wavevector"),
    (["scan", "eds_cosmology", "--param", "V0", "--values", "1,2,3",
      "--config", "{tmp}/negative.json"],
     "unknown field 'box_side'"),
    (["run", "epr_collapse", "--config", "{tmp}/epr_far.json"],
     "field 'box_side': must lie between 1e-100 and 1e100"),
    (["run", "epr_collapse", "--config", "{tmp}/epr_close.json"],
     "field 'station_separation': too small to separate the stations at this box_side"),
    (["run", "epr_collapse", "--config", "{tmp}/epr_sphere.json"],
     "unknown field 'sphere_width'"),
    (["run", "page_geilker", "--config", "{tmp}/pg_wide.json"],
     "field 'sphere_width': must lie between 1e-150 and 1e150"),
    (["run", "minkowski_vacuum", "--config", "{tmp}/mv_heavy.json"], "unknown field 'mass'"),
    (["run", "minkowski_particle", "--config", "{tmp}/mp_heavy.json"],
     "field 'mass': must be at most 1e150"),
    (["run", "kg_wavepacket", "--config", "{tmp}/kg_heavy.json"],
     "field 'mass': must lie between 1e-150 and 1e150"),
    (["run", "eds_cosmology", "--config", "{tmp}/eds_early.json"],
     "field 't_grid': entries must lie between 1e-75 and 1e75"),
    (["run", "eds_cosmology", "--config", "{tmp}/eds_late.json"],
     "field 't_grid': entries must lie between 1e-75 and 1e75"),
    (["run", "eds_fit", "--config", "{tmp}/fit_early.json"],
     "field 't_grid': entries must lie between 1e-75 and 1e75"),
    (["run", "page_geilker", "--config", "{tmp}/pg_narrow.json"],
     "field 'sphere_width': narrower than the probe spacing box_side/(n_probes-1)"),
    (["run", "minkowski_particle", "--config", "{tmp}/mp_light.json"],
     "field 'mass': must be 0 or at least 1e-150"),
    (["run", "kg_wavepacket", "--config", "{tmp}/kg_light.json"],
     "field 'mass': must lie between 1e-150 and 1e150"),
    (["run", "epr_collapse", "--seed", str(2**128)], "field 'seed': must be below 2**128"),
    (["run", "page_geilker", "--config", "{tmp}/pg_seed.json"],
     "field 'seed': must be below 2**128"),
    (["run", "rindler_unruh", "--config", "{tmp}/ru_slow.json"],
     "field 'freq_hi': freq_hi/acceleration must be at most 100"),
    (["run", "rindler_unruh", "--config", "{tmp}/ru_slowest.json"],
     "field 'freq_hi': freq_hi/acceleration must be at most 100"),
    (["run", "epr_collapse", "--config", "{tmp}/epr_huge.json"],
     "field 'box_side': must lie between 1e-100 and 1e100"),
    (["run", "epr_collapse", "--config", "{tmp}/epr_timed.json"],
     "unknown field 'measurement_time'"),
    (["scan", "eds_cosmology", "--param", "V0", "--values", "10,,20,30"],
     "field 'values': must be comma-separated numbers"),
    (["run", "rindler_unruh", "--config", "{tmp}/ru_near.json"],
     "field 'n_frequencies': too many frequencies between freq_lo and freq_hi"),
    (["run", "page_geilker", "--config", "{tmp}/pg_tol.json"], "unknown field 'tol'"),
    (["run", "epr_collapse", "--config", "{tmp}/epr_wide.json"],
     "field 'station_separation': too small to separate the stations at this box_side"),
    (["scan", "eds_cosmology", "--param", "V0", "--values", "1e-300,1,2"],
     "field 'values': entries must lie between 1e-149 and 1e150"),
    (["scan", "eds_cosmology", "--param", "V0", "--values", "1,2,1e160"],
     "field 'values': entries must lie between 1e-149 and 1e150"),
    (["run", "minkowski_particle", "--format", "csv"],
     "field 'out': CSV writes one file per table, so --format csv needs --out"),
    (["scan", "eds_cosmology", "--param", "V0", "--values", "18.85,188.5,1885",
      "--format", "csv"],
     "field 'out': CSV writes one file per table, so --format csv needs --out"),
]

# config files the CLI cases read: file stem -> (scenario, changes to its packaged config)
CLI_CONFIGS = {
    "negative": ("minkowski_vacuum", {"box_side": -1}),
    "mp1": ("minkowski_particle", {"dimension": 1, "mode_label": [1]}),
    "epr_far": ("epr_collapse", {"box_side": 1e300}),
    "epr_close": ("epr_collapse", {"station_separation": 1e-320}),
    "epr_sphere": ("epr_collapse", {"sphere_width": 0.3}),
    "pg_wide": ("page_geilker", {"sphere_width": 1e200}),
    "mv_heavy": ("minkowski_vacuum", {"mass": 1e300}),
    "mp_heavy": ("minkowski_particle", {"mass": 1e300}),
    "kg_heavy": ("kg_wavepacket", {"mass": 1e300}),
    "eds_early": ("eds_cosmology", {"t_grid": [1e-300, 1.0]}),
    "eds_late": ("eds_cosmology", {"t_grid": [1.0, 1e300]}),
    "fit_early": ("eds_fit", {"t_grid": [1e-300]}),
    "pg_narrow": ("page_geilker", {"sphere_width": 1e-4}),
    "mp_light": ("minkowski_particle", {"mass": 1e-200, "mode_label": [0, 0, 0]}),
    "kg_light": ("kg_wavepacket", {"mass": 1e-200}),
    "pg_seed": ("page_geilker", {"seed": 2**128}),
    "ru_slow": ("rindler_unruh", {"acceleration": 1e-3}),
    "ru_slowest": ("rindler_unruh", {"acceleration": 1e-300}),
    "epr_huge": ("epr_collapse", {"box_side": 1e200, "station_separation": 4e199}),
    "epr_timed": ("epr_collapse", {"measurement_time": 0.5}),
    "ru_near": ("rindler_unruh", {"freq_lo": 1.0, "freq_hi": 1.00000000000001,
                                  "n_frequencies": 100}),
    "pg_tol": ("page_geilker", {"tol": 0.0}),
    "epr_wide": ("epr_collapse", {"box_side": 1e50}),
}


@pytest.mark.parametrize("argv, message", CLI_MESSAGES)
def test_cli_error_messages_are_exact(argv, message, tmp_path, capsys):
    (tmp_path / "notjson.json").write_text("{")
    for stem, (name, changes) in CLI_CONFIGS.items():
        _write_json(tmp_path / f"{stem}.json", dict(default_config(name), **changes))
    rc = main([a.format(tmp=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {message.format(tmp=tmp_path)}\n"


# ---- hostile input -------------------------------------------------------------

# JSON scalars, with integers beyond the float range (>= 2**1024) drawn on purpose
_JSON_SCALARS = (st.none() | st.booleans() | st.text(max_size=5)
                 | st.floats(allow_nan=True, allow_infinity=True)
                 | st.integers()
                 | st.integers(min_value=2**1023, max_value=2**1100)
                 | st.integers(min_value=-2**1100, max_value=-2**1023))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_arbitrary_json_fields_only_raise_config_errors(data):
    name = data.draw(st.sampled_from(SCENARIO_NAMES))
    cfg = default_config(name)
    keys = data.draw(st.lists(st.sampled_from(sorted(cfg)), min_size=1, max_size=3, unique=True))
    for key in keys:
        cfg[key] = data.draw(_JSON_VALUES)
    try:
        out = validate_config(name, cfg)
    except ScenarioConfigError:
        return
    assert isinstance(out, dict)


# caps on the fields that set a run's size, so that a draw runs in milliseconds
_FUZZ_CAPS = {"n_events": 50, "n_max": 6, "n_trials": 500, "n_probes": 50, "lattice_points": 8,
              "profile_points": 50, "integration_points": 50, "n_frequencies": 50}


def _fuzz_number(rng, rec, packaged):
    """Log-uniform over the record's range within 1e-300..1e300, near the packaged
    value, a few ulps off it, or 0 where the record admits it."""
    how = rng.integers(4)
    if how == 0:
        lo, hi = math.log10(max(rec.lo or 1e-300, 1e-300)), math.log10(min(rec.hi or 1e300, 1e300))
        return float(10.0 ** rng.uniform(lo, hi))
    if how == 1:
        return float(packaged * 10.0 ** rng.uniform(-1.0, 1.0))
    if how == 2 or not rec.zero:
        return float(packaged * (1.0 + int(rng.integers(-4, 5)) * 2**-52))
    return 0.0


def _fuzz_increasing(rng, rec, packaged):
    """A strictly increasing list from a drawn first entry, its steps a few ulps
    or up to three decades."""
    v = [_fuzz_number(rng, rec, packaged[0])]
    ulps = rng.integers(2) == 0
    for _ in range(int(rng.integers(rec.min_len, rec.min_len + 3)) - 1):
        step = (math.nextafter(v[-1], math.inf) - v[-1]) * int(rng.integers(1, 4)) if ulps \
            else v[-1] * (10.0 ** rng.uniform(0.0, 3.0) - 1.0)
        v.append(v[-1] + step)
    return v


def _fuzz_config(rng, name):
    """A config that keeps each packaged value or draws it from the field's record,
    the count fields capped by ``_FUZZ_CAPS``."""
    cfg = default_config(name)
    for key, rec in _SCENARIOS[name].schema.items():
        if rng.random() < 0.4:
            continue
        if key == "seed":
            cfg[key] = int(rng.choice([0, 2**128 - 1, int(rng.integers(2**63))]))
        elif rec.kind == "integer":
            cfg[key] = int(rng.integers(rec.lo, _FUZZ_CAPS.get(key, rec.hi) + 1))
        elif rec.kind == "number":
            cfg[key] = _fuzz_number(rng, rec, cfg[key])
        elif rec.kind == "increasing":
            cfg[key] = _fuzz_increasing(rng, rec, cfg[key])
    if "mode_label" in cfg:  # one label per dimension inside the cutoff, most of the time
        n = min(cfg["n_max"], _FUZZ_CAPS["n_max"])
        cfg["mode_label"] = rng.integers(-n, n + 1, size=cfg["dimension"]).tolist()
    cfg.update((key, min(cfg[key], cap)) for key, cap in _FUZZ_CAPS.items() if key in cfg)
    return cfg


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_valid_config_fuzz_raises_nothing_but_config_errors(seed):
    """Seeded configs of all eight scenarios, drawn from each field's record with the
    size fields capped, either run or exit as a config error; every warning is an
    error, so numpy's rank and floating-point warnings fail the draw too."""
    rng = np.random.default_rng(seed)
    ran = dict.fromkeys(SCENARIO_NAMES, 0)
    for _ in range(150):
        name = SCENARIO_NAMES[rng.integers(len(SCENARIO_NAMES))]
        cfg = _fuzz_config(rng, name)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                run_scenario(name, cfg)
        except ScenarioConfigError:
            continue
        except Exception as exc:
            pytest.fail(f"{name} {json.dumps(cfg)}: {type(exc).__name__}: {exc}")
        ran[name] += 1
    assert all(ran.values()), ran  # each scenario ran some draw to its end


@pytest.mark.parametrize("field", ["box_side", "t_grid", "scaling_volumes"])
def test_integer_beyond_float_range_is_not_finite(field):
    name = {"box_side": "minkowski_vacuum", "t_grid": "eds_cosmology",
            "scaling_volumes": "eds_fit"}[field]
    huge = 2**1024
    cfg = dict(default_config(name), **{field: huge if field == "box_side" else [1, 2, huge]})
    with pytest.raises(ScenarioConfigError) as exc:
        validate_config(name, cfg)
    assert str(exc.value) == f"field {field!r}: must be finite"


_SCANS = [("minkowski_particle", "V"), ("eds_cosmology", "V0")]


@pytest.mark.parametrize("values", ["10,20,inf", "10,20,1e308", "10,20,nan", "10,-inf,30",
                                    "10,20,1e400", "0.1,0.2,0.3"])
@pytest.mark.parametrize("scenario, param", _SCANS)
def test_bad_scan_values_exit_2_naming_values(scenario, param, values, tmp_path, capsys):
    if scenario == "eds_cosmology" and values == "0.1,0.2,0.3":
        # a valid V0 scan: small volumes are legitimate for the dust cosmology
        assert main(["scan", scenario, "--param", param, "--values", values]) == 0
        capsys.readouterr()
        return
    path = _write_json(tmp_path / "mp1.json",
                       dict(default_config("minkowski_particle"), dimension=1, mode_label=[1]))
    argv = ["scan", scenario, "--param", param, "--values", values]
    if scenario == "minkowski_particle":
        argv += ["--config", path]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: field 'values': ")
    assert err.count("field 'values'") == 1
    assert "Traceback" not in err
    if "inf" in values or "nan" in values or "1e400" in values:
        assert err == "error: field 'values': must be finite\n"
    elif values == "10,20,1e308":  # finite, but 2 w V overflows (V) or beyond the record (V0)
        reason = {"V": "overflow encountered in multiply",
                  "V0": "entries must lie between 1e-149 and 1e150"}[param]
        assert err == f"error: field 'values': {reason}\n"


_BOUNDED = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))  # 1 GiB, this process only
"""
_BOUNDED_CLI = _BOUNDED + """
from semigrav.cli import build_parser, main
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start, file=sys.stderr)
sys.exit(code)
"""


def _run_bounded(args, timeout, code=_BOUNDED_CLI):
    """``code`` (by default the CLI, whose last stderr line is the seconds ``main``
    took) in a child process under 1 GiB of address space."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=timeout, env=env)


def test_v_scan_to_a_huge_box_runs_in_bounded_memory(tmp_path):
    """At V = 1e9 the scanned quantum has n = 1e8: only that one mode is built."""
    path = _write_json(tmp_path / "mp1.json",
                       dict(default_config("minkowski_particle"), dimension=1, mode_label=[1]))
    proc = _run_bounded(["scan", "minkowski_particle", "--param", "V",
                         "--values", "10,20,1e9", "--config", path], timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stderr.splitlines()[-1]) < 1.0
    payload = json.loads(proc.stdout)
    volume, residual = payload["tables"]["scaling"]["rows"][-1]
    assert volume == 1e9 and residual > 0.0
    assert payload["flags"] == {"slope_defined": True}


def test_one_quantum_in_a_3d_box_of_5e8_modes_runs_fast_in_bounded_memory(tmp_path):
    """n_max 400 in 3-D is 801^3 = 5.1e8 modes; the state occupies one of them."""
    path = _write_json(tmp_path / "mp400.json", dict(default_config("minkowski_particle"),
                                                     n_max=400, mode_label=[1, 0, 0]))
    proc = _run_bounded(["run", "minkowski_particle", "--config", path], timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stderr.splitlines()[-1]) < 0.1
    payload = json.loads(proc.stdout)
    assert payload["flags"] and all(payload["flags"].values())


def test_vacuum_in_a_3d_box_of_5e8_modes_runs_in_bounded_memory():
    """n_max 400 in 3-D is 801^3 = 5.1e8 modes; the vacuum occupies none of them."""
    code = _BOUNDED + """
from semigrav import minkowski_basis, new_vacuum, residual
state = new_vacuum(minkowski_basis(10.0, 3, 1.0, 400))
print(residual(state, [0.0, 0.5], [[0.0, 0.0, 0.0], [2.5, 5.0, 7.5]]).global_max)
"""
    proc = _run_bounded([], timeout=120, code=code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0.0\n"


def test_rindler_at_n_frequencies_20000_runs_fast_in_bounded_memory(tmp_path):
    """20,000 wedge rows: each is one closed-form sum, formed in one vector pass."""
    path = _write_json(tmp_path / "ru.json",
                       dict(default_config("rindler_unruh"), n_frequencies=20000))
    proc = _run_bounded(["run", "rindler_unruh", "--config", path], timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stderr.splitlines()[-1]) < 10.0
    payload = json.loads(proc.stdout)
    assert payload["flags"] and all(payload["flags"].values())


def test_eds_fit_with_a_tol_below_float_spacing_finishes(tmp_path):
    """fit_tol 1e-300 is valid; the search ends once the bracket stops shrinking."""
    path = _write_json(tmp_path / "fit.json", dict(default_config("eds_fit"), fit_tol=1e-300))
    proc = _run_bounded(["run", "eds_fit", "--config", path], timeout=60)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["flags"]["fit_recovers_mass"]


@pytest.mark.parametrize("values", ["-1,2,3", "--x"])
def test_scan_values_stopped_by_argparse_keep_the_usage_error(values, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "eds_cosmology", "--param", "V0", "--values", values])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: semigrav scan")


def test_scan_capability_comes_from_the_registry():
    assert SCANS == {"minkowski_particle": "V", "eds_cosmology": "V0"}
    with pytest.raises(ScenarioConfigError) as exc:
        scan_scenario("kg_wavepacket", None, "V", [1.0, 2.0, 3.0])
    assert str(exc.value) == "scenario 'kg_wavepacket' has no volume scan"


def test_scan_scenario_matches_eds_fit_scaling_tables():
    cfg = default_config("eds_fit")
    fit = run_scenario("eds_fit", config=dict(cfg, fit_tol=1e-3))
    scan = scan_scenario("eds_cosmology", None, "V0", cfg["scaling_volumes"])
    for table in ("scaling", "scaling_slope"):
        assert scan.tables[table] == fit.tables[table]


# ---- module boundaries -----------------------------------------------------------

def test_package_imports_numpy_only():
    """scipy and sympy are test oracles; the package itself must not load them."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = ("import sys, semigrav, semigrav.cli\n"
             "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'sympy'}))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_no_module_imports_a_private_name_from_a_sibling():
    package = Path(__file__).resolve().parents[1] / "src" / "semigrav"
    leaks = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("semigrav"):
                continue
            leaks += [f"{path.name}: {alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    assert leaks == []


def _definition_span(tree, name):
    """First and last line of the top-level statement that defines ``name``, if any."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names = {getattr(node, "name", None)} | {getattr(t, "id", None) for t in targets}
        if name in names:
            return node.lineno, node.end_lineno
    return None


def _names_read(tree, skip=None) -> set:
    """Every name and attribute in ``tree`` outside the line span ``skip``."""
    found = set()
    for node in ast.walk(tree):
        if skip and skip[0] <= getattr(node, "lineno", 0) <= skip[1]:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def _public_methods(tree):
    """(class, method, definition span) of every public method and property
    defined in the top-level classes of ``tree``."""
    return [(cls.name, fn.name, (fn.lineno, fn.end_lineno))
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]


def test_every_public_name_has_a_user():
    """A name bound in semigrav/__init__.py or listed in a module's __all__, or
    a public method or property of a class the package defines, is bound in
    its module and read by a package module outside its own definition, by
    bench/ or by the acceptance gate."""
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "semigrav"

    def parse(path):
        return ast.parse(path.read_text(encoding="utf-8"))

    exports = {(alias.asname or alias.name, node.module)
               for node in parse(package / "__init__.py").body
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names}
    modules = {path.stem: parse(path) for path in package.glob("*.py")
               if path.stem != "__init__"}
    unbound = []
    for stem in modules:  # bench/tracing.py reads every __all__ entry with getattr
        module = importlib.import_module(f"semigrav.{stem}")
        exports |= {(name, stem) for name in module.__all__}
        unbound += [f"{stem}.{name}" for name in module.__all__ if not hasattr(module, name)]
    assert unbound == []
    outside = set().union(*(_names_read(parse(path)) for path in
                            [*sorted((root / "bench").glob("*.py")),
                             root / "tests" / "test_acceptance.py"]))

    def read(name, home, span):
        return name in outside or any(name in _names_read(tree, span if stem == home else None)
                                      for stem, tree in modules.items())

    unread = {name for name, home in exports
              if not read(name, home, _definition_span(modules[home], name))}
    unread |= {f"{cls}.{name}" for home, tree in modules.items()
               for cls, name, span in _public_methods(tree) if not read(name, home, span)}
    assert sorted(unread) == []


# public functions that take a state together with its basis or backend, each kept on purpose
_RESTATING_NAMES = {
    "integrated_energy": "bench/workloads.py calls it as (state, basis, backend, t, points)",
}


def _public_functions():
    """(name, function) of every function in a module's ``__all__``, and
    (``Class.method``, function) of every public method of a class there."""
    package = Path(__file__).resolve().parents[1] / "src" / "semigrav"
    for stem in sorted(path.stem for path in package.glob("*.py") if path.stem != "__init__"):
        module = importlib.import_module(f"semigrav.{stem}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                yield name, obj
            elif inspect.isclass(obj):
                yield from ((f"{name}.{attr}", fn) for attr, fn in vars(obj).items()
                            if inspect.isfunction(fn) and not attr.startswith("_"))


def test_no_public_function_takes_a_state_with_its_basis_or_backend():
    """A state carries its basis and the basis its backend, so a call that takes
    the state reads them there; an exemption that no longer restates them is stale."""
    restating = {name for name, fn in _public_functions()
                 if "state" in (params := inspect.signature(fn).parameters)
                 and ("basis" in params or "backend" in params)}
    assert sorted(restating) == sorted(_RESTATING_NAMES)
