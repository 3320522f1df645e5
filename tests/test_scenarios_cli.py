"""Scenario configs, runners, and the command-line front end."""
import argparse
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semigrav.cli import build_parser, main
from semigrav.report import emit
from semigrav.scenarios import (
    SCANS,
    SCENARIO_NAMES,
    ScenarioConfigError,
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


def test_run_scenario_is_deterministic():
    a = run_scenario("eds_cosmology")
    b = run_scenario("eds_cosmology")
    assert emit(a, "json") == emit(b, "json")


def test_kg_wavepacket_walks_the_moments_once(monkeypatch):
    """The profile, the probes and the energy lattice share one stress_field call,
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


def test_rindler_non_finite_spectrum_fails_every_flag(tmp_path, capsys):
    """box_side 1e-320 puts k = 2 pi n / L at infinity, so every row is NaN."""
    path = _write_json(tmp_path / "ru.json",
                       dict(default_config("rindler_unruh"), box_side=1e-320))
    with np.errstate(all="ignore"):
        rc = main(["run", "rindler_unruh", "--config", path])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert rc == 1
    assert list(payload["tables"]) == ["normalization", "spectrum"]
    assert payload["flags"] and not any(payload["flags"].values())
    # one line per failed flag, in the report's flag order
    assert captured.err == ("flag 'thermal_within_1pct' failed\n"
                            "flag 'rows_normalized' failed\n"
                            "flag 'occupancy_positive' failed\n")


@pytest.mark.parametrize("changes", [
    dict(freq_lo=1e-15, freq_hi=2e-15),
    dict(freq_lo=1e-20, freq_hi=2e-20),
    dict(acceleration=2.84e95, box_side=6.54e-95, freq_lo=9.19e96, freq_hi=1.38e97,
         n_max=3, n_frequencies=2),
], ids=["nu-1e-15", "nu-1e-20", "k-omega-1e192"])
def test_rindler_row_sums_hold_at_extreme_nu_and_scale(changes, tmp_path, capsys):
    """Near nu = 0, sum w (|alpha|^2 - |beta|^2) would cancel every digit; at
    k omega ~ 1e192, |beta|^2 alone would underflow (nu ~ 48 in the last row)."""
    path = _write_json(tmp_path / "ru.json", dict(default_config("rindler_unruh"), **changes))
    rc = main(["run", "rindler_unruh", "--config", path])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["flags"] and all(payload["flags"].values())
    for _, occupancy, planck, _ in payload["tables"]["spectrum"]["rows"]:
        assert abs(occupancy - planck) <= 1e-12 * planck


def test_rindler_extreme_configs_only_raise_config_errors():
    """Seeded fuzz over [1e-320, 1e308]: a config is either refused or runs.

    Half the draws are log-uniform in all four scales; the other half put
    the frequencies near the acceleration, so that many configs pass the
    nu = w / a rules and reach the runner.  Non-finite values that extreme
    scales produce must fail flags, not raise.
    """
    rng = np.random.default_rng(20201)
    lo, hi = -320.0, np.log10(1.7e308)
    ran = 0
    for i in range(300):
        with np.errstate(all="ignore"):
            scales = 10.0 ** rng.uniform(lo, hi, 4)
            a, box_side = scales[:2]
            freqs = np.sort(scales[2:] if i % 2 else a * 10.0 ** rng.uniform(-105.0, 5.0, 2))
            cfg = dict(acceleration=float(a), box_side=float(box_side),
                       freq_lo=float(freqs[0]), freq_hi=float(freqs[1]),
                       n_max=int(rng.integers(2, 6)), n_frequencies=int(rng.integers(1, 4)),
                       seed=0)
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
    [["run", "warp_drive"], ["run", "minkowski_vacuum", "--format", "csv"]],
], ids=["seed-then-config-seed", "trials-then-config-trials", "usage-error-then-run"])
def test_main_calls_in_one_process_match_fresh_calls(calls, capsys):
    """The shared parser carries nothing from one call into the next."""
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
    ("minkowski_vacuum", {"mass": -1.0}, "field 'mass': must be non-negative"),
    ("minkowski_vacuum", {"n_max": 1.5}, "field 'n_max': must be an integer"),
    ("minkowski_vacuum", {"n_max": 0}, "field 'n_max': must be an integer >= 1"),
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
    ("rindler_unruh", {"n_max": 1}, "field 'n_max': must be an integer >= 2"),
    ("rindler_unruh", {"freq_lo": 3.0, "freq_hi": 3.0}, "field 'freq_hi': must exceed freq_lo"),
    ("epr_collapse", {"station_separation": 10.0, "box_side": 10.0},
     "field 'station_separation': must be smaller than box_side"),
    ("page_geilker", {"box_side": 10.0, "position_a": 10.0, "position_b": 7.0},
     "field 'position_a': sphere positions must lie inside the box"),
    ("page_geilker", {"box_side": 10.0, "position_a": 3.0, "position_b": 10.0},
     "field 'position_b': sphere positions must lie inside the box"),
    ("page_geilker", {"position_a": 3.0, "position_b": 3.0},
     "field 'position_b': positions must differ"),
    ("epr_collapse", {"box_side": 1e300},
     "field 'station_separation': too small to separate the stations at this box_side"),
    ("epr_collapse", {"station_separation": 1e-320},
     "field 'station_separation': too small to separate the stations at this box_side"),
    ("epr_collapse", {"box_side": 1e-250, "station_separation": 1e-260},  # gap^2 underflows
     "field 'station_separation': too small to separate the stations at this box_side"),
    ("epr_collapse", {"sphere_width": 1e-200},
     "field 'sphere_width': must lie between 1e-150 and 1e150"),
    ("epr_collapse", {"sphere_width": 1e200},
     "field 'sphere_width': must lie between 1e-150 and 1e150"),
    ("page_geilker", {"sphere_width": 1e-200},
     "field 'sphere_width': must lie between 1e-150 and 1e150"),
    ("page_geilker", {"sphere_width": 1e200},
     "field 'sphere_width': must lie between 1e-150 and 1e150"),
    ("page_geilker", {"sphere_mass": 1e300, "sphere_width": 1e-150},
     "field 'sphere_width': too narrow for sphere_mass: the peak density overflows"),
    ("minkowski_vacuum", {"mass": 1e300}, "field 'mass': must be at most 1e150"),
    ("minkowski_particle", {"mass": 1e300}, "field 'mass': must be at most 1e150"),
    ("kg_wavepacket", {"mass": 1e300}, "field 'mass': must be at most 1e150"),
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
    ("minkowski_vacuum", {"mass": 1e-200}, "field 'mass': must be 0 or at least 1e-150"),
    ("kg_wavepacket", {"mass": 1e-200}, "field 'mass': must be 0 or at least 1e-150"),
    ("epr_collapse", {"seed": 2**128}, "field 'seed': must be below 2**128"),
    ("minkowski_vacuum", {"seed": 2**200}, "field 'seed': must be below 2**128"),
    ("rindler_unruh", {"acceleration": 1e-3},  # nu = 3000 at freq_hi
     "field 'freq_hi': freq_hi/acceleration must be at most 100"),
    ("rindler_unruh", {"acceleration": 1e-300},
     "field 'freq_hi': freq_hi/acceleration must be at most 100"),
    ("rindler_unruh", {"acceleration": 1e300},  # nu = 1e-301 at freq_lo
     "field 'freq_lo': freq_lo/acceleration must be at least 1e-100"),
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
]


@pytest.mark.parametrize("call, message", API_MESSAGES)
def test_api_error_messages_are_exact(call, message):
    with pytest.raises(ScenarioConfigError) as exc:
        call()
    assert str(exc.value) == message


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
     "field 'values': scaling needs at least 3 values"),
    (["scan", "eds_cosmology", "--param", "V", "--values", "1,2,3"],
     "field 'param': eds_cosmology scans over V0"),
    (["scan", "minkowski_particle", "--param", "V0", "--values", "1,2,3",
      "--config", "{tmp}/mp1.json"],
     "field 'param': minkowski_particle scans over V"),
    (["scan", "minkowski_particle", "--param", "V", "--values", "10,20,40"],
     "field 'dimension': scanning over V requires dimension 1"),
    (["scan", "eds_cosmology", "--param", "V0", "--values", "30,20,40"],
     "field 'values': parameter values must be strictly increasing"),
    (["scan", "minkowski_particle", "--param", "V", "--values", "0,20,40",
      "--config", "{tmp}/mp1.json"],
     "field 'values': parameter values must be positive"),
    (["scan", "minkowski_particle", "--param", "V", "--values", "0.1,0.2,0.3",
      "--config", "{tmp}/mp1.json"],
     "field 'values': volume too small to hold the reference wavevector"),
    (["scan", "eds_cosmology", "--param", "V0", "--values", "1,2,3",
      "--config", "{tmp}/negative.json"],
     "unknown field 'box_side'"),
    (["run", "epr_collapse", "--config", "{tmp}/epr_far.json"],
     "field 'station_separation': too small to separate the stations at this box_side"),
    (["run", "epr_collapse", "--config", "{tmp}/epr_close.json"],
     "field 'station_separation': too small to separate the stations at this box_side"),
    (["run", "epr_collapse", "--config", "{tmp}/epr_thin.json"],
     "field 'sphere_width': must lie between 1e-150 and 1e150"),
    (["run", "page_geilker", "--config", "{tmp}/pg_wide.json"],
     "field 'sphere_width': must lie between 1e-150 and 1e150"),
    (["run", "minkowski_vacuum", "--config", "{tmp}/mv_heavy.json"],
     "field 'mass': must be at most 1e150"),
    (["run", "minkowski_particle", "--config", "{tmp}/mp_heavy.json"],
     "field 'mass': must be at most 1e150"),
    (["run", "kg_wavepacket", "--config", "{tmp}/kg_heavy.json"],
     "field 'mass': must be at most 1e150"),
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
     "field 'mass': must be 0 or at least 1e-150"),
    (["run", "epr_collapse", "--seed", str(2**128)], "field 'seed': must be below 2**128"),
    (["run", "page_geilker", "--config", "{tmp}/pg_seed.json"],
     "field 'seed': must be below 2**128"),
    (["run", "rindler_unruh", "--config", "{tmp}/ru_slow.json"],
     "field 'freq_hi': freq_hi/acceleration must be at most 100"),
    (["run", "rindler_unruh", "--config", "{tmp}/ru_slowest.json"],
     "field 'freq_hi': freq_hi/acceleration must be at most 100"),
]

# config files the CLI cases read: file stem -> (scenario, changes to its packaged config)
CLI_CONFIGS = {
    "negative": ("minkowski_vacuum", {"box_side": -1}),
    "mp1": ("minkowski_particle", {"dimension": 1, "mode_label": [1]}),
    "epr_far": ("epr_collapse", {"box_side": 1e300}),
    "epr_close": ("epr_collapse", {"station_separation": 1e-320}),
    "epr_thin": ("epr_collapse", {"sphere_width": 1e-200}),
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
    elif values == "10,20,1e308":  # finite, but 2 w V (V) or m**2 (V0) overflows
        reason = {"V": "overflow encountered in multiply",
                  "V0": "(34, 'Numerical result out of range')"}[param]
        assert err == f"error: field 'values': {reason}\n"


_BOUNDED_CLI = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))  # 1 GiB, this process only
from semigrav.cli import build_parser, main
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start, file=sys.stderr)
sys.exit(code)
"""


def _run_bounded(args, timeout):
    """The CLI in a child process under 1 GiB of address space; its last stderr line
    is the seconds ``main`` took."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", _BOUNDED_CLI, *args],
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


def test_vacuum_in_a_3d_box_of_5e8_modes_runs_in_bounded_memory(tmp_path):
    path = _write_json(tmp_path / "mv400.json",
                       dict(default_config("minkowski_vacuum"), n_max=400))
    proc = _run_bounded(["run", "minkowski_vacuum", "--config", path], timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_rindler_at_n_max_20000_runs_fast_in_bounded_memory(tmp_path):
    """20,001 box columns: each row is one Gamma factor times a phase per column."""
    path = _write_json(tmp_path / "ru.json", dict(default_config("rindler_unruh"), n_max=20000))
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


# public names that only tests call, each kept on purpose
_ORACLE_NAMES = {
    "project": "the single-trial path that run_trials is checked against",
    "constrained_project": "the causality-gated single trial, the gate's user-facing form",
    "wedge_kg_inner": "the Klein-Gordon norm that checks the Rindler mode normalisation",
}


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


def test_every_public_name_has_a_user():
    """A name bound in semigrav/__init__.py or listed in a module's __all__ is
    bound in that module and read by a package module outside its own
    definition, by bench/, by the acceptance gate, or is a named oracle."""
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
    unused = [name for name, home in sorted(exports)
              if name not in outside and name not in _ORACLE_NAMES
              and not any(name in _names_read(tree, _definition_span(tree, name)
                                              if stem == home else None)
                          for stem, tree in modules.items())]
    assert unused == []
