"""Acceptance gate: one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criteria 5a and 6a check the dust-cosmology quantum against the closed forms
derived from the exact mode f0 = e^{-imt}/(t sqrt(2 m V0)): energy density
m/(V0 t^2) + 1/(2 m V0 t^4), and at the tuned mass m = V0/(6 pi) the residual
max(24 pi^2/(V0^2 t^4), 24 pi^2/(V0^2 t^(8/3))).  The same forms are derived
symbolically by the sympy oracle in
``test_stress_energy.py::test_eds_oracle_closed_forms``.
"""
import time

import numpy as np

from semigrav.bogolubov import bogolubov_coefficients
from semigrav.consistency import fit_parameter, residual, scaling_study
from semigrav.fock import annihilate, create, inner, new_vacuum, superpose
from semigrav.measurement import (
    BranchSet,
    born_probabilities,
    causality_check,
    run_trials,
)
from semigrav.modes import (
    eds_basis,
    minkowski_basis,
)
from semigrav.report import RunReport, Table, emit
from semigrav.scenarios import _spheres, run_scenario
from semigrav.stress_energy import (
    integrated_energy,
    moments,
    stress_field,
    total_energy,
    wavepacket_state,
)

from oracles import eds_one_quantum


def _criterion(tag: str, label: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {tag:>3}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_single_quantum_energy():
    t0 = time.perf_counter()
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=2)
    i = basis.mode_index((1,))
    state = create(new_vacuum(basis), i)
    w = float(basis.frequencies([i])[0])
    e = total_energy(state)
    rel = abs(e - w) / w
    lattice = integrated_energy(state, basis, basis.backend, t=0.0,
                                points_per_axis=2 * basis.n_max + 1)
    rel_lat = abs(lattice - e) / abs(e)
    dt = time.perf_counter() - t0
    _criterion("1", "single-quantum energy w_k exact, lattice integral matches",
               rel <= 1e-12 and rel_lat <= 1e-8 and dt < 1.0,
               f"rel={rel:.1e}, lattice rel={rel_lat:.1e}, {dt:.2f}s")


def test_criterion_2_vacuum_flatness():
    basis = minkowski_basis(box_side=10.0, dimension=3, mass=1.0, n_max=2)
    vac = new_vacuum(basis)
    rng = np.random.default_rng(2024)
    events = [(float(rng.uniform(0, 1)), tuple(rng.uniform(0, 10, 3)))
              for _ in range(100)]
    worst = max(
        np.abs(stress_field(vac, t, [x])[0]).max()
        for t, x in events
    )
    rep = residual(vac, [t for t, _ in events], [x for _, x in events])
    _criterion("2", "vacuum stress zero at 100 random events, residual zero",
               worst <= 1e-12 and rep.global_max == 0.0,
               f"max |T|={worst:.1e}, residual={rep.global_max:.1e}")


def test_criterion_3_large_volume_decay():
    t0 = time.perf_counter()
    volumes = (1.0e3, 1.0e4, 1.0e5)
    k_ref = 2.0 * np.pi / 1.0e3  # pin the physical wavevector across volumes
    densities = []
    for L in volumes:
        n = int(round(k_ref * L / (2.0 * np.pi)))
        basis = minkowski_basis(box_side=L, dimension=1, mass=1.0, n_max=n)
        state = create(new_vacuum(basis), basis.mode_index((n,)))
        densities.append(
            stress_field(state, 0.0, [(0.0,)])[0][(0, 0)]
        )
    slope = float(np.polyfit(np.log(volumes), np.log(densities), 1)[0])
    dt = time.perf_counter() - t0
    _criterion("3", "stress of |k> decays with volume at log-log slope -1",
               abs(slope + 1.0) <= 1e-6 and dt < 5.0,
               f"slope={slope:.9f}, {dt:.2f}s")


def test_criterion_4_wavepacket_localization():
    t0 = time.perf_counter()
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=32)
    psi = wavepacket_state(basis, (5.0,))
    at_center = stress_field(psi, 0.0, [(5.0,)])[0][(0, 0)]
    far = stress_field(psi, 0.0, [(0.0,)])[0][(0, 0)]
    ratio = at_center / abs(far)
    dt = time.perf_counter() - t0
    _criterion("4", "wavepacket energy density peaks at x0 by >10x",
               ratio > 10.0 and dt < 10.0, f"ratio={ratio:.1f}, {dt:.2f}s")


def test_criterion_5a_dust_energy_density_target_form():
    """Target form m/(V0 t^2) + 1/(2 m V0 t^4) at rel. 1e-10.

    The k = 0 mode f0 = e^{-imt}/(t sqrt(2 m V0)) solves
    f'' + (2/t) f' + m^2 f = 0 with unit Klein-Gordon norm over the proper
    volume V0 t^2.  For |1_0> the normal-ordered density is
    <:rho:> = |f0'|^2 + m^2 |f0|^2, and |f0'|^2 = (m^2/t^2 + 1/t^4)/(2 m V0),
    so <:rho:> = m/(V0 t^2) + 1/(2 m V0 t^4): the dust term plus a quantum
    tail.  A doubled tail 1/(m V0 t^4) would miss by 2e-4 relative here.
    """
    mass, v0 = 100.0, 600.0 * np.pi
    one = eds_one_quantum(mass, v0)
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 4.0):
        got = stress_field(one, t, [(0.0, 0.0, 0.0)])[0][(0, 0)]
        target = mass / (v0 * t**2) + 1.0 / (2.0 * mass * v0 * t**4)
        worst = max(worst, abs(got - target) / abs(target))
    _criterion("5a", "dust T_00 matches m/(V0 t^2) + 1/(2 m V0 t^4) @ rel 1e-10",
               worst <= 1e-10, f"worst rel={worst:.3e}")


def test_criterion_5b_dust_off_diagonals_vanish():
    mass, v0 = 100.0, 600.0 * np.pi
    one = eds_one_quantum(mass, v0)
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 4.0):
        sample = stress_field(one, t, [(0.0, 0.0, 0.0)])[0]
        for mu in range(4):
            for nu in range(4):
                if mu != nu:
                    worst = max(worst, abs(sample[(mu, nu)]))
    _criterion("5b", "dust stress off-diagonals vanish @ 1e-12",
               worst <= 1e-12, f"worst |T_mn|={worst:.1e}")


def test_criterion_6a_dust_residual_target_form():
    """Residual target max(24 pi^2/(V0^2 t^4), 24 pi^2/(V0^2 t^(8/3))) at
    rel. 1e-8 with m = V0/(6 pi), evaluated at t = 1.

    G_00 = 4/(3 t^2) cancels the dust term 8 pi m/(V0 t^2) at the tuned
    mass, leaving 8 pi times the quantum tail 1/(2 m V0 t^4) of criterion 5a:
    24 pi^2/(V0^2 t^4).  The pressure <:p:> = |f0'|^2 - m^2 |f0|^2
    = 1/(2 m V0 t^4) faces G_ij = 0 and leaves 8 pi t^(4/3) <:p:>
    = 24 pi^2/(V0^2 t^(8/3)) on each spatial diagonal.  The sup norm is the
    larger of the two; at t = 1 they are equal.
    """
    t = 1.0
    worst = 0.0
    for v0 in (6.0 * np.pi, 60.0 * np.pi, 600.0 * np.pi):
        one = eds_one_quantum(v0 / (6.0 * np.pi), v0)
        got = residual(one, t, [[0.0, 0.0, 0.0]]).global_max
        target = max(24.0 * np.pi**2 / (v0**2 * t**4),
                     24.0 * np.pi**2 / (v0**2 * t ** (8.0 / 3.0)))
        worst = max(worst, abs(got - target) / target)
    _criterion("6a", "residual matches max(24 pi^2/(V0^2 t^4), "
                     "24 pi^2/(V0^2 t^(8/3))) at t = 1 @ rel 1e-8",
               worst <= 1e-8, f"worst rel={worst:.3e}")


def test_criterion_6b_residual_scaling_slope():
    volumes = (6.0 * np.pi, 60.0 * np.pi, 600.0 * np.pi)

    def observable(v0):
        one = eds_one_quantum(v0 / (6.0 * np.pi), v0)
        return residual(one, 1.0, [[0.0, 0.0, 0.0]]).global_max

    study = scaling_study(observable, volumes, parameter="V0")
    ok = study.status == "ok" and abs(study.slope + 2.0) <= 1e-6
    _criterion("6b", "residual scaling slope -2 over growing V0",
               ok, f"slope={study.slope:.9f}")


def test_criterion_6c_fit_recovers_tuned_mass():
    v0 = 600.0 * np.pi
    target = v0 / (6.0 * np.pi)

    def objective(m):
        one = eds_one_quantum(m, v0)
        return residual(one, [1.0, 2.0, 4.0], np.zeros((3, 3))).global_max

    res = fit_parameter(objective, 10.0, 1000.0, tol=1e-4)
    rel = abs(res.parameter - target) / target
    _criterion("6c", "golden-section fit recovers m = V0/(6 pi) within 0.1%",
               (not res.hit_boundary) and rel <= 1e-3,
               f"m*={res.parameter:.6f}, rel={rel:.1e}")


def test_criterion_7_unruh_spectrum():
    t0 = time.perf_counter()
    accel = 1.0
    mat = bogolubov_coefficients(accel, np.geomspace(0.1 * accel, 3.0 * accel, 16))
    worst_rel = 0.0
    worst_norm = 0.0
    all_positive = True
    for w, occ, norm in zip(mat.row_frequencies, mat.occupancy, mat.row_norms):
        planck = 1.0 / np.expm1(2.0 * np.pi * w / accel)
        worst_rel = max(worst_rel, abs(occ - planck) / planck)
        worst_norm = max(worst_norm, abs(norm - 1.0))
        all_positive = all_positive and occ > 0.0
    dt = time.perf_counter() - t0
    _criterion("7", "wedge occupancy is Planck at T = a/(2 pi) over 16 freqs",
               worst_rel <= 0.01 and worst_norm <= 1e-3 and all_positive and dt < 60.0,
               f"max rel={worst_rel:.1e}, max |norm-1|={worst_norm:.1e}, {dt:.2f}s")


def test_criterion_8_born_statistics():
    t0 = time.perf_counter()
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=1)
    vac = new_vacuum(basis)
    a = create(vac, 0).normalized()
    b = create(vac, 1).normalized()
    branches = BranchSet({"a": a, "b": b})
    n = 100_000
    ok = True
    details = []
    for amps in ((1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)), (0.6, 0.8), (1.0, 0.0)):
        psi = superpose([(amps[0], a), (amps[1], b)], normalize=True)
        probs = born_probabilities(psi, branches)
        counts = run_trials(psi, branches, 2026, n).counts
        for i, p in enumerate(probs):
            bound = 4.0 * np.sqrt(p * (1.0 - p) / n)
            ok = ok and abs(counts[i] / n - p) <= bound
        details.append(f"p={probs[0]:.2f}: freq={counts[0] / n:.4f}")
    dt = time.perf_counter() - t0
    _criterion("8", "seeded trials reproduce Born weights within 4 sigma",
               ok and dt < 10.0, "; ".join(details) + f", {dt:.1f}s")


def test_criterion_9a_epr_anticorrelation_with_zero_violation():
    report = run_scenario("epr_collapse", seed=42, trials=100_000)
    violation = max(row[1] for row in report.tables["causality"].rows)
    ok = (report.flags["anticorrelation_exact"]
          and violation == 0.0
          and all(row[5] for row in report.tables["causality"].rows))
    _criterion("9a", "remote spin always opposite; energy unchanged off-cone",
               ok,
               f"anticorrelation_exact={report.flags['anticorrelation_exact']}, "
               f"violation={violation}")


def test_criterion_9b_acausal_branch_set_is_flagged():
    x = np.linspace(0.0, 10.0, 48)[:, None]
    pre, moved = _spheres((3.0, 8.0), 1.0, 0.3, x)  # moved: relocated outside the cone
    rep, = causality_check(pre, [moved], 0.5, (3.0,), np.full(48, 0.5), x)
    _criterion("9b", "branch moving energy outside the cone fails the check",
               not rep.passed, f"violation={rep.max_violation_outside:.3f}")


def test_criterion_10_single_sphere_discontinuity():
    report = run_scenario("page_geilker", seed=9, trials=2000)
    (discontinuity, always_single_sphere), = report.tables["summary"].rows
    _criterion("10", "projection picks one full sphere, never the average",
               always_single_sphere and discontinuity > 0.0,
               f"discontinuity={discontinuity:.4f}")


def test_criterion_11_property_suites():
    t0 = time.perf_counter()
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=2)
    vac = new_vacuum(basis)
    rng = np.random.default_rng(11)
    ok = True

    # ladder commutator identity on random sparse states
    for _ in range(25):
        amps = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi = superpose([
            (amps[0], vac),
            (amps[1], create(vac, 1)),
            (amps[2], create(create(vac, 0), 3)),
        ])
        for mode in range(basis.n_modes):
            diff = superpose([
                (1.0, annihilate(create(psi, mode), mode)),
                (-1.0, create(annihilate(psi, mode), mode)),
                (-1.0, psi),
            ])
            ok = ok and diff.norm() < 1e-12 * psi.norm()

    # the vacuum has no moments, so every normal-ordered quadratic form vanishes exactly
    support, A, D = moments(vac)
    ok = ok and support == () and A.size == 0 and D.size == 0

    # superposition is linear under the inner product
    for _ in range(25):
        a, b = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
        u, v, w = (create(vac, int(m)) for m in rng.integers(0, basis.n_modes, 3))
        lhs = inner(w, superpose([(a, u), (b, v)]))
        rhs = a * inner(w, u) + b * inner(w, v)
        ok = ok and abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    # mode functions solve their wave equations (finite differences)
    h_fd = 5e-4
    for idx in range(basis.n_modes):
        f = lambda tt, xx: basis.field_coeffs(tt, [xx])[idx]
        t, x = 0.3, 1.7
        dtt = (f(t + h_fd, x) - 2.0 * f(t, x) + f(t - h_fd, x)) / h_fd**2
        dxx = (f(t, x + h_fd) - 2.0 * f(t, x) + f(t, x - h_fd)) / h_fd**2
        resid = dtt - dxx + basis.mass**2 * f(t, x)
        w = basis.frequencies([idx])[0]
        ok = ok and abs(resid) < 1e-6 * (1.0 + w**2) * abs(f(t, x))
    dust = eds_basis(comoving_volume=30.0, mass=2.0)
    for t in (0.5, 1.0, 2.0):
        f0 = lambda s: dust.field_coeffs(s, (0, 0, 0))[0]
        dtt = (f0(t + h_fd) - 2.0 * f0(t) + f0(t - h_fd)) / h_fd**2
        dt1 = (f0(t + h_fd) - f0(t - h_fd)) / (2.0 * h_fd)
        resid = dtt + (2.0 / t) * dt1 + dust.mass**2 * f0(t)
        ok = ok and abs(resid) < 1e-6 * (1.0 + dust.mass**2) * abs(f0(t))

    # serialization is deterministic
    rep = RunReport(scenario="gate", seed=1,
                    tables={"t": Table("t", ("a", "b"), ([1.0, 3.0], [2.0, 4.0]))},
                    flags={"ok": True})
    ok = ok and emit(rep, "json") == emit(rep, "json")
    ok = ok and emit(rep, "csv") == emit(rep, "csv")

    dt = time.perf_counter() - t0
    _criterion("11", "algebra/PDE/serialization property checks",
               ok and dt < 120.0, f"{dt:.2f}s")
