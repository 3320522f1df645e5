"""Einstein-equation residuals, scaling studies, golden-section fits."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from semigrav import consistency
from semigrav.consistency import (
    FitResult,
    fit_parameter,
    residual,
    scaling_study,
)
from semigrav.fock import create, new_vacuum
from semigrav.modes import eds_basis, minkowski_basis
from semigrav.spacetime import einstein_tensor

from oracles import eds_one_quantum


def test_minkowski_vacuum_is_exactly_self_consistent():
    basis = minkowski_basis(box_side=10.0, dimension=3, mass=1.0, n_max=1)
    vac = new_vacuum(basis)
    t = [0.0, 0.0, 1.0, 1.0]
    x = [[x, 0.0, 0.0] for x in (0.0, 2.5, 0.0, 2.5)]
    rep = residual(vac, t, x)
    assert rep.global_max == 0.0
    assert rep.per_event == (0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("n_events", [1, 130])
@pytest.mark.parametrize("basis", [
    minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=1),
    minkowski_basis(box_side=10.0, dimension=3, mass=1.0, n_max=1),
    eds_basis(comoving_volume=60.0, mass=3.0),
], ids=["minkowski-1d", "minkowski-3d", "eds"])
def test_residual_is_the_max_over_the_full_square_tensors(basis, n_events, monkeypatch):
    """Against any stress array, off-diagonal components included: per event,
    max |G_square - 8 pi T| with G_square built from the ``einstein_tensor`` diagonal."""
    rng = np.random.default_rng(n_events)
    d = basis.backend.dimension
    t, x = rng.uniform(0.5, 3.0, n_events), rng.uniform(0.0, 5.0, (n_events, d))
    for scale in (1e-3, 1.0, 1e3):  # off-diagonals, against G_00 ~ 0.1-5 on the dust
        stress = rng.normal(size=(n_events, d + 1, d + 1))
        stress *= np.where(np.eye(d + 1, dtype=bool), 1e-3, scale)
        monkeypatch.setattr(consistency, "stress_field", lambda state, t, x: stress)
        rep = residual(new_vacuum(basis), t, x)
        G = np.zeros_like(stress)
        np.einsum("eii->ei", G)[...] = einstein_tensor(basis.backend, t, x)
        per = np.abs(G - 8.0 * np.pi * stress).max(axis=(1, 2))
        assert rep.per_event == tuple(per.tolist()) and rep.global_max == per.max()


def test_minkowski_particle_residual_is_thermodynamically_small():
    """A single quantum breaks self-consistency by exactly 8 pi w / V in T_00."""
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=1)
    one = create(new_vacuum(basis), basis.mode_index((1,)))
    rep = residual(one, 0.0, [[0.0]])
    w = basis.frequencies([basis.mode_index((1,))])[0]
    assert_allclose(rep.global_max, 8.0 * np.pi * w / 10.0, rtol=1e-13)


def _dust_residual(mass, v0, t):
    one = eds_one_quantum(mass, v0)
    return residual(one, t, [[0.0, 0.0, 0.0]]).global_max


def test_dust_residual_closed_form_at_tuned_mass():
    """With m = V0 / 6 pi the dust part cancels, leaving the quantum tail:
    the 00 component (4/3 - 8 pi m / V0 .. ) reduces to 24 pi^2 / (V0^2 t^4) and
    the spatial part to 24 pi^2 / (V0^2 t^(8/3)); the sup norm is their max."""
    for v0 in (6.0 * np.pi, 60.0 * np.pi, 600.0 * np.pi):
        m = v0 / (6.0 * np.pi)
        for t in (0.5, 1.0, 2.0, 4.0):
            tail_00 = 24.0 * np.pi**2 / (v0**2 * t**4)
            tail_ii = 24.0 * np.pi**2 / (v0**2 * t ** (8.0 / 3.0))
            expected = max(tail_00, tail_ii)
            assert_allclose(_dust_residual(m, v0, t), expected, rtol=1e-8)


def test_dust_residual_scaling_slope_is_minus_two():
    volumes = (6.0 * np.pi, 60.0 * np.pi, 600.0 * np.pi)
    study = scaling_study(
        lambda v: _dust_residual(v / (6.0 * np.pi), v, 1.0), volumes, parameter="V0"
    )
    assert study.status == "ok"
    assert_allclose(study.slope, -2.0, atol=1e-6)
    assert len(study.values) == len(study.observables) == 3
    # the observable itself follows 24 pi^2 / V0^2
    for v0, obs in zip(study.values, study.observables):
        assert_allclose(obs, 24.0 * np.pi**2 / v0**2, rtol=1e-8)


def test_residual_report_structure():
    one = eds_one_quantum(10.0, 60.0 * np.pi)
    x = np.zeros((2, 3))
    rep = residual(one, [1.0, 2.0], x)
    assert rep.stress.shape == (2, 4, 4)
    assert rep.global_max == max(rep.per_event)
    # a scalar t broadcasts over the events, as in ``stress_field``
    assert residual(one, 1.0, x).per_event[0] == rep.per_event[0]
    with pytest.raises(ValueError):
        residual(one, [], np.zeros((0, 3)))


def test_scaling_study_validation_and_degenerate_case():
    with pytest.raises(ValueError):
        scaling_study(lambda v: v, [1.0, 2.0])
    with pytest.raises(ValueError):
        scaling_study(lambda v: v, [2.0, 1.0, 3.0])
    with pytest.raises(ValueError):
        scaling_study(lambda v: v, [-1.0, 1.0, 2.0])
    study = scaling_study(lambda v: 0.0, [1.0, 2.0, 4.0])
    assert study.slope is None
    assert study.status == "undefined(zero)"


@pytest.mark.parametrize("values, message", [
    ([10.0, 20.0, float("nan")], "parameter values must be finite"),
    ([10.0, 20.0, float("inf")], "parameter values must be finite"),
    (np.array([1.0, 2.0, -np.inf]), "parameter values must be finite"),
    ([1, 2, 10**400], "parameter values must be finite"),
    ([10, 20, True], "parameter values must be numbers, not bools"),
    (np.array([True, True, True]), "parameter values must be numbers, not bools"),
    ([float("nan"), 1.0], "scaling study needs at least 3 parameter values"),
    ([2.0, 1.0, 3.0], "parameter values must be strictly increasing"),
    ([-1.0, 1.0, 2.0], "parameter values must be positive"),
], ids=["nan", "inf", "array-minus-inf", "int-past-float-range", "bool", "bool-array", "two-values", "decreasing",
        "negative"])
def test_scaling_study_rejects_values_before_the_observable_runs(values, message):
    calls = []
    with pytest.raises(ValueError, match=f"^{message}$"):
        scaling_study(lambda v: calls.append(v) or v, values)
    assert calls == []


def test_scaling_study_recovers_power_laws():
    study = scaling_study(lambda v: 7.0 / v**2, [1.0, 10.0, 100.0, 1000.0])
    assert_allclose(study.slope, -2.0, atol=1e-12)
    study = scaling_study(lambda v: 3.0 * v**1.5, [2.0, 4.0, 8.0])
    assert_allclose(study.slope, 1.5, atol=1e-12)


# ---- golden-section fit -------------------------------------------------------

def test_fit_parameter_quadratic():
    res = fit_parameter(lambda m: (m - 3.0) ** 2, 0.0, 10.0, tol=1e-10)
    assert isinstance(res, FitResult)
    assert not res.hit_boundary
    assert_allclose(res.parameter, 3.0, atol=1e-8)
    assert res.value < 1e-15


def test_fit_parameter_flags_boundary_minimum():
    res = fit_parameter(lambda m: m, 1.0, 2.0, tol=1e-8)
    assert res.hit_boundary
    assert res.parameter == 1.0
    res = fit_parameter(lambda m: -m, 1.0, 2.0, tol=1e-8)
    assert res.hit_boundary
    assert res.parameter == 2.0


def test_fit_parameter_validates_input():
    with pytest.raises(ValueError):
        fit_parameter(lambda m: m, 2.0, 1.0)
    with pytest.raises(ValueError):
        fit_parameter(lambda m: m, 0.0, 1.0, tol=-1.0)
    with pytest.raises(ValueError):
        fit_parameter(lambda m: float("nan"), 0.0, 1.0)


def test_fit_parameter_stops_at_float_resolution():
    """A tol below the bracket's float spacing ends once the bracket stops shrinking."""
    calls = []

    def objective(m):
        calls.append(m)
        return (m - 0.3) ** 2

    res = fit_parameter(objective, 0.1, 1.0, 1e-300)
    assert len(calls) <= 200
    assert not res.hit_boundary
    assert abs(res.parameter - 0.3) <= 1e-7  # the square's minimum is flat to ~1e-8


def test_fit_recovers_dust_mass_from_residual():
    """Minimizing the t-grid residual over the mass recovers m = V0 / 6 pi."""
    v0 = 600.0 * np.pi

    def objective(m):
        return residual(eds_one_quantum(m, v0), [1.0, 2.0, 4.0], np.zeros((3, 3))).global_max

    target = v0 / (6.0 * np.pi)
    res = fit_parameter(objective, 10.0, 1000.0, tol=1e-4)
    assert not res.hit_boundary
    assert abs(res.parameter - target) <= 1e-3 * target
