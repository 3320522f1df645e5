"""Wedge/box overlap coefficients against Gamma-function closed forms and
against the per-column quadrature they replaced."""
from math import factorial

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gamma as cgamma

from semigrav.bogolubov import (
    _BASE,
    _FINE,
    QuadratureError,
    _column_phase,
    _row_factors,
    bogolubov_coefficients,
    rindler_occupancy_in_vacuum,
)
from semigrav.modes import ModeBasisError, minkowski_basis, rindler_basis


def _panel_rule(settings):
    """Composite Gauss-Legendre nodes/weights on [0, ln(eta_R/eta_L)]."""
    span = np.log(settings.eta_right / settings.eta_left)
    edges = np.linspace(0.0, span, settings.panels + 1)
    x, w = np.polynomial.legendre.leggauss(settings.gl_nodes)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(0.5 * (lo + hi) + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _half_line_integrals(nu, k, sign, acceleration, settings):
    """Per-column oracle: I_P(s), I_Q(s) for s = sign * k, each column k > 0
    integrated on its own window z in [ln(eta_L a / k), ln(eta_R a / k)]."""
    a = acceleration
    eta_l, eta_r = settings.eta_left, settings.eta_right
    z_left = np.log(eta_l * a / k)
    z_right = np.log(eta_r * a / k)

    s_p = 0.0 + 0.0j
    s_q = 0.0 + 0.0j
    for n in range(settings.series_terms, 0, -1):
        term = (1j * sign * eta_l) ** n / factorial(n)
        s_p += term / (n + 1j * nu)
        s_q += term / (n + 1.0 + 1j * nu)
    s_q += 1.0 / (1.0 + 1j * nu)
    phase_l = np.exp(1j * nu * z_left)
    left_p = phase_l * (1.0 / (1j * nu) + s_p)
    left_q = (eta_l / k) * phase_l * s_q

    b, bw = _panel_rule(settings)
    z_nodes = z_left[:, None] + b[None, :]
    osc = np.exp(1j * (nu * z_nodes + sign * eta_l * np.exp(b)[None, :]))
    core_p = osc @ bw
    core_q = (np.exp(z_nodes) * osc) @ bw / a

    lag_x, lag_w = np.polynomial.laguerre.laggauss(settings.laguerre_nodes)
    rot = 1.0 + 1j * sign * lag_x / eta_r
    lag0 = np.sum(lag_w * rot ** (-1.0 + 1j * nu))
    lag1 = np.sum(lag_w * rot ** (1j * nu))
    phase_r = np.exp(1j * nu * z_right) * np.exp(1j * sign * eta_r) * (1j * sign / eta_r)
    tail_p = phase_r * lag0
    tail_q = phase_r * (eta_r / k) * lag1

    return left_p + core_p + tail_p, left_q + core_q + tail_q


def _gamma_oracle(nu: float, k: np.ndarray, sign: int, a: float):
    """Closed forms for the half-line phase integrals with s = sign * k.

    I_P(s) = int_0^inf (a x)^{i nu} e^{i s x} dx / x = a^{i nu} Gamma(i nu) (-i s)^{-i nu}
    I_Q(s) = int_0^inf (a x)^{i nu} e^{i s x} dx  = a^{i nu} Gamma(1 + i nu) (-i s)^{-1 - i nu}
    with the branch (-i s)^{-c} = exp(-c (ln|s| - i sign * pi/2)).
    """
    log_branch = np.log(k) - 1j * sign * np.pi / 2.0
    pref = np.exp(1j * nu * np.log(a))
    ip = pref * cgamma(1j * nu) * np.exp(-1j * nu * log_branch)
    iq = pref * cgamma(1.0 + 1j * nu) * np.exp((-1.0 - 1j * nu) * log_branch)
    return ip, iq


@pytest.mark.parametrize("nu", [0.11, 0.5, 1.0, 3.0])
@pytest.mark.parametrize("sign", [-1, +1])
def test_half_line_integrals_match_gamma_closed_form(nu, sign):
    a = 1.3
    k = np.geomspace(0.05, 8.0, 13)
    ip, iq = _half_line_integrals(nu, k, sign, a, _BASE)
    ip_ref, iq_ref = _gamma_oracle(nu, k, sign, a)
    assert_allclose(ip, ip_ref, rtol=5e-9)
    assert_allclose(iq, iq_ref, rtol=5e-9)


@pytest.mark.parametrize("settings", [_BASE, _FINE], ids=["base", "fine"])
@pytest.mark.parametrize("sign", [-1, +1])
def test_row_factors_match_per_column_oracle(settings, sign):
    """Phase times row factor reproduces every column of the per-column quadrature.

    The bound is relative to |I(-k)|.  For sign -1 that is the plain relative
    error; for sign +1 the integrals are e^(-pi nu) smaller than the pieces
    both paths sum, so each loses the same digits to cancellation.
    """
    a = 1.3
    nu = np.geomspace(0.05, 5.0, 9)
    k = np.geomspace(0.01, 10.0, 13)
    p, q = _row_factors(nu, sign, settings)
    phase = _column_phase(nu, k, a, settings)
    for j in range(len(nu)):
        ip, iq = _half_line_integrals(nu[j], k, sign, a, settings)
        scale_p, scale_q = (np.abs(i) for i in _half_line_integrals(nu[j], k, -1, a, settings))
        assert np.all(np.abs(phase[j] * p[j] - ip) <= 1e-12 * scale_p)
        assert np.all(np.abs(phase[j] * q[j] / k - iq) <= 1e-12 * scale_q)


def test_row_is_bit_identical_to_a_one_row_build():
    mink = minkowski_basis(box_side=100.0 * np.pi, dimension=1, mass=0.0, n_max=48)
    omegas = np.geomspace(0.1, 3.0, 16)
    full = bogolubov_coefficients(mink, rindler_basis(1.0, tuple(omegas)))
    for j, w in enumerate(omegas):
        one = bogolubov_coefficients(mink, rindler_basis(1.0, (w,)))
        assert np.array_equal(one.alpha[0], full.alpha[j])
        assert np.array_equal(one.beta[0], full.beta[j])


def test_node_tables_are_built_once_per_settings(monkeypatch):
    calls = {"laggauss": 0, "leggauss": 0}
    for module, name in ((np.polynomial.laguerre, "laggauss"), (np.polynomial.legendre, "leggauss")):
        def counted(n, _rule=getattr(module, name), _name=name):
            calls[_name] += 1
            return _rule(n)
        monkeypatch.setattr(module, name, counted)
    for settings in (_BASE, _FINE):  # forget tables built by earlier tests
        for table in ("core_rule", "tail_rule"):
            monkeypatch.delitem(settings.__dict__, table, raising=False)
    mink, rind = _wedge_setup(n_freq=3)
    bogolubov_coefficients(mink, rind)
    assert calls == {"laggauss": 2, "leggauss": 2}
    bogolubov_coefficients(mink, rind)
    assert calls == {"laggauss": 2, "leggauss": 2}


def _wedge_setup(n_freq=6, n_max=48, box=100.0 * np.pi, accel=1.0):
    mink = minkowski_basis(box_side=box, dimension=1, mass=0.0, n_max=n_max)
    omegas = np.geomspace(0.1, 3.0, n_freq) * accel
    rind = rindler_basis(accel, tuple(omegas))
    return mink, rind


def test_alpha_beta_thermal_ratio():
    """|beta_jk| = e^{-pi nu_j} |alpha_jk| exactly, for every row and column."""
    mink, rind = _wedge_setup()
    mat = bogolubov_coefficients(mink, rind)
    pos = mat.wavenumbers > 0
    for j, w in enumerate(mat.row_frequencies):
        nu = w / rind.backend.acceleration
        ratio = mat.beta[j, pos] / mat.alpha[j, pos]
        assert_allclose(ratio, -np.exp(-np.pi * nu) * np.ones(pos.sum()), rtol=1e-7)


def test_pointwise_unit_wronskian():
    """|alpha_jk|^2 - |beta_jk|^2 = 1 / (2 pi a k) before weighting."""
    mink, rind = _wedge_setup(n_freq=4)
    a = rind.backend.acceleration
    mat = bogolubov_coefficients(mink, rind)
    pos = mat.wavenumbers > 0
    k = mat.wavenumbers[pos]
    for j in range(mat.n_rows):
        lhs = np.abs(mat.alpha[j, pos]) ** 2 - np.abs(mat.beta[j, pos]) ** 2
        assert_allclose(lhs, 1.0 / (2.0 * np.pi * a * k), rtol=1e-7)


def test_row_normalization_and_planck_occupancy():
    mink, rind = _wedge_setup(n_freq=8)
    a = rind.backend.acceleration
    mat = bogolubov_coefficients(mink, rind)
    for j, w in enumerate(mat.row_frequencies):
        assert_allclose(mat.row_normalization(j), 1.0, atol=1e-10)
        planck = 1.0 / np.expm1(2.0 * np.pi * w / a)
        assert_allclose(rindler_occupancy_in_vacuum(mat, j), planck, rtol=1e-7)


def test_left_mover_columns_are_exactly_zero():
    mink, rind = _wedge_setup(n_freq=3)
    mat = bogolubov_coefficients(mink, rind)
    neg = mat.wavenumbers <= 0.0
    assert np.all(mat.alpha[:, neg] == 0.0)
    assert np.all(mat.beta[:, neg] == 0.0)
    assert np.all(mat.weights[neg] == 0.0)


def test_occupancy_at_special_frequencies():
    """w = a ln(2) / (2 pi) gives exactly one quantum; a ln(3/2) / (2 pi) gives two."""
    accel = 1.0
    for target, n_exp in ((np.log(2.0), 1.0), (np.log(1.5), 2.0)):
        w = accel * target / (2.0 * np.pi)
        grid = np.geomspace(w / 2.0, 2.0 * w, 9)  # w is the geometric midpoint
        mink = minkowski_basis(box_side=100.0 * np.pi, dimension=1, mass=0.0, n_max=48)
        rind = rindler_basis(accel, tuple(grid))
        mat = bogolubov_coefficients(mink, rind)
        j = int(np.argmin(np.abs(mat.row_frequencies - w)))
        assert_allclose(mat.row_frequencies[j], w, rtol=1e-12)
        assert_allclose(rindler_occupancy_in_vacuum(mat, j), n_exp, rtol=1e-7)


def test_quadrature_error_is_reported_small():
    mink, rind = _wedge_setup(n_freq=3)
    mat = bogolubov_coefficients(mink, rind)
    assert 0.0 <= mat.quadrature_error < 1e-8


def test_unreachable_tolerance_raises():
    mink, rind = _wedge_setup(n_freq=2)
    with pytest.raises(QuadratureError):
        bogolubov_coefficients(mink, rind, rtol=1e-16)


def test_wedge_pairing_input_validation():
    rind = rindler_basis(1.0, (0.5, 1.0, 2.0))
    with pytest.raises(ModeBasisError):  # massive box field
        bogolubov_coefficients(minkowski_basis(10.0, 1, 1.0, 4), rind)
    with pytest.raises(ModeBasisError):  # wrong dimension
        bogolubov_coefficients(minkowski_basis(10.0, 2, 0.0, 4), rind)
    with pytest.raises(ModeBasisError):  # not a mode basis
        bogolubov_coefficients(minkowski_basis(10.0, 1, 0.0, 4), object())
    with pytest.raises(ModeBasisError):  # a box basis is not a wedge basis
        bogolubov_coefficients(minkowski_basis(10.0, 1, 0.0, 4), minkowski_basis(10.0, 1, 0.0, 4))


def test_row_index_bounds():
    mink, rind = _wedge_setup(n_freq=2)
    mat = bogolubov_coefficients(mink, rind)
    with pytest.raises(IndexError):
        mat.row_normalization(2)
    with pytest.raises(IndexError):
        rindler_occupancy_in_vacuum(mat, -1)
