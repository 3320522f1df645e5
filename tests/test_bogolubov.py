"""Wedge/box overlap coefficients against scipy's Gamma function and
against a per-column quadrature of the pairing integrals."""
from math import factorial

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gamma as cgamma
from scipy.special import loggamma

from semigrav.bogolubov import _loggamma, bogolubov_coefficients, rindler_occupancy_in_vacuum
from semigrav.modes import ModeBasisError, minkowski_basis, rindler_basis


def _panel_rule(span, panels, gl_nodes):
    """Composite Gauss-Legendre nodes/weights on [0, span]."""
    edges = np.linspace(0.0, span, panels + 1)
    x, w = np.polynomial.legendre.leggauss(gl_nodes)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(0.5 * (lo + hi) + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _half_line_integrals(nu, k, sign, acceleration):
    """Per-column oracle: I_P(s), I_Q(s) for s = sign * k, each column k > 0
    integrated on its own window z in [ln(eta_L a / k), ln(eta_R a / k)].

    Three pieces: a power series at the horizon end (its leading term is the
    Abel-regularized value), Gauss-Legendre panels in the window, and
    Gauss-Laguerre on the contour rotated at the far end.
    """
    a = acceleration
    eta_l, eta_r, panels, gl_nodes, laguerre_nodes, series_terms = 0.25, 36.0, 28, 16, 56, 20
    z_left = np.log(eta_l * a / k)
    z_right = np.log(eta_r * a / k)

    s_p = 0.0 + 0.0j
    s_q = 0.0 + 0.0j
    for n in range(series_terms, 0, -1):
        term = (1j * sign * eta_l) ** n / factorial(n)
        s_p += term / (n + 1j * nu)
        s_q += term / (n + 1.0 + 1j * nu)
    s_q += 1.0 / (1.0 + 1j * nu)
    phase_l = np.exp(1j * nu * z_left)
    left_p = phase_l * (1.0 / (1j * nu) + s_p)
    left_q = (eta_l / k) * phase_l * s_q

    b, bw = _panel_rule(np.log(eta_r / eta_l), panels, gl_nodes)
    z_nodes = z_left[:, None] + b[None, :]
    osc = np.exp(1j * (nu * z_nodes + sign * eta_l * np.exp(b)[None, :]))
    core_p = osc @ bw
    core_q = (np.exp(z_nodes) * osc) @ bw / a

    lag_x, lag_w = np.polynomial.laguerre.laggauss(laguerre_nodes)
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
    ip, iq = _half_line_integrals(nu, k, sign, a)
    ip_ref, iq_ref = _gamma_oracle(nu, k, sign, a)
    assert_allclose(ip, ip_ref, rtol=5e-9)
    assert_allclose(iq, iq_ref, rtol=5e-9)


def test_loggamma_matches_scipy():
    nu = np.concatenate([np.geomspace(1e-100, 100.0, 2001), np.linspace(0.01, 100.0, 2001)])
    assert_allclose(_loggamma(1j * nu), loggamma(1j * nu), rtol=0.0, atol=1e-12)


def test_closed_form_matches_per_column_quadrature():
    """alpha and beta against the three-piece quadrature of the pairings,
    alpha = (nu I_P(-k) + k I_Q(-k)) / (4 pi sqrt(k w)) and
    beta = (k I_Q(+k) - nu I_P(+k)) / (4 pi sqrt(k w)).

    The bound is relative to |alpha|, which scales with |I(-k)|.  The sign +1
    integrals behind beta are e^(-pi nu) smaller than the pieces the
    quadrature sums, so it resolves beta only to that scale.
    """
    mink, rind = _wedge_setup(n_freq=6)
    mat = bogolubov_coefficients(mink, rind)
    pos = mat.wavenumbers > 0
    k = mat.wavenumbers[pos]
    for j, w in enumerate(mat.row_frequencies):
        nu = w / rind.backend.acceleration
        norm = 4.0 * np.pi * np.sqrt(k * w)
        ip, iq = _half_line_integrals(nu, k, -1, rind.backend.acceleration)
        alpha = (nu * ip + k * iq) / norm
        ip, iq = _half_line_integrals(nu, k, +1, rind.backend.acceleration)
        beta = (k * iq - nu * ip) / norm
        assert np.all(np.abs(mat.alpha[j, pos] - alpha) <= 1e-6 * np.abs(alpha))
        assert np.all(np.abs(mat.beta[j, pos] - beta) <= 1e-6 * np.abs(alpha))


def test_row_is_bit_identical_to_a_one_row_build():
    mink = minkowski_basis(box_side=100.0 * np.pi, dimension=1, mass=0.0, n_max=48)
    omegas = np.geomspace(0.1, 3.0, 16)
    full = bogolubov_coefficients(mink, rindler_basis(1.0, tuple(omegas)))
    for j, w in enumerate(omegas):
        one = bogolubov_coefficients(mink, rindler_basis(1.0, (w,)))
        assert np.array_equal(one.alpha[0], full.alpha[j])
        assert np.array_equal(one.beta[0], full.beta[j])


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


def test_row_sums_match_the_direct_weighted_sums():
    """The thermal-factor forms against sum_k weights |beta|^2 and
    sum_k weights (|alpha|^2 - |beta|^2), where those do not cancel."""
    mink, rind = _wedge_setup(n_freq=8)
    mat = bogolubov_coefficients(mink, rind)
    for j in range(mat.n_rows):
        alpha2, beta2 = np.abs(mat.alpha[j]) ** 2, np.abs(mat.beta[j]) ** 2
        assert_allclose(rindler_occupancy_in_vacuum(mat, j), np.sum(mat.weights * beta2),
                        rtol=1e-14)
        assert_allclose(mat.row_normalization(j), np.sum(mat.weights * (alpha2 - beta2)),
                        rtol=1e-14)


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
