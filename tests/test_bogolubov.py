"""Wedge Bogolubov rows against scipy's Gamma function, and the per-column
overlaps behind them against a quadrature of the pairing integrals.

For the massless 2-D field the right-wedge right-movers restricted to the
t = 0 slice are g_w(x) = (a x)^(i w / a) / sqrt(4 pi w) on x > 0, and the
Klein-Gordon pairings with box plane waves reduce to half-line integrals

    I_P(s) = Int_0^inf (a x)^(i nu) e^(i s x) dx / x
    I_Q(s) = Int_0^inf (a x)^(i nu) e^(i s x) dx,        nu = w / a,

with s = -k for alpha-type overlaps and s = +k for beta-type overlaps.
Both are Mellin transforms of e^(i s x) and have the closed forms

    I_P(s) = Gamma(i nu) (a / |s|)^(i nu) e^(-sgn(s) pi nu / 2)
    I_Q(s) = -sgn(s) (nu / |s|) I_P(s).

I_Q converges conditionally.  I_P has no limit at the horizon end x -> 0,
where its integrand goes like x^(i nu - 1); it takes the Abel-regularized
value, the limit eps -> 0+ of the integral with x^(i nu) replaced by
x^(i nu + eps), which is Gamma's continuation to the imaginary axis.  The
factor e^(-sgn(s) pi nu / 2) is the branch of (-i s)^(-i nu) continuous
from Im s > 0, where e^(i s x) decays.  Combining the two pairings per
column,

    alpha(w, k) = 2 nu e^(pi nu / 2) Gamma(i nu) (a / k)^(i nu) / (4 pi sqrt(k w))
    beta(w, k)  = -e^(-pi nu) alpha(w, k).

Left-moving box modes (k < 0) pair to exactly zero with right-moving wedge
data: integrating the slice product by parts leaves a factor (k + |k|).
The sharp wedge modes take their finite log-window normalization from the
column weights w_k = 2 pi a k (log-k cell) / (log-k window), and since
|alpha_jk|^2 is proportional to 1/(k w), w_k |alpha_jk|^2 does not depend
on k: every box k grid sums row j to the same S_j, from which
``bogolubov_coefficients`` forms each row.
"""
import math
from math import factorial

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gamma as cgamma
from scipy.special import loggamma

from semigrav.bogolubov import _loggamma, bogolubov_coefficients
from semigrav.modes import ModeBasisError, minkowski_basis


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


def _pairing(w, k, a, sign):
    """Closed form of the overlap of wedge mode w with box modes k > 0:
    (k I_Q(s) - sign nu I_P(s)) / (4 pi sqrt(k w)) at s = sign k, so alpha at
    sign -1 and beta at sign +1."""
    nu = w / a
    row = 2.0 * nu * np.exp(-sign * 0.5 * np.pi * nu + _loggamma(1j * nu)) / (4.0 * np.pi)
    return -sign * row * np.exp(1j * nu * np.log(a / k)) / np.sqrt(k * w)


def _column_weights(k, a):
    """2 pi a k times the log-k cell over the log-k window."""
    lam = np.log(k)
    cells = np.empty_like(lam)
    cells[0] = 0.5 * (lam[1] - lam[0])
    cells[-1] = 0.5 * (lam[-1] - lam[-2])
    cells[1:-1] = 0.5 * (lam[2:] - lam[:-2])
    return 2.0 * np.pi * a * k * cells / (lam[-1] - lam[0])


def _box_wavenumbers(box_side=100.0 * np.pi, n_max=48):
    """The positive wavenumbers of a massless 1-D box basis."""
    k = minkowski_basis(box_side=box_side, dimension=1, mass=0.0, n_max=n_max).wavevectors()[:, 0]
    return k[k > 0.0]


def _wedge_grid(n_freq=6, accel=1.0):
    """Wedge frequencies w with nu = w / accel from 0.1 to 3."""
    return tuple(np.geomspace(0.1, 3.0, n_freq) * accel)


def test_closed_form_matches_per_column_quadrature():
    """alpha and beta against the three-piece quadrature of the pairings,
    alpha = (nu I_P(-k) + k I_Q(-k)) / (4 pi sqrt(k w)) and
    beta = (k I_Q(+k) - nu I_P(+k)) / (4 pi sqrt(k w)).

    The bound is relative to |alpha|, which scales with |I(-k)|.  The sign +1
    integrals behind beta are e^(-pi nu) smaller than the pieces the
    quadrature sums, so it resolves beta only to that scale.
    """
    a = 1.0
    k = _box_wavenumbers()
    for w in _wedge_grid(n_freq=6, accel=a):
        nu = w / a
        norm = 4.0 * np.pi * np.sqrt(k * w)
        ip, iq = _half_line_integrals(nu, k, -1, a)
        alpha = (nu * ip + k * iq) / norm
        ip, iq = _half_line_integrals(nu, k, +1, a)
        beta = (k * iq - nu * ip) / norm
        assert np.all(np.abs(_pairing(w, k, a, -1) - alpha) <= 1e-6 * np.abs(alpha))
        assert np.all(np.abs(_pairing(w, k, a, +1) - beta) <= 1e-6 * np.abs(alpha))


def test_row_is_bit_identical_to_a_one_row_build():
    omegas = np.geomspace(0.1, 3.0, 16)
    full = bogolubov_coefficients(1.0, omegas)
    for j, w in enumerate(omegas):
        one = bogolubov_coefficients(1.0, (w,))
        assert np.array_equal(one.row_sums, full.row_sums[j:j + 1])
        assert one.occupancy == full.occupancy[j:j + 1]
        assert one.row_norms == full.row_norms[j:j + 1]


def test_occupancy_and_row_norms_are_the_scalar_row_factors():
    """Each row's occupancy is math.exp(-x) S_j and its norm -math.expm1(-x) S_j,
    x = 2 pi w_j / a, bit for bit: per-row scalar arithmetic, not a vector exp."""
    for accel in (1.0, 2.5, 1e-3):
        mat = bogolubov_coefficients(accel, _wedge_grid(n_freq=16, accel=accel))
        for j in range(len(mat.row_sums)):
            s = float(mat.row_sums[j])
            x = 2.0 * np.pi * float(mat.row_frequencies[j]) / accel
            assert mat.occupancy[j].hex() == (math.exp(-x) * s).hex()
            assert mat.row_norms[j].hex() == (-math.expm1(-x) * s).hex()


def test_alpha_beta_thermal_ratio():
    """|beta_jk| = e^{-pi nu_j} |alpha_jk|, for every row and column."""
    a = 1.0
    k = _box_wavenumbers()
    for w in _wedge_grid(accel=a):
        ratio = _pairing(w, k, a, +1) / _pairing(w, k, a, -1)
        assert_allclose(ratio, -np.exp(-np.pi * w / a) * np.ones(len(k)), rtol=1e-7)


def test_pointwise_unit_wronskian():
    """|alpha_jk|^2 - |beta_jk|^2 = 1 / (2 pi a k) before weighting."""
    a = 1.0
    k = _box_wavenumbers()
    for w in _wedge_grid(n_freq=4, accel=a):
        lhs = np.abs(_pairing(w, k, a, -1)) ** 2 - np.abs(_pairing(w, k, a, +1)) ** 2
        assert_allclose(lhs, 1.0 / (2.0 * np.pi * a * k), rtol=1e-7)


def test_row_normalization_and_planck_occupancy():
    a = 1.0
    mat = bogolubov_coefficients(a, _wedge_grid(n_freq=8, accel=a))
    for w, occupancy, norm in zip(mat.row_frequencies, mat.occupancy, mat.row_norms):
        assert_allclose(norm, 1.0, atol=1e-10)
        planck = 1.0 / np.expm1(2.0 * np.pi * w / a)
        assert_allclose(occupancy, planck, rtol=1e-7)


def test_row_sums_match_the_direct_weighted_sums():
    """S_j = sum_k w_k |alpha_jk|^2 on box k grids, and the thermal-factor
    forms against sum_k w_k |beta|^2 and sum_k w_k (|alpha|^2 - |beta|^2),
    where those do not cancel.  The closed-form S_j takes e^(pi nu) and
    |Gamma|^2 in one exponent, the sums square e^(pi nu / 2) Gamma per column:
    they differ by rounding, up to 8.3e-15 relative on these grids."""
    for box_side, n_max, accel in ((100.0 * np.pi, 48, 1.0), (0.01, 2, 1.0),
                                   (1e4, 500, 1.0), (7.0, 9, 2.5)):
        omegas = _wedge_grid(n_freq=8, accel=accel)
        mat = bogolubov_coefficients(accel, omegas)
        k = _box_wavenumbers(box_side, n_max)
        weights = _column_weights(k, accel)
        for j, w in enumerate(omegas):
            alpha2 = np.abs(_pairing(w, k, accel, -1)) ** 2
            beta2 = np.abs(_pairing(w, k, accel, +1)) ** 2
            assert_allclose(mat.row_sums[j], np.sum(weights * alpha2), rtol=1e-12)
            assert_allclose(mat.occupancy[j], np.sum(weights * beta2), rtol=1e-12)
            assert_allclose(mat.row_norms[j], np.sum(weights * (alpha2 - beta2)), rtol=1e-12)


def test_occupancy_at_special_frequencies():
    """w = a ln(2) / (2 pi) gives exactly one quantum; a ln(3/2) / (2 pi) gives two."""
    accel = 1.0
    for target, n_exp in ((np.log(2.0), 1.0), (np.log(1.5), 2.0)):
        w = accel * target / (2.0 * np.pi)
        grid = np.geomspace(w / 2.0, 2.0 * w, 9)  # w is the geometric midpoint
        mat = bogolubov_coefficients(accel, grid)
        j = int(np.argmin(np.abs(mat.row_frequencies - w)))
        assert_allclose(mat.row_frequencies[j], w, rtol=1e-12)
        assert_allclose(mat.occupancy[j], n_exp, rtol=1e-7)


def test_wedge_validation():
    """The acceleration and the frequency grid are checked before any row is formed."""
    for omegas, message in [((), "Rindler basis needs at least one frequency"),
                            ((1.0, 0.5), "Rindler frequency grid must be strictly increasing"),
                            ((-1.0, 0.5), "Rindler frequencies must be positive and finite"),
                            ((np.nan,), "Rindler frequencies must be positive and finite"),
                            ((1.0, np.nan), "Rindler frequencies must be positive and finite"),
                            ((1.0, np.inf), "Rindler frequencies must be positive and finite")]:
        with pytest.raises(ModeBasisError, match=f"^{message}$"):
            bogolubov_coefficients(1.0, omegas)
    for accel, message in [(np.inf, "acceleration must be finite"),
                           (0.0, "acceleration must be positive"),
                           (np.nan, "acceleration must be positive")]:
        with pytest.raises(ModeBasisError, match=f"^{message}$"):
            bogolubov_coefficients(accel, (1.0, 2.0))
    mat = bogolubov_coefficients(3.0, (1.0, 2.0))
    assert mat.row_frequencies.tolist() == [1.0, 2.0]
