"""Bogolubov coefficients between box plane waves and Rindler wedge modes.

For the massless 2-D field the right-wedge right-movers restricted to the
t = 0 slice are g_w(x) = (a x)^(i w / a) / sqrt(4 pi w) on x > 0, and the
Klein-Gordon pairings with box plane waves reduce to half-line integrals

    I_P(s) = Int_0^inf (a x)^(i nu) e^(i s x) dx / x
    I_Q(s) = Int_0^inf (a x)^(i nu) e^(i s x) dx,        nu = w / a,

with s = -k for alpha-type overlaps and s = +k for beta-type overlaps.
Both integrals are oscillatory and only conditionally convergent.  Each is
split at the window edges |s| x = eta_L and eta_R, given in the log
coordinate z = ln(a x) by z_L(k) = ln(eta_L a / k), and evaluated in three
exact pieces:

* x -> 0 (horizon end): expand e^(i s x) in powers of s x and integrate
  term by term; the leading term carries the Abel-regularized value
  e^(i nu z_L) / (i nu).
* core window: composite Gauss-Legendre panels in b = z - z_L, where the
  phase nu b + sgn(s) eta_L e^b varies by only a few radians per panel.
* x -> inf: rotate the contour to x = x_R (1 + i sgn(s) u), where the
  integrand decays like e^(-eta_R u); Gauss-Laguerre finishes the job.

In b every piece is independent of k, so each column is one exact phase
times a factor per (nu, sign, quadrature settings):

    I_P(k) = e^(i nu z_L(k)) P(nu, sign),    I_Q(k) = e^(i nu z_L(k)) Q(nu, sign) / k.

One quadrature per wedge row and sign therefore serves every column, and
alpha and beta are (rows, columns) outer products of row factors with the
column phase.  The quadrature node tables are built once per settings.

Left-moving box modes (k < 0) pair to exactly zero with right-moving wedge
data: integrating the slice product by parts leaves a factor (k + |k|)
which vanishes identically, so those columns are stored as zeros.

Sharp (delta-normalized) wedge frequencies are used rather than wave
packets; the stored column weights fold the finite log-window mode
normalization, making each Bogolubov row sum to one.  Occupancy sums are
then directly comparable to the thermal spectrum.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial

import numpy as np

from .modes import MinkowskiModeBasis, ModeBasisError, RindlerModeBasis

__all__ = [
    "QuadratureError",
    "BogolubovMatrix",
    "bogolubov_coefficients",
    "rindler_occupancy_in_vacuum",
]


class QuadratureError(RuntimeError):
    """Raised when the overlap quadrature fails its self-consistency check."""


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:  # cached node tables are shared by every call
        arr.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class _QuadSettings:
    eta_left: float  # |s| x at which the horizon-end series takes over
    eta_right: float  # |s| x at which the rotated tail takes over
    panels: int
    gl_nodes: int
    laguerre_nodes: int
    series_terms: int

    @cached_property
    def core_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """Composite Gauss-Legendre nodes b on [0, ln(eta_R/eta_L)] and weight
        columns (w, w e^b) for the P and Q integrands."""
        edges = np.linspace(0.0, np.log(self.eta_right / self.eta_left), self.panels + 1)
        x, w = np.polynomial.legendre.leggauss(self.gl_nodes)
        half = 0.5 * np.diff(edges)[:, None]
        b = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * x).ravel()
        bw = (half * w).ravel()
        return _read_only(b, np.stack([bw, np.exp(b) * bw], axis=1))

    @cached_property
    def tail_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Laguerre nodes and weights for the rotated far tail."""
        return _read_only(*np.polynomial.laguerre.laggauss(self.laguerre_nodes))


_BASE = _QuadSettings(0.25, 36.0, 28, 16, 56, 20)
_FINE = _QuadSettings(0.12, 55.0, 44, 18, 80, 24)


def _row_factors(nu: np.ndarray, sign: int,
                 settings: _QuadSettings) -> tuple[np.ndarray, np.ndarray]:
    """k-independent factors P(nu, sign), Q(nu, sign) for every row of ``nu``."""
    eta_l, eta_r = settings.eta_left, settings.eta_right
    col = nu[:, None]

    # horizon-end series: sum_n (i sign eta_l)^n / n! * 1/(n + p + i nu)
    s_p = np.zeros(len(nu), dtype=complex)
    s_q = np.zeros(len(nu), dtype=complex)
    for n in range(settings.series_terms, 0, -1):
        term = (1j * sign * eta_l) ** n / factorial(n)
        s_p += term / (n + 1j * nu)
        s_q += term / (n + 1.0 + 1j * nu)
    s_q += 1.0 / (1.0 + 1j * nu)

    # core window in b = z - z_L; the reductions are einsum so that a row's
    # sum does not depend on how many rows share the call
    b, core_w = settings.core_rule
    osc = np.exp(1j * (col * b + sign * eta_l * np.exp(b)))
    core_p, core_q = np.einsum("rn,nc->cr", osc, core_w)

    # rotated far tail from |s| x_R = eta_r
    lag_x, lag_w = settings.tail_rule
    rot = 1.0 + 1j * sign * lag_x / eta_r
    lag0, lag1 = np.einsum("rn,nc->cr", np.exp(1j * col * np.log(rot)),
                           np.stack([lag_w / rot, lag_w], axis=1))
    phase_r = (np.exp(1j * nu * np.log(eta_r / eta_l)) * np.exp(1j * sign * eta_r)
               * (1j * sign / eta_r))

    p = 1.0 / (1j * nu) + s_p + core_p + phase_r * lag0
    q = eta_l * (s_q + core_q) + phase_r * eta_r * lag1
    return p, q


def _column_phase(nu: np.ndarray, k: np.ndarray, acceleration: float,
                  settings: _QuadSettings) -> np.ndarray:
    """e^(i nu z_L(k)), shape (rows, columns)."""
    return np.exp(1j * nu[:, None] * np.log(settings.eta_left * acceleration / k))


def _wedge_kernels(omegas: np.ndarray, k: np.ndarray, acceleration: float,
                   settings: _QuadSettings) -> tuple[np.ndarray, np.ndarray]:
    """alpha(w, k), beta(w, k) for every wedge row against k > 0 columns."""
    nu = omegas / acceleration
    p_minus, q_minus = _row_factors(nu, -1, settings)
    p_plus, q_plus = _row_factors(nu, +1, settings)
    column = _column_phase(nu, k, acceleration, settings) / (
        4.0 * np.pi * np.sqrt(k * omegas[:, None]))
    alpha = column * (nu * p_minus + q_minus)[:, None]
    beta = column * (q_plus - nu * p_plus)[:, None]
    return alpha, beta


@dataclass(frozen=True)
class BogolubovMatrix:
    """alpha/beta overlap matrices [rows x columns] plus column weights.

    ``weights`` implement the column sum as a quadrature over ln(k) folded
    with the finite-window normalization of the wedge modes, so each row
    satisfies sum_k weights (|alpha|^2 - |beta|^2) = 1.
    """

    row_frequencies: np.ndarray
    wavenumbers: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    weights: np.ndarray
    quadrature_error: float

    @property
    def n_rows(self) -> int:
        return self.alpha.shape[0]

    def row_normalization(self, j: int) -> float:
        if not (0 <= j < self.n_rows):
            raise IndexError(f"row {j} out of range")
        return float(np.sum(self.weights * (np.abs(self.alpha[j]) ** 2 - np.abs(self.beta[j]) ** 2)))


def _column_weights(k_pos: np.ndarray, acceleration: float) -> np.ndarray:
    lam = np.log(k_pos)
    window = lam[-1] - lam[0]
    cells = np.empty_like(lam)
    cells[0] = 0.5 * (lam[1] - lam[0])
    cells[-1] = 0.5 * (lam[-1] - lam[-2])
    if len(lam) > 2:
        cells[1:-1] = 0.5 * (lam[2:] - lam[:-2])
    return 2.0 * np.pi * acceleration * k_pos * cells / window


def bogolubov_coefficients(mink: MinkowskiModeBasis, rind: RindlerModeBasis, *,
                           rtol: float = 1e-6) -> BogolubovMatrix:
    """Overlap matrices between ``mink`` box modes and ``rind`` wedge modes.

    The wedge pairing requires a massless one-dimensional box basis with at
    least two positive-k modes.  Raises QuadratureError when the two
    quadrature settings disagree by more than ``rtol`` or the estimate is
    not finite.
    """
    if not isinstance(rind, RindlerModeBasis):
        raise ModeBasisError("second basis must be a Rindler wedge basis")
    if mink.backend.dimension != 1:
        raise ModeBasisError("wedge pairing is defined for 1 spatial dimension")
    if mink.mass != 0.0:
        raise ModeBasisError("wedge pairing requires a massless box basis")

    k_all = mink.wavevectors[:, 0]
    pos = np.where(k_all > 0.0)[0]
    if len(pos) < 2:
        raise ModeBasisError("need at least two positive-k box modes")
    k_pos = k_all[pos]
    a = rind.backend.acceleration
    omegas = np.asarray(rind.omegas, dtype=float)

    with np.errstate(all="ignore"):  # overflow shows up as a non-finite estimate
        alpha, beta = _wedge_kernels(omegas, k_pos, a, _BASE)
        alpha_f, beta_f = _wedge_kernels(omegas, k_pos, a, _FINE)
        err = max(
            float(np.max(np.abs(alpha - alpha_f) / np.abs(alpha_f))),
            float(np.max(np.abs(beta - beta_f) / np.maximum(np.abs(beta_f), 1e-30))),
        )
    if not err <= rtol:  # a NaN estimate fails too
        raise QuadratureError(
            f"overlap quadrature did not converge: estimated relative error {err:.3e} > {rtol:.1e}"
        )

    def scatter(values):  # left-mover columns stay exactly zero
        out = np.zeros(values.shape[:-1] + k_all.shape, dtype=values.dtype)
        out[..., pos] = values
        return out

    return BogolubovMatrix(
        row_frequencies=omegas,
        wavenumbers=k_all.copy(),
        alpha=scatter(alpha_f),
        beta=scatter(beta_f),
        weights=scatter(_column_weights(k_pos, a)),
        quadrature_error=err,
    )


def rindler_occupancy_in_vacuum(matrix: BogolubovMatrix, j: int) -> float:
    """<0_M| N_j |0_M> = weighted sum_k |beta_jk|^2 for wedge row j."""
    if not (0 <= j < matrix.n_rows):
        raise IndexError(f"row {j} out of range")
    return float(np.sum(matrix.weights * np.abs(matrix.beta[j]) ** 2))
