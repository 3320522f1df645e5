"""Bogolubov coefficients between box plane waves and Rindler wedge modes.

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
    beta(w, k)  = -e^(-pi nu) alpha(w, k),

so each row is one Gamma factor times an exact phase per column.  Gamma
enters through ``_loggamma``, so that e^(pi nu / 2) and the e^(-pi nu / 2)
decay of |Gamma(i nu)| cancel in the exponent.

Left-moving box modes (k < 0) pair to exactly zero with right-moving wedge
data: integrating the slice product by parts leaves a factor (k + |k|)
which vanishes identically, so those columns are stored as zeros.

Sharp (delta-normalized) wedge frequencies are used rather than wave
packets; the stored column weights fold the finite log-window mode
normalization, making each Bogolubov row sum to one.  Occupancy sums are
then directly comparable to the thermal spectrum.  With weights
proportional to k times the log-k cell, sum_k weights |beta|^2 equals
1 / (e^(2 pi nu) - 1) on any k grid once |Gamma(i nu)|^2 = pi / (nu sinh pi nu),
so the occupancy checks the Gamma factor rather than a discretization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modes import MinkowskiModeBasis, ModeBasisError, RindlerModeBasis

__all__ = [
    "BogolubovMatrix",
    "bogolubov_coefficients",
    "rindler_occupancy_in_vacuum",
]

# B_2n / (2n (2n - 1)) for n = 1..8: the Stirling series of ln Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)


def _loggamma(z: np.ndarray) -> np.ndarray:
    """Principal branch of ln Gamma(z) for Re z >= 0, z != 0.

    The recurrence shifts z by 12, where 8 Stirling terms leave an error
    below 1e-19; the 12 principal logs it subtracts keep the branch
    continuous from the positive real axis.
    """
    w = z + 12.0
    inv_w2 = 1.0 / (w * w)
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * inv_w2 + c
    shift = sum(np.log(z + j) for j in range(12))
    return (w - 0.5) * np.log(w) - w + 0.5 * np.log(2.0 * np.pi) + series / w - shift


@dataclass(frozen=True)
class BogolubovMatrix:
    """alpha/beta overlap matrices [rows x columns], column weights and acceleration.

    ``weights`` implement the column sum as a quadrature over ln(k) folded
    with the finite-window normalization of the wedge modes, so each row
    satisfies sum_k weights (|alpha|^2 - |beta|^2) = 1.
    """

    row_frequencies: np.ndarray
    wavenumbers: np.ndarray
    alpha: np.ndarray
    weights: np.ndarray
    acceleration: float

    @property
    def n_rows(self) -> int:
        return self.alpha.shape[0]

    @property
    def beta(self) -> np.ndarray:
        return -np.exp(-np.pi * self.row_frequencies / self.acceleration)[:, None] * self.alpha

    def _row_sum(self, j: int) -> tuple[float, float]:
        """S_j = sum_k weights |alpha_jk|^2 and 2 pi nu_j.  |beta|^2 = e^(-2 pi nu)|alpha|^2
        makes each row sum S_j times a factor: no cancellation, no underflow."""
        if not (0 <= j < self.n_rows):
            raise IndexError(f"row {j} out of range")
        s = float(np.sum(self.weights * np.abs(self.alpha[j]) ** 2))
        return s, 2.0 * np.pi * float(self.row_frequencies[j]) / self.acceleration

    def row_normalization(self, j: int) -> float:
        """sum_k weights (|alpha_jk|^2 - |beta_jk|^2) = (1 - e^(-2 pi nu_j)) S_j."""
        s, x = self._row_sum(j)
        return -math.expm1(-x) * s


def _column_weights(k_pos: np.ndarray, acceleration: float) -> np.ndarray:
    lam = np.log(k_pos)
    window = lam[-1] - lam[0]
    cells = np.empty_like(lam)
    cells[0] = 0.5 * (lam[1] - lam[0])
    cells[-1] = 0.5 * (lam[-1] - lam[-2])
    if len(lam) > 2:
        cells[1:-1] = 0.5 * (lam[2:] - lam[:-2])
    return 2.0 * np.pi * acceleration * k_pos * cells / window


def bogolubov_coefficients(mink: MinkowskiModeBasis, rind: RindlerModeBasis) -> BogolubovMatrix:
    """Overlap matrices between ``mink`` box modes and ``rind`` wedge modes.

    The wedge pairing requires a massless one-dimensional box basis with at
    least two positive-k modes.
    """
    if not isinstance(rind, RindlerModeBasis):
        raise ModeBasisError("second basis must be a Rindler wedge basis")
    if mink.backend.dimension != 1:
        raise ModeBasisError("wedge pairing is defined for 1 spatial dimension")
    if mink.mass != 0.0:
        raise ModeBasisError("wedge pairing requires a massless box basis")

    k_all = mink.wavevectors()[:, 0]
    pos = np.where(k_all > 0.0)[0]
    if len(pos) < 2:
        raise ModeBasisError("need at least two positive-k box modes")
    k_pos = k_all[pos]
    a = rind.backend.acceleration
    omegas = np.asarray(rind.omegas, dtype=float)
    nu = omegas / a

    row = 2.0 * nu * np.exp(0.5 * np.pi * nu + _loggamma(1j * nu)) / (4.0 * np.pi)
    alpha = (row[:, None] * np.exp(1j * nu[:, None] * np.log(a / k_pos))
             / np.sqrt(k_pos * omegas[:, None]))

    def scatter(values):  # left-mover columns stay exactly zero
        out = np.zeros(values.shape[:-1] + k_all.shape, dtype=values.dtype)
        out[..., pos] = values
        return out

    return BogolubovMatrix(
        row_frequencies=omegas,
        wavenumbers=k_all,
        alpha=scatter(alpha),
        weights=scatter(_column_weights(k_pos, a)),
        acceleration=a,
    )


def rindler_occupancy_in_vacuum(matrix: BogolubovMatrix, j: int) -> float:
    """<0_M| N_j |0_M> = weighted sum_k |beta_jk|^2 = e^(-2 pi nu_j) S_j for wedge row j."""
    s, x = matrix._row_sum(j)
    return math.exp(-x) * s
