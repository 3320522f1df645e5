"""Bogolubov rows between the inertial vacuum and Rindler wedge modes.

For the massless 2-D field the right-wedge right-movers on the t = 0 slice
are the sharp g_w(x) = (a x)^(i w / a) / sqrt(4 pi w), x > 0.  Their
overlaps alpha_jk with box plane waves k > 0 obey |beta_jk| =
e^(-pi nu) |alpha_jk|, nu = w_j / a, and with the finite log-window
normalization of the wedge modes folded into column weights w_k, each row
sums to the same number on any k grid:

    S_j = sum_k w_k |alpha_jk|^2 = nu e^(pi nu) |Gamma(i nu)|^2 / (2 pi)
        = 1 / (1 - e^(-2 pi nu))   once |Gamma(i nu)|^2 = pi / (nu sinh pi nu),

so sum_k w_k |beta_jk|^2 = e^(-2 pi nu) S_j is the Planck occupancy
1 / (e^(2 pi nu) - 1).  ``tests/test_bogolubov.py`` holds the per-column
derivation: the closed forms of alpha and beta, their check against a
quadrature of the pairing integrals, and this identity on box k grids.
Here only S_j is formed, from ``_loggamma`` in one exponent, so e^(pi nu)
and the e^(-pi nu) decay of |Gamma(i nu)|^2 cancel there: the rows check
the Gamma factor, not a discretization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modes import ModeBasisError, RindlerModeBasis

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
    """The wedge rows, each as its sum S_j = sum_k w_k |alpha_jk|^2, with the
    row frequencies and the acceleration.  |beta|^2 = e^(-2 pi nu)|alpha|^2
    makes each row sum S_j times a factor: no cancellation, no underflow."""

    row_frequencies: np.ndarray
    row_sums: np.ndarray
    acceleration: float

    @property
    def n_rows(self) -> int:
        return len(self.row_sums)

    def _row_sum(self, j: int) -> tuple[float, float]:
        """S_j and 2 pi nu_j."""
        if not (0 <= j < self.n_rows):
            raise IndexError(f"row {j} out of range")
        return (float(self.row_sums[j]),
                2.0 * np.pi * float(self.row_frequencies[j]) / self.acceleration)

    def row_normalization(self, j: int) -> float:
        """sum_k w_k (|alpha_jk|^2 - |beta_jk|^2) = (1 - e^(-2 pi nu_j)) S_j."""
        s, x = self._row_sum(j)
        return -math.expm1(-x) * s


def bogolubov_coefficients(rind: RindlerModeBasis) -> BogolubovMatrix:
    """The row sums S_j = nu e^(pi nu) |Gamma(i nu)|^2 / (2 pi) of ``rind``'s modes."""
    if not isinstance(rind, RindlerModeBasis):
        raise ModeBasisError("the basis must be a Rindler wedge basis")
    a = rind.backend.acceleration
    omegas = np.asarray(rind.omegas, dtype=float)
    nu = omegas / a
    row_sums = nu * np.exp(np.pi * nu + 2.0 * _loggamma(1j * nu).real) / (2.0 * np.pi)
    return BogolubovMatrix(row_frequencies=omegas, row_sums=row_sums, acceleration=a)


def rindler_occupancy_in_vacuum(matrix: BogolubovMatrix, j: int) -> float:
    """<0_M| N_j |0_M> = sum_k w_k |beta_jk|^2 = e^(-2 pi nu_j) S_j for wedge row j."""
    s, x = matrix._row_sum(j)
    return math.exp(-x) * s
