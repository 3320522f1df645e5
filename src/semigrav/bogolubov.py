"""Bogolubov rows between the inertial vacuum and Rindler wedge modes.

The wedge is its frequency grid: ``bogolubov_coefficients`` takes the
proper acceleration a and the frequencies w_j, validates both, and returns
every row in closed form.

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
Here S_j is formed from ``_loggamma`` in one exponent, so e^(pi nu) and
the e^(-pi nu) decay of |Gamma(i nu)|^2 cancel there, and the occupancy
and the row norm are S_j times e^(-2 pi nu) and 1 - e^(-2 pi nu): the rows
check the Gamma factor, not a discretization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modes import ModeBasisError

__all__ = [
    "BogolubovMatrix",
    "bogolubov_coefficients",
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
    """The wedge rows of a frequency grid, each as its sum S_j = sum_k w_k |alpha_jk|^2.

    |beta|^2 = e^(-2 pi nu)|alpha|^2 makes the other two row sums S_j times a
    factor, with no cancellation and no underflow: the vacuum ``occupancy``
    sum_k w_k |beta_jk|^2 = e^(-2 pi nu_j) S_j and the ``row_norms``
    sum_k w_k (|alpha_jk|^2 - |beta_jk|^2) = (1 - e^(-2 pi nu_j)) S_j.
    """

    row_frequencies: np.ndarray
    row_sums: np.ndarray
    occupancy: tuple[float, ...]
    row_norms: tuple[float, ...]


def bogolubov_coefficients(acceleration: float, omegas) -> BogolubovMatrix:
    """The wedge rows of the frequencies ``omegas`` at proper acceleration
    ``acceleration``: S_j = nu e^(pi nu) |Gamma(i nu)|^2 / (2 pi), nu = w_j / a."""
    if not acceleration > 0.0:
        raise ModeBasisError("acceleration must be positive")
    if acceleration == np.inf:
        raise ModeBasisError("acceleration must be finite")
    omegas = tuple(float(w) for w in omegas)
    if not omegas:
        raise ModeBasisError("Rindler basis needs at least one frequency")
    if not all(0.0 < w < np.inf for w in omegas):
        raise ModeBasisError("Rindler frequencies must be positive and finite")
    if any(b <= a for a, b in zip(omegas, omegas[1:])):
        raise ModeBasisError("Rindler frequency grid must be strictly increasing")
    row_frequencies = np.array(omegas)
    nu = row_frequencies / acceleration
    row_sums = nu * np.exp(np.pi * nu + 2.0 * _loggamma(1j * nu).real) / (2.0 * np.pi)
    # math.exp and math.expm1 per row, not np.exp: the report tables rest on these bits
    x = [2.0 * math.pi * w / acceleration for w in omegas]
    s = row_sums.tolist()
    return BogolubovMatrix(row_frequencies=row_frequencies, row_sums=row_sums,
                           occupancy=tuple(math.exp(-xj) * sj for xj, sj in zip(x, s)),
                           row_norms=tuple(-math.expm1(-xj) * sj for xj, sj in zip(x, s)))
