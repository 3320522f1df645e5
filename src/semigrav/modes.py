"""Mode bases for the quantized scalar field on each background.

A mode basis assigns dense integer indices to a finite set of positive-
frequency solutions of the Klein-Gordon equation and exposes the complex
mode-function coefficients (and their first derivatives) needed to assemble
field operators at a spacetime event.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .spacetime import EinsteinDeSitter, Minkowski, Rindler2D, BackendDomainError

__all__ = [
    "ModeBasisError",
    "MinkowskiModeBasis",
    "EdSModeBasis",
    "RindlerModeBasis",
    "minkowski_basis",
    "eds_basis",
    "eds_k0_mode",
    "rindler_basis",
    "default_rindler_grid",
    "wedge_kg_inner",
]


class ModeBasisError(ValueError):
    """Raised for invalid basis parameters or unsupported basis operations."""


def _dt_coeffs(basis, t, x) -> np.ndarray:  # d_t f_k, shape [..., n_modes]
    return basis.slot_factors(t)[..., 0, :] * basis.field_coeffs(t, x)


def _dx_coeffs(basis, t, x) -> np.ndarray:  # d_xi f_k, shape [..., n_modes, d]
    grad = basis.slot_factors(t)[..., 1:-1, :] * basis.field_coeffs(t, x)[..., None, :]
    return np.moveaxis(grad, -2, -1)


@dataclass(frozen=True)
class MinkowskiModeBasis:
    """Periodic box modes f_k(x,t) = exp(-i(w t - k.x)) / sqrt(2 w V).

    Labels are integer vectors n with |n_i| <= n_max and k = 2 pi n / L;
    for a massless field the n = 0 zero mode is excluded.  In sorted order,
    the label of mode i is the digits of i (i + 1 past a massless zero mode)
    in base 2 n_max + 1, offset by n_max; i is a Python int, maybe >= 2^63.
    """

    backend: Minkowski
    mass: float
    n_max: int

    @property
    def n_modes(self) -> int:
        return (2 * self.n_max + 1) ** self.backend.dimension - (self.mass == 0.0)

    def mode_index(self, label: tuple[int, ...]) -> int:
        n, d, centre = self.n_max, self.backend.dimension, self.n_modes // 2
        if len(label) == d and all(-n <= c <= n and int(c) == c for c in label):
            index = sum((int(c) + n) * (2 * n + 1) ** (d - 1 - a) for a, c in enumerate(label))
            if self.mass != 0.0 or index != centre:  # a massless basis skips the zero mode
                return index - (self.mass == 0.0 and index > centre)
        raise ModeBasisError(f"label {label} not in basis")

    def wavevectors(self, modes=slice(None)) -> np.ndarray:
        """k = 2 pi n / L of the modes indexed, shape (n, d)."""
        dtype = np.int64 if self.n_modes < 2**63 else object
        index = (np.arange(*modes.indices(self.n_modes), dtype=dtype) if isinstance(modes, slice)
                 else np.array(modes, dtype=dtype))
        index = index + (self.mass == 0.0) * (index >= self.n_modes // 2)
        base, d = 2 * self.n_max + 1, self.backend.dimension
        labels = np.stack([index // base ** (d - 1 - a) % base for a in range(d)], axis=-1)
        return 2.0 * np.pi * (labels - self.n_max).astype(float) / self.backend.box_side

    def frequencies(self, modes=slice(None)) -> np.ndarray:
        """w = sqrt(k^2 + m^2) of the modes indexed, shape (n,)."""
        return np.sqrt(np.sum(self.wavevectors(modes) ** 2, axis=1) + self.mass**2)

    def _modes(self, modes) -> tuple[np.ndarray, np.ndarray]:
        key = range(*modes.indices(self.n_modes)) if isinstance(modes, slice) else tuple(modes)
        return self._cached_modes(key)

    @functools.lru_cache(maxsize=8)
    def _cached_modes(self, modes: tuple | range) -> tuple[np.ndarray, np.ndarray]:
        """k and w of the modes indexed: once for all blocks of a ``stress_field`` call."""
        return self.wavevectors(modes), self.frequencies(modes)

    # ---- field-operator coefficients at events ----------------------------
    def field_coeffs(self, t, x, modes=slice(None)) -> np.ndarray:
        """f_k at the events for the modes indexed: t (...), x (..., d) -> (..., n)."""
        t = np.asarray(t, dtype=float)[..., None]
        x = np.atleast_1d(np.asarray(x, dtype=float))
        k, w = self._modes(modes)
        # einsum (not BLAS: rows independent of the other events), then in place
        f = 1j * (np.einsum("...d,kd->...k", x, k) - w * t)
        np.exp(f, out=f)
        f /= np.sqrt(2.0 * w * self.backend.spatial_volume)
        return f

    def slot_factors(self, t, modes=slice(None)) -> np.ndarray:
        """Constant factors of (d_t, d_x1, ..., d_xd, 1) f_k: -i w_k, i k_k, 1; [d+2, n]."""
        k, w = self._modes(modes)
        return np.vstack([-1j * w, 1j * k.T, np.ones_like(w)])

    dt_coeffs = _dt_coeffs
    dx_coeffs = _dx_coeffs


def minkowski_basis(box_side: float, dimension: int, mass: float, n_max: int) -> MinkowskiModeBasis:
    if mass < 0.0:
        raise ModeBasisError("mass must be non-negative")
    if n_max < 0:
        raise ModeBasisError("n_max must be non-negative")
    if mass == 0.0 and n_max == 0:
        raise ModeBasisError("empty basis: massless field with n_max = 0 has no modes")
    return MinkowskiModeBasis(Minkowski(dimension=dimension, box_side=box_side), mass, n_max)


def eds_k0_mode(t, mass: float, comoving_volume: float):
    """The exact k = 0 mode f0(t) = exp(-i m t) / (t sqrt(2 m V0)), t > 0.

    f0 solves the curved-space Klein-Gordon equation
    f'' + (2/t) f' + m^2 f = 0 exactly on the a(t) = t^(2/3) background and
    has unit Klein-Gordon norm with the measure V0 t^2.  ``t`` may be an array.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0.0):
        raise BackendDomainError("Einstein-de Sitter chart requires t > 0")
    if not (mass > 0.0):
        raise ModeBasisError("the k = 0 mode requires mass > 0")
    if not (comoving_volume > 0.0):
        raise ModeBasisError("comoving_volume must be positive")
    return np.exp(-1j * mass * t) / (t * np.sqrt(2.0 * mass * comoving_volume))


@dataclass(frozen=True)
class EdSModeBasis:
    """Single-mode basis holding the exact k = 0 solution on the dust background."""

    backend: EinsteinDeSitter
    mass: float

    @property
    def n_modes(self) -> int:
        return 1

    def field_coeffs(self, t, x, modes=slice(None)) -> np.ndarray:
        """f0 at the events: t of shape (...) -> (..., 1), or (..., 0) with no mode indexed."""
        return eds_k0_mode(t, self.mass, self.backend.comoving_volume)[..., None][..., modes]

    def slot_factors(self, t, modes=slice(None)) -> np.ndarray:
        """Factors of (d_t, d_x1, d_x2, d_x3, 1) f0: -i m - 1/t, 0, 0, 0, 1; [..., 5, 1]."""
        t = np.asarray(t, dtype=float)
        if not np.all(t > 0.0):
            raise BackendDomainError("Einstein-de Sitter chart requires t > 0")
        out = np.zeros(t.shape + (self.backend.dimension + 2, 1), dtype=complex)
        out[..., 0, 0] = -1j * self.mass - 1.0 / t
        out[..., -1, 0] = 1.0
        return out[..., modes]

    dt_coeffs = _dt_coeffs
    dx_coeffs = _dx_coeffs


def eds_basis(comoving_volume: float, mass: float) -> EdSModeBasis:
    if not (mass > 0.0):
        raise ModeBasisError("mass must be positive")
    return EdSModeBasis(backend=EinsteinDeSitter(comoving_volume=comoving_volume), mass=mass)


@dataclass(frozen=True)
class RindlerModeBasis:
    """Right-wedge massless modes, positive frequency in wedge time tau.

    Right-movers g_j(tau, xi) = exp(-i w_j (tau - xi)) / sqrt(4 w_j Xi),
    normalized so the Klein-Gordon self-inner-product over the window
    xi in [-Xi, Xi] equals +1.
    """

    backend: Rindler2D
    omegas: tuple[float, ...]
    xi_halfwidth: float

    @property
    def n_modes(self) -> int:
        return len(self.omegas)

    def mode_function(self, j: int, tau: float, xi) -> np.ndarray:
        w = self.omegas[j]
        xi = np.asarray(xi, dtype=float)
        return np.exp(-1j * w * (tau - xi)) / np.sqrt(4.0 * w * self.xi_halfwidth)

    def dtau_mode(self, j: int, tau: float, xi) -> np.ndarray:
        return -1j * self.omegas[j] * self.mode_function(j, tau, xi)


def rindler_basis(acceleration: float, omegas, xi_halfwidth: float | None = None) -> RindlerModeBasis:
    backend = Rindler2D(acceleration=acceleration)
    omegas = tuple(float(w) for w in omegas)
    if not omegas:
        raise ModeBasisError("Rindler basis needs at least one frequency")
    if any(w <= 0.0 for w in omegas):
        raise ModeBasisError("Rindler frequencies must be positive")
    if any(b <= a for a, b in zip(omegas, omegas[1:])):
        raise ModeBasisError("Rindler frequency grid must be strictly increasing")
    if xi_halfwidth is None:
        xi_halfwidth = 20.0 / acceleration
    if not (xi_halfwidth > 0.0):
        raise ModeBasisError("xi_halfwidth must be positive")
    return RindlerModeBasis(backend=backend, omegas=omegas, xi_halfwidth=xi_halfwidth)


def default_rindler_grid(acceleration: float, n: int = 16, lo: float = 0.1, hi: float = 3.0) -> np.ndarray:
    """Log-spaced wedge frequencies in [lo*a, hi*a] (16 points by default)."""
    if n < 1:
        raise ModeBasisError("grid needs at least one point")
    return np.geomspace(lo * acceleration, hi * acceleration, n)


def wedge_kg_inner(basis: RindlerModeBasis, i: int, j: int, n_points: int = 2001) -> complex:
    """Klein-Gordon inner product (g_i, g_j) over the wedge window at tau = 0.

    In the conformal chart the measure factors cancel, leaving
    i Integral dxi [conj(g_i) dtau g_j - conj(dtau g_i) g_j], evaluated here
    with a composite trapezoid rule.
    """
    xi = np.linspace(-basis.xi_halfwidth, basis.xi_halfwidth, n_points)
    gi = basis.mode_function(i, 0.0, xi)
    gj = basis.mode_function(j, 0.0, xi)
    dgi = basis.dtau_mode(i, 0.0, xi)
    dgj = basis.dtau_mode(j, 0.0, xi)
    integrand = 1j * (np.conj(gi) * dgj - np.conj(dgi) * gj)
    return complex(np.trapezoid(integrand, xi))
