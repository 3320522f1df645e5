"""Mode bases for the quantized scalar field on each background.

A mode basis assigns dense integer indices to a finite set of positive-
frequency solutions of the Klein-Gordon equation.  The box and dust bases
expose the complex mode-function coefficients (and their first derivatives)
needed to assemble field operators at a spacetime event.  The Rindler wedge
modes have no basis object: they are their frequency grid, which
``bogolubov.bogolubov_coefficients`` validates and turns into rows.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .spacetime import EinsteinDeSitter, Minkowski, BackendDomainError

__all__ = [
    "ModeBasisError",
    "MinkowskiModeBasis",
    "EdSModeBasis",
    "minkowski_basis",
    "eds_basis",
    "eds_k0_mode",
]


class ModeBasisError(ValueError):
    """Raised for invalid basis parameters or unsupported basis operations."""


def _progression(index: list):  # a slice if ``index`` (not empty) is a progression, else an array
    step = index[1] - index[0] if len(index) > 1 else 1
    stop = index[0] + step * len(index)
    if step and index == list(range(index[0], stop, step)):
        return slice(index[0], stop if stop >= 0 else None, step)
    return np.array(index, dtype=np.intp)


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
        n = self.n_max
        if len(label) == self.backend.dimension:
            index = 0
            for c in label:  # the digits c + n of the index in base 2 n + 1, leading first
                if not (-n <= c <= n and int(c) == c):
                    break
                index = index * (2 * n + 1) + int(c) + n
            else:
                centre = self.n_modes // 2
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

    def _modes(self, modes) -> tuple:
        key = range(*modes.indices(self.n_modes)) if isinstance(modes, slice) else tuple(modes)
        return self._cached_modes(key)

    @functools.lru_cache(maxsize=8)
    def _cached_modes(self, modes: tuple | range) -> tuple:
        """k, w and 1/sqrt(2 w V) of the modes indexed, once for all blocks of a ``stress_field``
        call, and their +- pairs (or None): mode i's mirror n_modes - 1 - i has -k and the same
        w, so a mode whose mirror came earlier is column ``mirror[j]``, the conjugate of ``lead``
        column ``partner[j]``; a slice where it is a progression, as on any symmetric support."""
        lead, partner, mirror, seen = [], [], [], {}
        for j, mode in enumerate(modes):
            if self.n_modes - 1 - mode in seen:
                partner.append(seen[self.n_modes - 1 - mode])
                mirror.append(j)
            else:
                seen[mode] = len(lead)
                lead.append(j)
        k, w = self.wavevectors(modes), self.frequencies(modes)
        pairs = tuple(map(_progression, (lead, partner, mirror))) if mirror else None
        return k, w, 1.0 / np.sqrt(2.0 * w * self.backend.spatial_volume), pairs

    # ---- field-operator coefficients at events ----------------------------
    def field_coeffs(self, t, x, modes=slice(None)) -> np.ndarray:
        """f_k at the events for the modes indexed: t (...), x (..., d) -> (..., n).

        Bit for bit exp(1j (k.x - w t)) / sqrt(2 w V): numpy divides by a real r as (re + im 0)
        (1/r), re (a cosine) is never 0 and exp(1j z) has no -0.0 imaginary part.  At t = +-0,
        w t is a signed zero that exp drops: exp runs once per +- pair, the mirror's column the
        conjugate, its imaginary part 0.0 - imag to keep the direct path's +0 at a zero phase."""
        t = np.asarray(t, dtype=float)[..., None]
        x = np.atleast_1d(np.asarray(x, dtype=float))
        k, w, scale, pairs = self._modes(modes)
        paired = pairs is not None and not t.any()
        lead, partner, mirror = pairs if paired else (slice(None),) * 3
        # einsum (not BLAS: rows independent of the other events), then in place
        phase = np.einsum("...d,kd->...k", x, k[lead])
        f = 1j * (phase if paired else phase - w * t)
        np.exp(f, out=f)
        f *= scale[lead]
        if not paired:
            return f
        g, f = f, np.empty(f.shape[:-1] + (len(w),), dtype=complex)
        f[..., lead] = g
        f.real[..., mirror] = g.real[..., partner]
        f.imag[..., mirror] = 0.0 - g.imag[..., partner]
        return f

    def slot_factors(self, t, modes=slice(None)) -> np.ndarray:
        """Constant factors of (d_t, d_x1, ..., d_xd, 1) f_k: -i w_k, i k_k, 1; [d+2, n]."""
        k, w, *_ = self._modes(modes)
        return np.vstack([-1j * w, 1j * k.T, np.ones_like(w)])

    dt_coeffs = _dt_coeffs
    dx_coeffs = _dx_coeffs


def minkowski_basis(box_side: float, dimension: int, mass: float, n_max: int) -> MinkowskiModeBasis:
    if not (0.0 <= mass < np.inf):
        raise ModeBasisError("mass must be non-negative and finite")
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
    if not (t > 0.0).all():
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

    def field_coeffs(self, t, x, modes=(0,)) -> np.ndarray:
        """f0 at the events: t of shape (...) -> (..., 1), or (..., 0) with no mode indexed."""
        return eds_k0_mode(t, self.mass, self.backend.comoving_volume)[..., None].take(modes, -1)

    def slot_factors(self, t, modes=(0,)) -> np.ndarray:
        """Factors of (d_t, d_x1, d_x2, d_x3, 1) f0: -i m - 1/t, 0, 0, 0, 1; [..., 5, 1]."""
        t = np.asarray(t, dtype=float)
        if not (t > 0.0).all():
            raise BackendDomainError("Einstein-de Sitter chart requires t > 0")
        out = np.zeros(t.shape + (self.backend.dimension + 2, 1), dtype=complex)
        out[..., 0, 0] = -1j * self.mass - 1.0 / t
        out[..., -1, 0] = 1.0
        return out.take(modes, -1)

    dt_coeffs = _dt_coeffs
    dx_coeffs = _dx_coeffs


def eds_basis(comoving_volume: float, mass: float) -> EdSModeBasis:
    if not (0.0 < mass < np.inf):
        raise ModeBasisError("mass must be positive and finite")
    return EdSModeBasis(backend=EinsteinDeSitter(comoving_volume=comoving_volume), mass=mass)
