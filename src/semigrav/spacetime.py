"""Fixed background spacetimes: metrics, Einstein tensors, and light cones.

Two backgrounds are supported, each with closed-form curvature so that
no numerical relativity is ever needed:

* ``Minkowski``     -- flat space in a periodic box of side L, d spatial dims.
* ``EinsteinDeSitter`` -- spatially flat matter-dominated cosmology with
  scale factor a(t) = t^(2/3), valid for t > 0.

The Rindler wedge needs no background here: its Bogolubov rows depend on
the acceleration and the frequencies alone (``bogolubov``).

Signature convention is (+, -, ..., -) throughout.  Every metric and
Einstein tensor here is diagonal, so each is carried as its (..., d+1) diagonal.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "BackendDomainError",
    "Minkowski",
    "EinsteinDeSitter",
    "Backend",
    "metric",
    "einstein_tensor",
    "outside_future_cone",
]


class BackendDomainError(ValueError):
    """Raised when an event lies outside a backend's coordinate domain."""


@dataclass(frozen=True)
class Minkowski:
    """Flat spacetime with periodic spatial box of side ``box_side``."""

    dimension: int = 3
    box_side: float = 10.0

    def __post_init__(self):
        if self.dimension < 1:
            raise BackendDomainError("dimension must be >= 1")
        if not (0.0 < self.box_side < np.inf):
            raise BackendDomainError("box_side must be positive and finite")

    @property
    def spatial_volume(self) -> float:
        return self.box_side**self.dimension


@dataclass(frozen=True)
class EinsteinDeSitter:
    """Matter-dominated flat FRW background, a(t) = t^(2/3), t > 0.

    ``comoving_volume`` is the fiducial comoving box V0; the proper volume
    element at time t is V0 * t^2.
    """

    comoving_volume: float

    def __post_init__(self):
        if not (0.0 < self.comoving_volume < np.inf):
            raise BackendDomainError("comoving_volume must be positive and finite")

    @property
    def dimension(self) -> int:
        return 3


Backend = Union[Minkowski, EinsteinDeSitter]


def _event_diagonal(backend: Backend, t, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked event arrays and a zero tensor diagonal, shape (events..., d+1)."""
    t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    d = x.shape[-1] if x.ndim else 0
    if d != backend.dimension:
        raise BackendDomainError(
            f"event has {d} spatial coordinates, backend expects {backend.dimension}")
    if isinstance(backend, EinsteinDeSitter) and not (t > 0.0).all():
        raise BackendDomainError("Einstein-de Sitter chart requires t > 0")
    shape = t.shape if t.shape == x.shape[:-1] else np.broadcast_shapes(t.shape, x.shape[:-1])
    return t, x, np.zeros(shape + (d + 1,))


def metric(backend: Backend, t, x) -> np.ndarray:
    """Diagonal of the covariant metric g_{mu nu} at the events: t (...) and
    x (..., d) -> (..., d+1).  Every background here is diagonal."""
    t, x, diag = _event_diagonal(backend, t, x)
    # scale factor squared: a^2 = t^(4/3) on the dust background, 1 in the box
    diag[...] = -(t[..., None] ** (4.0 / 3.0)) if isinstance(backend, EinsteinDeSitter) else -1
    diag[..., 0] = 1.0
    return diag


def einstein_tensor(backend: Backend, t, x) -> np.ndarray:
    """Diagonal of the covariant Einstein tensor G_{mu nu} at the events (t, x)
    (closed form); it has no off-diagonal components on these backgrounds.

    Shapes as for ``metric``.  Minkowski is flat: identically zero.  For the
    Einstein-de Sitter background the Friedmann equations with a = t^(2/3)
    give G_00 = 3 (a'/a)^2 = 4/(3 t^2) and G_ij = -(2 a a'' + a'^2) delta_ij,
    which vanishes exactly for dust.
    """
    t, x, diag = _event_diagonal(backend, t, x)
    if isinstance(backend, EinsteinDeSitter):
        diag[..., 0] = 4.0 / (3.0 * t**2)
        # spatial components: 2*a*a'' + a'^2 = 0 for a = t^(2/3)
    return diag


def outside_future_cone(t0, x0, t, x) -> np.ndarray:
    """True where probes (t, x) lie strictly outside the future light cone of (t0, x0).

    Shapes as for ``metric``: t (...) and x (..., d) give a bool array (...),
    for a scalar t0 and x0 (d,).  The null boundary counts as inside.  Probes
    earlier than t0, or at a NaN separation, are outside its *future* cone.
    """
    t0, x0 = np.asarray(t0, dtype=float), np.asarray(x0, dtype=float)
    t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    if t0.ndim:
        raise ValueError(f"origin time t0 must be a scalar, not shape {t0.shape}")
    if x0.ndim != 1 or x.shape[-1:] != x0.shape:
        raise ValueError(f"origin point x0 has shape {x0.shape}, probes x have {x.shape}")
    dt, dx = t - t0, x - x0
    # inside is distance <= dt, which an earlier probe (dt < 0 <= distance) and a NaN fail
    return ~(np.sqrt(np.vecdot(dx, dx)) <= dt)
