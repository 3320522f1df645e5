"""Self-consistency residuals of the semiclassical Einstein equation.

The residual at an event is the component-wise sup norm |G_mn - 8 pi <T_mn>|
on the state's own background, whose G is diagonal (off the diagonal the
norm reads |8 pi T_mn|); a state is self-consistent on a grid when the
global maximum vanishes.  Scaling studies certify how residuals decay as a
volume parameter grows (log-log slope), and a golden-section search fits a
scalar parameter (such as the field mass) by minimizing the residual over
a reference grid.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, sqrt
from typing import Callable, Sequence

import numpy as np

from .spacetime import einstein_tensor
from .stress_energy import stress_field

__all__ = [
    "ResidualReport",
    "ScalingStudy",
    "FitResult",
    "residual",
    "scaling_study",
    "fit_parameter",
]

EIGHT_PI = 8.0 * np.pi


@dataclass(frozen=True)
class ResidualReport:
    """Per-event and global sup-norm residuals of G = 8 pi T, one per event in
    the caller's order, with the <T_mn> array (E, d+1, d+1) they came from.
    The events themselves stay with the caller."""

    per_event: tuple[float, ...]
    global_max: float
    stress: np.ndarray = field(repr=False, compare=False)


def residual(state, t, x) -> ResidualReport:
    """Max-component |G_mn - 8 pi <T_mn>| at each event plus the global max.

    G is that of the state's backend; the events are x (E, d) with t
    broadcasting to (E,), as for ``stress_field``, which checks them, and
    ``einstein_tensor``.  The report holds what is computed, not the events.
    """
    x = np.asarray(x, dtype=float)
    if not x.size:
        raise ValueError("residual needs a nonempty event grid")
    stress = stress_field(state, t, x)
    # G is diagonal: off it the residual is |8 pi T|, on it |G - 8 pi T| (stride d+2)
    per = np.abs(EIGHT_PI * stress)
    G = einstein_tensor(state.basis.backend, t, x)
    per.reshape(len(x), -1)[:, ::x.shape[1] + 2] = np.abs(G - EIGHT_PI * stress.diagonal(0, 1, 2))
    per = per.max(axis=(1, 2))
    return ResidualReport(tuple(per.tolist()), float(per.max()), stress)


@dataclass(frozen=True)
class ScalingStudy:
    """Observable sampled over a growing parameter, with log-log slope."""

    parameter: str
    values: tuple[float, ...]
    observables: tuple[float, ...]
    slope: float | None
    status: str  # "ok", "undefined(zero)" or "undefined(rank)"


def scaling_study(observable: Callable[[float], float], values: Sequence[float],
                  parameter: str = "V") -> ScalingStudy:
    """Evaluate ``observable`` over ``values`` and fit a log-log slope.

    Requires at least three strictly increasing positive finite values, none
    a bool; a failing list raises ValueError before ``observable`` runs.  A
    zero observable anywhere makes the log-log fit degenerate; the slope is
    then None with status "undefined(zero)".  Values whose logs agree to
    rounding (a few ulps apart) leave the fit below rank 2: the slope is
    None with status "undefined(rank)".
    """
    values = tuple(values)  # an iterator is read once
    if any(isinstance(v, (bool, np.bool_)) for v in values):
        raise ValueError("parameter values must be numbers, not bools")
    try:
        values = tuple(float(v) for v in values)
    except OverflowError:  # an int beyond the float range
        raise ValueError("parameter values must be finite") from None
    if len(values) < 3:
        raise ValueError("scaling study needs at least 3 parameter values")
    if not all(map(isfinite, values)):
        raise ValueError("parameter values must be finite")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("parameter values must be strictly increasing")
    if values[0] <= 0.0:
        raise ValueError("parameter values must be positive")
    obs = tuple(float(observable(v)) for v in values)
    if any(o == 0.0 for o in obs):
        return ScalingStudy(parameter, values, obs, None, "undefined(zero)")
    coeffs, _, rank, *_ = np.polyfit(np.log(values), np.log(np.abs(obs)), 1, full=True)
    if rank < 2:
        return ScalingStudy(parameter, values, obs, None, "undefined(rank)")
    return ScalingStudy(parameter, values, obs, float(coeffs[0]), "ok")


@dataclass(frozen=True)
class FitResult:
    parameter: float
    value: float
    hit_boundary: bool


_INV_PHI = (sqrt(5.0) - 1.0) / 2.0


def fit_parameter(objective: Callable[[float], float], lo: float, hi: float,
                  tol: float = 1e-8) -> FitResult:
    """Golden-section minimization of a 1-D objective on [lo, hi].

    Returns the interior minimizer to within ``tol`` in the parameter, or
    to the bracket's float resolution when ``tol`` is finer than that; if
    either bracket end beats the interior point the end is returned with
    ``hit_boundary`` set.  A non-finite objective value raises ValueError.
    """
    if not (lo < hi):
        raise ValueError("bracket must satisfy lo < hi")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")

    def f(x: float) -> float:
        v = float(objective(x))
        if not isfinite(v):
            raise ValueError(f"objective is not finite at parameter {x!r}")
        return v

    f_lo, f_hi = f(lo), f(hi)
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    f_c, f_d = f(c), f(d)
    width = float("inf")
    while tol < b - a < width:  # a bracket at float resolution stops shrinking
        width = b - a
        if f_c <= f_d:
            b, d, f_d = d, c, f_c
            c = b - _INV_PHI * (b - a)
            f_c = f(c)
        else:
            a, c, f_c = c, d, f_d
            d = a + _INV_PHI * (b - a)
            f_d = f(d)
    best_x = 0.5 * (a + b)
    best_f = f(best_x)
    # a monotone objective means the bracket excluded the true minimum
    if f_lo < best_f or f_hi < best_f:
        if f_lo <= f_hi:
            return FitResult(parameter=lo, value=f_lo, hit_boundary=True)
        return FitResult(parameter=hi, value=f_hi, hit_boundary=True)
    return FitResult(parameter=best_x, value=best_f, hit_boundary=False)
