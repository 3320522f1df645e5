"""Sparse Fock states over a finite mode basis.

An occupation is its tuple of ``(mode, count)`` pairs, modes strictly
increasing and counts >= 1 (the vacuum is ``()``; ``FockState`` rejects any
other key), so the Fock dicts keyed by it hash and compare in C.  A count is
read by bisection, and ``bump`` shifts it by splicing the tuple.  States are
stored as a map ``occupation -> complex amplitude`` keeping only non-zero
entries, so that ladder operators, inner products and number expectations
cost O(non-zero terms) rather than O(Fock dimension).

States are immutable values: every operation returns a new ``FockState``.
Amplitudes with magnitude at or below ``DROP_TOL`` are dropped on
construction (exact cancellations therefore yield the empty zero state).
"""
from __future__ import annotations

from bisect import bisect_left
from math import frexp, hypot, inf, isfinite, ldexp, sqrt
from typing import Iterable, Mapping

__all__ = [
    "DROP_TOL",
    "NORM_TOL",
    "BasisMismatchError",
    "ZeroNormError",
    "Occupation",
    "FockState",
    "bump",
    "new_vacuum",
    "create",
    "annihilate",
    "inner",
    "number_expectation",
    "superpose",
]

DROP_TOL = 1e-15
NORM_TOL = 1e-9  # slack allowed where an operation requires a unit-norm state


class BasisMismatchError(ValueError):
    """Raised when states/coefficients over different mode bases are mixed."""


class ZeroNormError(ValueError):
    """Raised when a normalization is requested for a (numerically) zero state."""


Occupation = tuple[tuple[int, int], ...]  # sorted (mode, count) pairs, counts >= 1


def _find(occ: Occupation, mode: int) -> tuple[int, int]:
    """The slot of ``mode`` in ``occ`` (where it is or would go) and its count."""
    i = bisect_left(occ, (mode,))  # (mode,) sorts before every (mode, count)
    return i, (occ[i][1] if i < len(occ) and occ[i][0] == mode else 0)


def bump(occ: Occupation, mode: int, delta: int) -> Occupation:
    """``occ`` with the count of ``mode`` shifted by ``delta``, spliced in sort order."""
    i, n = _find(occ, mode)
    if n + delta < 0:
        raise ValueError("occupation cannot go negative")
    return occ[:i] + (((mode, n + delta),) if n + delta else ()) + occ[i + (n > 0):]


class FockState:
    """Sparse superposition of occupation vectors over one mode basis."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis, terms: Mapping[Occupation, complex]):
        cleaned: dict[Occupation, complex] = {}
        n = basis.n_modes
        for occ, amp in terms.items():
            amp = complex(amp)
            try:
                if abs(amp) <= DROP_TOL:
                    continue
            except OverflowError:  # finite parts, a modulus past the float range
                raise ValueError(f"amplitude of occupation {occ} has a modulus "
                                 "beyond the float range") from None
            prev = -1  # modes must rise from 0, so the last one bounds them all
            for mode, count in occ:
                if mode <= prev or count < 1:
                    if mode < 0:
                        raise BasisMismatchError(f"mode index {mode} outside basis with {n} modes")
                    raise ValueError(f"occupation {occ} needs strictly increasing modes "
                                     "and counts >= 1")
                prev = mode
            if prev >= n:
                raise BasisMismatchError(f"mode index {prev} outside basis with {n} modes")
            cleaned[occ] = amp
        self.basis = basis
        self.terms = cleaned

    @classmethod
    def of_valid_terms(cls, basis, terms: dict[Occupation, complex]) -> "FockState":
        """The state of ``terms`` as built: valid keys, complex amplitudes above ``DROP_TOL``."""
        out = cls.__new__(cls)
        out.basis, out.terms = basis, terms
        return out

    def norm(self) -> float:
        try:
            nrm = sqrt(sum(abs(a) ** 2 for a in self.terms.values()))
        except OverflowError:  # an |a|^2 beyond the float range
            nrm = inf  # as for a sum past it: hypot, scaled by the largest |a|, takes over
        return nrm if nrm != inf else hypot(*map(abs, self.terms.values()))

    def require_unit_norm(self, what: str = "state") -> None:
        """Raise ValueError, naming ``what`` and the norm, unless the norm is 1
        within ``NORM_TOL``: the one check of every operation that needs it."""
        nrm = self.norm()
        if not abs(nrm - 1.0) <= NORM_TOL:  # a NaN norm fails too
            raise ValueError(f"{what} must be normalized to unit norm (norm={nrm:.6g})")

    def normalized(self) -> "FockState":
        n = self.norm()
        if not isfinite(n):
            raise ValueError(f"cannot normalize a state of non-finite norm ({n})")
        if n <= 1e-12:
            raise ZeroNormError("cannot normalize a zero state")
        return FockState.of_valid_terms(  # the keys are valid: keep only the DROP_TOL filter
            self.basis, {o: c for o, a in self.terms.items() if abs(c := a / n) > DROP_TOL})

    def __repr__(self):  # pragma: no cover - debugging aid
        parts = ", ".join(f"{o}: {a:.3g}" for o, a in sorted(self.terms.items()))
        return f"FockState({{{parts}}})"


def new_vacuum(basis) -> FockState:
    return FockState(basis, {(): 1.0 + 0.0j})


def _check_mode(state: FockState, mode: int) -> None:
    n = state.basis.n_modes
    if not (0 <= mode < n):
        raise BasisMismatchError(f"mode index {mode} outside basis with {n} modes")


def _apply_ladder(state: FockState, mode: int, delta: int) -> FockState:
    """Apply a_mode^dagger (``delta`` +1) or a_mode (``delta`` -1) to ``state``.

    The matrix element is the square root of the larger count of the pair:
    sqrt(n+1) on n -> n+1, sqrt(n) on n -> n-1 (n = 0 terms vanish).
    """
    _check_mode(state, mode)
    out: dict[Occupation, complex] = {}
    for occ, amp in state.terms.items():
        n = _find(occ, mode)[1]
        if n + delta < 0:
            continue
        new_occ = bump(occ, mode, delta)
        out[new_occ] = out.get(new_occ, 0.0 + 0.0j) + amp * sqrt(max(n, n + delta))
    return FockState(state.basis, out)


def create(state: FockState, mode: int) -> FockState:
    return _apply_ladder(state, mode, +1)


def annihilate(state: FockState, mode: int) -> FockState:
    return _apply_ladder(state, mode, -1)


def inner(a: FockState, b: FockState) -> complex:
    """Hermitian inner product <a|b> (antilinear in the first argument)."""
    if a.basis != b.basis:
        raise BasisMismatchError("states live over different mode bases")
    return complex(sum(a.terms[o].conjugate() * b.terms[o] for o in a.terms if o in b.terms))


def number_expectation(state: FockState, mode: int) -> float:
    """<N_mode> for a unit-norm state."""
    _check_mode(state, mode)
    state.require_unit_norm()
    return float(sum(abs(amp) ** 2 * _find(occ, mode)[1] for occ, amp in state.terms.items()))


def superpose(parts: Iterable[tuple[complex, FockState]], normalize: bool = False) -> FockState:
    """Linear combination sum_i c_i |state_i>, optionally normalized."""
    parts = list(parts)
    if not parts:
        raise ValueError("superpose requires at least one term")
    basis = parts[0][1].basis
    if normalize:
        # scale by an exact power of two that puts the largest |c| in [1, 2),
        # so that tiny coefficients do not fall under DROP_TOL (nor huge ones
        # overflow) before the normalization removes the scale
        coeffs = [complex(c) for c, _ in parts]
        k = 1 - frexp(max(abs(c) for c in coeffs))[1]
        parts = [(complex(ldexp(c.real, k), ldexp(c.imag, k)), st)
                 for c, (_, st) in zip(coeffs, parts)]
    acc: dict[Occupation, complex] = {}
    for coeff, st in parts:
        if st.basis != basis:
            raise BasisMismatchError("superpose mixes states over different bases")
        c = complex(coeff)
        for occ, amp in st.terms.items():
            acc[occ] = acc.get(occ, 0.0 + 0.0j) + c * amp
    out = FockState(basis, acc)
    if normalize:
        return out.normalized()
    return out
