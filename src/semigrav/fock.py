"""Sparse Fock states over a finite mode basis.

States are stored as a map ``Occupation -> complex amplitude`` keeping only
non-zero entries, so that ladder operators, inner products and number
expectations cost O(non-zero terms) rather than O(Fock dimension).

States are immutable values: every operation returns a new ``FockState``.
Amplitudes with magnitude at or below ``DROP_TOL`` are dropped on
construction (exact cancellations therefore yield the empty zero state).
"""
from __future__ import annotations

from math import frexp, ldexp, sqrt
from typing import Iterable, Mapping, NamedTuple

__all__ = [
    "DROP_TOL",
    "NORM_TOL",
    "BasisMismatchError",
    "ZeroNormError",
    "Occupation",
    "FockState",
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


class Occupation(NamedTuple):
    """Occupation-number vector: sorted ``(mode, count)`` pairs, counts >= 1.

    A tuple, so that the Fock dicts keyed by it hash and compare in C.
    """

    pairs: tuple[tuple[int, int], ...]

    @staticmethod
    def from_counts(counts: Mapping[int, int]) -> "Occupation":
        items = []
        for mode, count in counts.items():
            if count < 0:
                raise ValueError(f"negative occupation for mode {mode}")
            if count > 0:
                items.append((int(mode), int(count)))
        return Occupation(tuple(sorted(items)))

    def count(self, mode: int) -> int:
        for m, c in self.pairs:
            if m == mode:
                return c
        return 0

    def bump(self, mode: int, delta: int) -> "Occupation":
        """New occupation with ``mode`` count shifted by ``delta``."""
        counts = dict(self.pairs)
        new = counts.get(mode, 0) + delta
        if new < 0:
            raise ValueError("occupation cannot go negative")
        if new == 0:
            counts.pop(mode, None)
        else:
            counts[mode] = new
        return Occupation(tuple(sorted(counts.items())))

    def total(self) -> int:
        return sum(c for _, c in self.pairs)


VACUUM_OCCUPATION = Occupation(())


def _mode_count(basis) -> int:
    try:
        return int(basis.n_modes)
    except AttributeError as exc:  # pragma: no cover - defensive
        raise TypeError("basis object must expose n_modes") from exc


def _same_basis(a, b) -> bool:
    return a is b or a == b


class FockState:
    """Sparse superposition of occupation vectors over one mode basis."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis, terms: Mapping[Occupation, complex]):
        cleaned: dict[Occupation, complex] = {}
        n = _mode_count(basis)
        for occ, amp in terms.items():
            amp = complex(amp)
            if abs(amp) <= DROP_TOL:
                continue
            if occ.pairs and (occ.pairs[0][0] < 0 or occ.pairs[-1][0] >= n):
                mode = occ.pairs[0][0] if occ.pairs[0][0] < 0 else occ.pairs[-1][0]
                raise BasisMismatchError(f"mode index {mode} outside basis with {n} modes")
            cleaned[occ] = amp
        self.basis = basis
        self.terms = cleaned

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def norm(self) -> float:
        return sqrt(sum(abs(a) ** 2 for a in self.terms.values()))

    def normalized(self) -> "FockState":
        n = self.norm()
        if n <= 1e-12:
            raise ZeroNormError("cannot normalize a zero state")
        return FockState(self.basis, {o: a / n for o, a in self.terms.items()})

    def amplitude(self, occ: Occupation) -> complex:
        return self.terms.get(occ, 0.0 + 0.0j)

    def __repr__(self):  # pragma: no cover - debugging aid
        parts = ", ".join(f"{o.pairs}: {a:.3g}" for o, a in sorted(self.terms.items(), key=lambda kv: kv[0].pairs))
        return f"FockState({{{parts}}})"


def new_vacuum(basis) -> FockState:
    return FockState(basis, {VACUUM_OCCUPATION: 1.0 + 0.0j})


def _check_mode(state: FockState, mode: int) -> None:
    n = _mode_count(state.basis)
    if not (0 <= mode < n):
        raise BasisMismatchError(f"mode index {mode} outside basis with {n} modes")


def _apply_ladder(state: FockState, mode: int, kind: str) -> FockState:
    """Apply a_mode ("annihilate") or a_mode^dagger ("create") to ``state``.

    create:     amp -> amp * sqrt(n+1) on n -> n+1
    annihilate: amp -> amp * sqrt(n)   on n -> n-1 (n = 0 terms vanish)
    """
    _check_mode(state, mode)
    out: dict[Occupation, complex] = {}
    for occ, amp in state.terms.items():
        n = occ.count(mode)
        if kind == "create":
            new_occ, factor = occ.bump(mode, +1), sqrt(n + 1.0)
        else:
            if n == 0:
                continue
            new_occ, factor = occ.bump(mode, -1), sqrt(n)
        out[new_occ] = out.get(new_occ, 0.0 + 0.0j) + amp * factor
    return FockState(state.basis, out)


def create(state: FockState, mode: int) -> FockState:
    return _apply_ladder(state, mode, "create")


def annihilate(state: FockState, mode: int) -> FockState:
    return _apply_ladder(state, mode, "annihilate")


def inner(a: FockState, b: FockState) -> complex:
    """Hermitian inner product <a|b> (antilinear in the first argument)."""
    if not _same_basis(a.basis, b.basis):
        raise BasisMismatchError("states live over different mode bases")
    if len(b.terms) < len(a.terms):
        return complex(sum(b.terms[o].conjugate() * a.terms[o] for o in b.terms if o in a.terms)).conjugate()
    return complex(sum(a.terms[o].conjugate() * b.terms[o] for o in a.terms if o in b.terms))


def number_expectation(state: FockState, mode: int) -> float:
    """<N_mode> for a unit-norm state."""
    _check_mode(state, mode)
    nrm = state.norm()
    if abs(nrm - 1.0) > NORM_TOL:
        raise ValueError(f"number_expectation requires a normalized state (norm={nrm:.6g})")
    return float(sum(abs(amp) ** 2 * occ.count(mode) for occ, amp in state.terms.items()))


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
        if not _same_basis(st.basis, basis):
            raise BasisMismatchError("superpose mixes states over different bases")
        c = complex(coeff)
        for occ, amp in st.terms.items():
            acc[occ] = acc.get(occ, 0.0 + 0.0j) + c * amp
    out = FockState(basis, acc)
    if normalize:
        return out.normalized()
    return out
