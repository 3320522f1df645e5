"""Test oracles shared by more than one test module, each defined once."""
import itertools
from collections import Counter
from math import sqrt

import numpy as np

from semigrav.fock import FockState, bump, create, inner, new_vacuum
from semigrav.modes import eds_basis
from semigrav.spacetime import metric


class DenseFock:
    """Truncated dense Fock space: every mode capped at ``cap`` quanta."""

    def __init__(self, n_modes: int, cap: int):
        self.n_modes = n_modes
        self.cap = cap
        self.states = list(itertools.product(range(cap + 1), repeat=n_modes))
        self.index = {s: i for i, s in enumerate(self.states)}
        self.dim = len(self.states)

    def lowering(self, mode: int) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        for s, i in self.index.items():
            n = s[mode]
            if n > 0:
                t = s[:mode] + (n - 1,) + s[mode + 1:]
                a[self.index[t], i] = np.sqrt(n)
        return a

    def vector(self, state: FockState) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        for occ, amp in state.terms.items():
            counts = dict(occ)
            key = tuple(counts.get(m, 0) for m in range(self.n_modes))
            assert max(key, default=0) <= self.cap
            v[self.index[key]] = amp
        return v


def eds_one_quantum(mass: float, v0: float) -> FockState:
    """One quantum in the k = 0 dust mode of mass ``mass`` and comoving volume ``v0``."""
    return create(new_vacuum(eds_basis(comoving_volume=v0, mass=mass)), 0)


def random_state(basis, rng, n_terms, max_quanta, per_mode=False) -> FockState:
    """A superposition of random occupations with complex normal amplitudes.

    By default: ``n_terms`` distinct occupations with up to ``max_quanta``
    quanta each, normalized.  With max_quanta >= 2 each drawn occupation also
    enters with two more quanta, so that the pair moment K = <a a> does not
    vanish.  ``per_mode`` instead makes ``n_terms`` draws of 0 to
    ``max_quanta`` quanta in every mode, a repeated occupation keeping its
    last amplitude, and leaves the state unnormalized.
    """
    terms = {}
    if per_mode:
        for _ in range(n_terms):
            counts = {m: rng.integers(0, max_quanta + 1) for m in range(basis.n_modes)}
            occ = tuple((m, int(c)) for m, c in counts.items() if c)
            terms[occ] = complex(rng.normal(), rng.normal())
        return FockState(basis, terms)
    pairs = max_quanta >= 2
    while len(terms) < n_terms:
        modes = rng.integers(0, basis.n_modes, size=rng.integers(0, max_quanta - 2 * pairs + 1))
        draws = [modes, np.concatenate([modes, rng.integers(0, basis.n_modes, size=2)])]
        for drawn in draws[:1 + pairs]:
            terms[tuple(sorted(Counter(drawn.tolist()).items()))] = complex(rng.normal(), rng.normal())
    return FockState(basis, terms).normalized()


def diagonal_tensor(diag):
    """The (..., n, n) tensor with diagonal ``diag``, built as the square metric was."""
    out = np.zeros(diag.shape + diag.shape[-1:])
    np.einsum("...ii->...i", out)[...] = diag
    return out


def _lowering_image(state, coeffs):
    """sum_k g_k a_k |Psi>, applied term by term to the sparse state."""
    acc = {}
    for occ, amp in state.terms.items():
        for mode, count in occ:
            c = coeffs[mode]
            if c == 0.0:
                continue
            lowered = bump(occ, mode, -1)
            acc[lowered] = acc.get(lowered, 0.0) + amp * c * sqrt(count)
    return FockState(state.basis, acc)


def walk_stress(state, basis, t, x):
    """T_mn at one event by a Fock walk: the lowering images of the state.

    <:AB:> = 2 Re <A-Psi|B-Psi> + 2 Re <Psi|A-B-Psi>.
    """
    dx = basis.dx_coeffs(t, x)
    coeffs = [basis.dt_coeffs(t, x)] + list(dx.T) + [basis.field_coeffs(t, x)]
    images = [_lowering_image(state, c) for c in coeffs]

    def pair(i, j):
        double = inner(state, _lowering_image(images[j], coeffs[i]))
        return 2.0 * (inner(images[i], images[j]).real + double.real)

    dim = len(coeffs) - 1
    deriv = np.array([[pair(i, j) for j in range(dim)] for i in range(dim)])
    g = diagonal_tensor(metric(basis.backend, t, x))
    lagrangian = 0.5 * (np.diag(deriv) @ (1.0 / np.diag(g)) - basis.mass**2 * pair(dim, dim))
    return deriv - g * lagrangian
