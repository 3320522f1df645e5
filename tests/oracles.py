"""Test oracles shared by more than one test module, each defined once."""
import itertools

import numpy as np

from semigrav.fock import FockState, create, new_vacuum
from semigrav.modes import eds_basis


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
