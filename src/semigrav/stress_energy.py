"""Vacuum-subtracted stress-energy expectation values on sparse Fock states.

Every observable is a normal-ordered quadratic form, so the vacuum piece
vanishes exactly.  For A = sum_k (g_k a_k + conj(g_k) a_k+), B likewise,

    <Psi| :A B: |Psi> = 2 Re(g^H rho h) + 2 Re(g^T K h),
    rho_kl = <a_k+ a_l> = (A^H A)_kl,  K_kl = <a_k a_l> = (D^T A)_kl,

with one row of A and D per once-lowered occupation p: A_pl = <p|a_l|Psi>
and D_pk = <Psi|a_k|p> (``moments``, one pass over the terms), and one
column per mode of the state's support, the modes it occupies: any other
mode would have all-zero columns and add exactly nothing.  ``stress_field``
builds B, the per-mode slot factors times A and D, once per call (per event
where the factors depend on t, as on the dust background).  It then works
on blocks of ``_BLOCK`` events: the mode functions f of the support once,
the images of all d+2 slots (d_t phi, d_x1 phi, ..., phi) in one product
U = f B, and every slot pair as a sum over the 2R real components of U
(R rows of A), with the event axis innermost.  A one-quantum state thus
costs one mode function per event, whatever the basis size.  Then

    T_mn = <:d_m phi d_n phi:> - g_mn <:L:>,
    <:L:> = (1/2) (sum_m g^mm <:(d_m phi)^2:> - m^2 <:phi^2:>).

The (E, d+1, d+1) array of ``stress_field`` is the package's one form of
<T_mn>, exactly symmetric by construction; ``stress_sample`` is its row at
one ``Event``.
"""
from __future__ import annotations

from math import frexp, ldexp, sqrt

import numpy as np

from .fock import NORM_TOL, BasisMismatchError, FockState, Occupation
from .modes import EdSModeBasis, MinkowskiModeBasis, ModeBasisError
from .spacetime import BackendDomainError, Event, metric

__all__ = [
    "moments",
    "quadratic_expectation",
    "stress_field",
    "stress_sample",
    "total_energy",
    "wavepacket_state",
    "box_lattice",
    "integrated_energy",
]

_BLOCK = 128  # events per block of stress_field


def _require_normalized(state: FockState) -> None:
    if abs(state.norm() - 1.0) > NORM_TOL:
        raise ValueError("state must be normalized to unit norm")


def moments(state: FockState) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The state's support (its occupied modes, ascending) and the factors A, D of
    its two-point moments, rho = A^H A and K = D^T A, one column per support mode."""
    rows: dict = {}  # once-lowered occupation p -> ({l: A_pl}, {k: D_pk})
    for occ, amp in state.terms.items():
        for mode, count in occ.pairs:
            p = occ.bump(mode, -1)
            if p not in rows:  # D_pk = sqrt(n_k) conj(<p - e_k|Psi>)
                twice = ((k, n, state.terms.get(p.bump(k, -1))) for k, n in p.pairs)
                rows[p] = ({}, {k: sqrt(n) * c.conjugate() for k, n, c in twice if c is not None})
            rows[p][0][mode] = amp * sqrt(count)
    support = tuple(sorted({mode for a_row, _ in rows.values() for mode in a_row}))
    column = {mode: j for j, mode in enumerate(support)}
    A, D = np.zeros((2, len(rows), len(support)), dtype=complex)
    for row, entries in enumerate(rows.values()):
        for out, values in zip((A, D), entries):
            out[row, [column[k] for k in values]] = list(values.values())
    return support, A, D


def quadratic_expectation(state: FockState, g: np.ndarray, h: np.ndarray) -> float:
    """<Psi| :A B: |Psi> for A = sum(g_k a_k + h.c.), B likewise from h (per mode)."""
    g, h = np.asarray(g, dtype=complex), np.asarray(h, dtype=complex)
    if g.shape != (state.basis.n_modes,) or h.shape != g.shape:
        raise BasisMismatchError("coefficient arrays must have one entry per basis mode")
    _require_normalized(state)
    support, A, D = moments(state)
    g, h = g[list(support)], h[list(support)]
    return float(2.0 * (np.vdot(A @ g, A @ h) + (D @ g) @ (A @ h)).real)


def _slot_products(factors: np.ndarray, M: np.ndarray) -> np.ndarray:
    """B[..., l, s P + p] = factors[..., s, l] M[p, l]: factors (S, n) or (E, S, n), M (P, n)."""
    (S, n), P = factors.shape[-2:], len(M)
    B = np.moveaxis(factors[..., None] * M.T, -3, -2)
    return B.reshape(factors.shape[:-2] + (n, S * P))


def _stress_block(basis, backend, B, modes, n_rows, t, x) -> np.ndarray:
    """T_mn at one block of events, from the ``_slot_products`` B of the slot factors
    and M (A over D, or A alone if D is 0), one column per basis mode indexed by ``modes``."""
    f = basis.field_coeffs(t, x, modes)             # (E, n)
    E, S = len(f), backend.dimension + 2
    # products are stacked per event: a row does not depend on the block's other events
    U = (f[:, None, :] @ B).reshape(E, S, B.shape[-1] // S)
    np.conjugate(U[..., n_rows:], out=U[..., n_rows:])
    # Re(conj(u) v) is a real dot of (re, im) pairs: sum them, event axis innermost
    parts = np.ascontiguousarray(U.view(float).transpose(2, 1, 0))   # (2P, S, E)
    half = _real_dots(parts[:2 * n_rows], parts[:2 * n_rows])       # Re g_s^H rho g_u
    if len(parts) > 2 * n_rows:
        half += _real_dots(parts[2 * n_rows:], parts[:2 * n_rows])  # Re g_s^T K g_u
    pairs = half + half.transpose(1, 0, 2)          # 2 Re(...), exactly symmetric
    deriv, phi_sq = pairs[:-1, :-1].transpose(2, 0, 1), pairs[-1, -1]
    g = metric(backend, t, x)
    inv_diag = 1.0 / np.diagonal(g, axis1=1, axis2=2)
    trace = (inv_diag * np.diagonal(deriv, axis1=1, axis2=2)).sum(axis=1)
    lagrangian = 0.5 * (trace - basis.mass ** 2 * phi_sq)
    return deriv - g * lagrangian[:, None, None]


def _real_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_c a[c, s] b[c, u] for a, b (C, S, E), summed from zeros in c order as einsum does."""
    out = np.zeros(a.shape[1:2] + b.shape[1:])
    for a_c, b_c in zip(a, b):
        out += a_c[:, None] * b_c[None]
    return out


def stress_field(state: FockState, basis, backend, t, x) -> np.ndarray:
    """<Psi|T_mn|Psi> at E events, shape (E, d+1, d+1): x is (E, d), t broadcasts to (E,)."""
    if not isinstance(basis, (MinkowskiModeBasis, EdSModeBasis)):
        raise ModeBasisError("stress-energy sampling needs a Minkowski or EdS basis")
    if basis.backend != backend:
        raise BasisMismatchError("basis was built for a different backend")
    if state.basis != basis:
        raise BasisMismatchError("state lives on a different basis")
    _require_normalized(state)
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != backend.dimension:
        raise BackendDomainError(f"x must have shape (events, {backend.dimension})")
    t = np.broadcast_to(np.asarray(t, dtype=float), x.shape[:1])
    support, A, D = moments(state)
    # the slot factors and their products with the moments, once for all blocks
    B = _slot_products(basis.slot_factors(t, support), np.concatenate([A, D]) if D.any() else A)
    out = np.empty((len(t),) + (backend.dimension + 1,) * 2)
    for lo in range(0, len(t), _BLOCK):
        block = slice(lo, lo + _BLOCK)
        B_block = B if B.ndim == 2 else B[block]  # t-dependent factors (EdS) per event
        out[block] = _stress_block(basis, backend, B_block, support, len(A), t[block], x[block])
    return out


def stress_sample(state: FockState, basis, backend, event: Event) -> np.ndarray:
    """<Psi|T_mn|Psi> at one event, shape (d+1, d+1): the ``stress_field`` row."""
    return stress_field(state, basis, backend, event.t, [event.x])[0]


def total_energy(state: FockState, basis) -> float:
    """sum_k omega_k <N_k>; the box-mode form of the integrated energy."""
    if not isinstance(basis, MinkowskiModeBasis):
        raise ModeBasisError("total_energy is defined for box mode bases")
    if state.basis != basis:
        raise BasisMismatchError("state lives on a different basis")
    _require_normalized(state)
    occupied = list({mode for occ in state.terms for mode, _ in occ.pairs})
    omega = dict(zip(occupied, basis.frequencies(occupied).tolist()))
    total = 0.0
    for occ, amp in state.terms.items():
        weight = abs(amp) ** 2
        for mode, count in occ.pairs:
            total += weight * count * omega[mode]
    return float(total)


def wavepacket_state(basis: MinkowskiModeBasis, x0) -> FockState:
    """Normalized one-particle packet sum_k e^(-i k.x0)/sqrt(2 w_k) |1_k>.

    Built in one pass, bit for bit the ``superpose`` of the ``create``d
    one-quantum states with ``normalize=True``: the same exact power-of-two
    prescale (the largest |c| into [1, 2)), the same ``0j +`` sum (which
    turns -0.0 into 0.0), then one ``normalized()``.
    """
    if not isinstance(basis, MinkowskiModeBasis):
        raise ModeBasisError("wavepacket_state is defined for box mode bases")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (basis.backend.dimension,):
        raise ValueError("x0 must have one coordinate per spatial dimension")
    amps = np.exp(-1j * basis.wavevectors() @ x0) / np.sqrt(2.0 * basis.frequencies())
    amps = amps.tolist()
    k = 1 - frexp(max(map(abs, amps)))[1]
    terms = {Occupation(((mode, 1),)): 0j + complex(ldexp(c.real, k), ldexp(c.imag, k))
             for mode, c in enumerate(amps)}
    return FockState(basis, terms).normalized()


def box_lattice(backend, points_per_axis: int) -> tuple[np.ndarray, float]:
    """The uniform lattice of ``integrated_energy``, (points_per_axis^d, d), and its cell volume."""
    if points_per_axis < 1:
        raise ValueError("points_per_axis must be positive")
    L, d = backend.box_side, backend.dimension
    axis = np.linspace(0.0, L, points_per_axis, endpoint=False)
    lattice = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    return lattice, (L / points_per_axis) ** d


def integrated_energy(state: FockState, basis, backend, t: float = 0.0,
                      points_per_axis: int = 64) -> float:
    """Riemann sum of T_00 over a uniform box lattice at fixed time."""
    if not isinstance(basis, MinkowskiModeBasis):
        raise ModeBasisError("lattice integration is defined for box mode bases")
    lattice, cell = box_lattice(backend, points_per_axis)
    return float(stress_field(state, basis, backend, t, lattice)[:, 0, 0].sum() * cell)
