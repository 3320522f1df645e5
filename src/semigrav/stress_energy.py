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
on blocks of events sized to the support, as many as fit ``_WORKING_SET``
doubles at 2 |support| + 2 (B columns) + S^2 each: the mode functions f of
the support once, the images of all S = d+2 slots (d_t phi, d_x1 phi, ...,
phi) in one product U = f B, and every slot pair as one ``einsum`` over the
2R real components of U (R rows of A), with the event axis innermost.  A
state thus costs one mode function per occupied mode and event, whatever the
basis size, and on a t = 0 slice one exponential per +- pair of them.  Then

    T_mn = <:d_m phi d_n phi:> - g_mn <:L:>   (g is diagonal: L enters T_mm only),
    <:L:> = (1/2) (sum_m g^mm <:(d_m phi)^2:> - m^2 <:phi^2:>).

The (E, d+1, d+1) array of ``stress_field(state, t, x)`` is the package's
one form of <T_mn>, exactly symmetric by construction; it reads the basis
from the state and the backend from the basis.  ``stress_sample`` is its
row at one event (t, x).  ``energy_density(state, t, x)``, for the sums that
read T_00 alone, shares the checks, the moments, B and the blocks, and ends
each block in a T_00 tail: the S diagonal slot pairs instead of all S^2,
combined in the full tail's order, so it is that array's [:, 0, 0] bit for bit.
"""
from __future__ import annotations

from math import frexp, sqrt

import numpy as np

from .fock import DROP_TOL, BasisMismatchError, FockState
from .modes import EdSModeBasis, MinkowskiModeBasis, ModeBasisError
from .spacetime import BackendDomainError, metric

__all__ = [
    "moments",
    "stress_field",
    "energy_density",
    "stress_sample",
    "total_energy",
    "wavepacket_state",
    "box_lattice",
    "integrated_energy",
]

_WORKING_SET = 1 << 15  # doubles (256 KiB) that one block of stress_field may hold


def moments(state: FockState) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The state's support (its occupied modes, ascending) and the factors A, D of
    its two-point moments, rho = A^H A and K = D^T A, one column per support mode."""
    rows: dict = {}  # once-lowered occupation p -> ({l: A_pl}, {k: D_pk})
    for occ, amp in state.terms.items():
        for i, (mode, count) in enumerate(occ):  # lower the pair at its own position
            p = occ[:i] + ((mode, count - 1),) * (count > 1) + occ[i + 1:]
            if p not in rows:  # D_pk = sqrt(n_k) conj(<p - e_k|Psi>)
                twice = ((k, n, state.terms.get(p[:j] + ((k, n - 1),) * (n > 1) + p[j + 1:]))
                         for j, (k, n) in enumerate(p))
                rows[p] = ({}, {k: sqrt(n) * c.conjugate() for k, n, c in twice if c is not None})
            rows[p][0][mode] = amp * sqrt(count)
    support = tuple(sorted({mode for a_row, _ in rows.values() for mode in a_row}))
    column = {mode: j for j, mode in enumerate(support)}
    AD = np.zeros((2, len(rows), len(support)), dtype=complex)
    for row, entries in enumerate(rows.values()):
        for part, values in enumerate(entries):  # the row of A, then of D
            AD[part, row, [column[k] for k in values]] = list(values.values())
    return support, AD[0], AD[1]


def _slot_products(factors: np.ndarray, M: np.ndarray) -> np.ndarray:
    """B[..., l, s P + p] = factors[..., s, l] M[p, l]: factors (S, n) or (E, S, n), M (P, n)."""
    (S, n), P = factors.shape[-2:], len(M)
    B = (factors[..., None] * M.T).swapaxes(-3, -2)
    return B.reshape(factors.shape[:-2] + (n, S * P))


def _slot_images(basis, B, modes, n_rows, t, x) -> tuple[np.ndarray, np.ndarray]:
    """The real components of every slot's image at one block of events, from the
    ``_slot_products`` B of the slot factors and M (A over D, or A alone if D is 0),
    one column per basis mode indexed by ``modes``: A's (2R, S, E), then D's conjugated."""
    f = basis.field_coeffs(t, x, modes)             # (E, n)
    E, S = len(f), basis.backend.dimension + 2
    # products are stacked per event: a row does not depend on the block's other events
    U = (f[:, None, :] @ B).reshape(E, S, B.shape[-1] // S)
    # Re(conj(u) v) is a real dot of (re, im) pairs: sum them, event axis innermost
    parts = np.ascontiguousarray(U.view(float).transpose(2, 1, 0))   # (2P, S, E)
    images, pair = parts[:2 * n_rows], parts[2 * n_rows:]
    np.negative(pair[1::2], out=pair[1::2])         # conjugate the D images
    return images, pair


def _lagrangian(basis, t, x, diag, phi_sq) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal metric g (E, d+1) and <:L:> (E,), from diag = <:(d_m phi)^2:> (E, d+1)."""
    g = metric(basis.backend, t, x)
    return g, 0.5 * (((1.0 / g) * diag).sum(1) - basis.mass ** 2 * phi_sq)


def _stress_block(basis, B, modes, n_rows, t, x) -> np.ndarray:
    """T_mn (E, d+1, d+1) at one block of events: every slot pair of ``_slot_images``."""
    images, pair = _slot_images(basis, B, modes, n_rows, t, x)
    S, E = images.shape[1:]
    half = np.einsum("cse,cue->sue", images, images)                  # Re g_s^H rho g_u
    if len(pair):
        half += np.einsum("cse,cue->sue", pair, images)               # Re g_s^T K g_u
    pairs = half + half.transpose(1, 0, 2)          # 2 Re(...), exactly symmetric
    diag = pairs.reshape(S * S, E)[:-1:S + 1].T     # (E, d+1): <:(d_m phi)^2:>, writable
    g, lagrangian = _lagrangian(basis, t, x, diag, pairs[-1, -1])
    diag -= g * lagrangian[:, None]                 # T_mn = <:d_m phi d_n phi:> - g_mn <:L:>
    return pairs[:-1, :-1].transpose(2, 0, 1)


def _energy_block(basis, B, modes, n_rows, t, x) -> np.ndarray:
    """T_00 (E,) at one block of events: ``_stress_block``'s diagonal slot pairs alone,
    summed and combined in its order, so each value is its T_00 bit for bit."""
    images, pair = _slot_images(basis, B, modes, n_rows, t, x)
    half = np.einsum("cse,cse->se", images, images)
    if len(pair):
        half += np.einsum("cse,cse->se", pair, images)
    squares = half + half                           # (S, E): the diagonal of its pairs
    g, lagrangian = _lagrangian(basis, t, x, squares[:-1].T, squares[-1])
    return squares[0] - g[:, 0] * lagrangian


def _blocks(state: FockState, t, x, tail, row_shape: tuple) -> np.ndarray:
    """``tail``'s rows at E events, (E,) + row_shape: x is (E, d), t broadcasts to (E,)."""
    basis, d = state.basis, state.basis.backend.dimension
    if not isinstance(basis, (MinkowskiModeBasis, EdSModeBasis)):
        raise ModeBasisError("stress-energy sampling needs a Minkowski or EdS basis")
    state.require_unit_norm()
    t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != d:
        raise BackendDomainError(f"x must have shape (events, {d})")
    if t.shape != x.shape[:1]:
        if t.shape not in ((), (1,)):
            raise BackendDomainError(f"t has shape {t.shape}, events need {x.shape[:1]}")
        t = np.broadcast_to(t, x.shape[:1])
    support, A, D = moments(state)
    # the slot factors and their products with the moments, once for all blocks
    B = _slot_products(basis.slot_factors(t, support), np.concatenate([A, D]) if D.any() else A)
    out = np.empty((len(t),) + row_shape)
    size = max(1, _WORKING_SET // (2 * len(support) + 2 * B.shape[-1] + (d + 2) ** 2))
    for lo in range(0, len(t), size):
        block = slice(lo, lo + size)
        B_block = B if B.ndim == 2 else B[block]  # t-dependent factors (EdS) per event
        out[block] = tail(basis, B_block, support, len(A), t[block], x[block])
    return out


def stress_field(state: FockState, t, x) -> np.ndarray:
    """<Psi|T_mn|Psi> at E events, shape (E, d+1, d+1): x is (E, d), t broadcasts to (E,)."""
    d = state.basis.backend.dimension
    return _blocks(state, t, x, _stress_block, (d + 1, d + 1))


def energy_density(state: FockState, t, x) -> np.ndarray:
    """<Psi|T_00|Psi> at E events, shape (E,): ``stress_field(state, t, x)[:, 0, 0]`` bit
    for bit, with the same checks, for the S diagonal slot pairs instead of all S^2."""
    return _blocks(state, t, x, _energy_block, ())


def stress_sample(state: FockState, t, x) -> np.ndarray:
    """<Psi|T_mn|Psi> at one event, t and x (d,), shape (d+1, d+1): the ``stress_field`` row."""
    return stress_field(state, t, [x])[0]


def total_energy(state: FockState) -> float:
    """sum_k omega_k <N_k>; the box-mode form of the integrated energy."""
    if not isinstance(state.basis, MinkowskiModeBasis):
        raise ModeBasisError("total_energy is defined for box mode bases")
    state.require_unit_norm()
    occupied = list({mode for occ in state.terms for mode, _ in occ})
    omega = dict(zip(occupied, state.basis.frequencies(occupied).tolist()))
    total = 0.0
    for occ, amp in state.terms.items():
        weight = abs(amp) ** 2
        for mode, count in occ:
            total += weight * count * omega[mode]
    return float(total)


def wavepacket_state(basis: MinkowskiModeBasis, x0) -> FockState:
    """Normalized one-particle packet sum_k e^(-i k.x0)/sqrt(2 w_k) |1_k>.

    Built in one pass, bit for bit the ``superpose`` of the ``create``d
    one-quantum states with ``normalize=True``: the same exact power-of-two
    prescale (the largest |c| into [1, 2)) by ``ldexp`` on each part, ``+ 0.0``
    for superpose's sum from ``0j`` (it turns -0.0 into 0.0), and the same
    ``DROP_TOL`` filter on keys built valid, then one ``normalized()``.
    """
    if not isinstance(basis, MinkowskiModeBasis):
        raise ModeBasisError("wavepacket_state is defined for box mode bases")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (basis.backend.dimension,):
        raise ValueError("x0 must have one coordinate per spatial dimension")
    if not np.isfinite(x0).all():
        raise ValueError("x0 must be finite")
    amps = np.exp(-1j * basis.wavevectors() @ x0) / np.sqrt(2.0 * basis.frequencies())
    k = 1 - frexp(np.abs(amps).max())[1]
    amps.real, amps.imag = np.ldexp(amps.real, k) + 0.0, np.ldexp(amps.imag, k) + 0.0
    terms = {((mode, 1),): c for mode, c in enumerate(amps.tolist()) if abs(c) > DROP_TOL}
    return FockState.of_valid_terms(basis, terms).normalized()


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
    """Riemann sum of T_00 over a uniform box lattice at fixed time, from
    ``energy_density``: ``basis`` and ``backend`` must be the state's."""
    if not isinstance(basis, MinkowskiModeBasis):
        raise ModeBasisError("lattice integration is defined for box mode bases")
    if state.basis != basis or basis.backend != backend:
        raise BasisMismatchError("basis and backend must be the state's basis and its backend")
    lattice, cell = box_lattice(backend, points_per_axis)
    return float(energy_density(state, t, lattice).sum() * cell)
