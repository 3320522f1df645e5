"""Stress-energy observables: dense-operator and Fock-walk oracles, closed forms."""
import re
from math import sqrt
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp
from numpy.testing import assert_allclose

from semigrav.fock import (
    BasisMismatchError, FockState, annihilate, bump, create, inner, new_vacuum, superpose,
)
from semigrav.modes import (
    MinkowskiModeBasis, ModeBasisError, eds_basis, minkowski_basis,
)
from semigrav.consistency import residual
from semigrav.spacetime import (
    BackendDomainError, Minkowski, einstein_tensor, metric,
)
from semigrav import stress_energy
from semigrav.stress_energy import (
    _lagrangian,
    _slot_products,
    _stress_block,
    box_lattice,
    energy_density,
    integrated_energy,
    moments,
    stress_field,
    stress_sample,
    total_energy,
    wavepacket_state,
)

from oracles import (
    DenseFock, diagonal_tensor, meshgrid_lattice, random_state, walk_stress, walk_total_energy,
)

BASIS = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=1)  # 3 modes
BACKEND = BASIS.backend


# ---- dense oracle for the normal-ordered quadratic form ----------------------

def _on_basis(support, block):
    """A (support x support) block scattered into a (mode x mode) matrix."""
    full = np.zeros((BASIS.n_modes,) * 2, dtype=complex)
    full[np.ix_(support, support)] = block
    return full


def test_quadratic_expectation_matches_dense_oracle():
    """The moments give rho = A^H A = <a_k+ a_l> and K = D^T A = <a_k a_l>, and with
    them <:A B:> = 2 Re(g^H rho h) + 2 Re(g^T K h) for the dense ladder operators."""
    rng = np.random.default_rng(5)
    dense = DenseFock(BASIS.n_modes, cap=4)
    low = [dense.lowering(m) for m in range(BASIS.n_modes)]
    for _ in range(10):
        terms = {}
        for _ in range(3):
            counts = {m: rng.integers(0, 3) for m in range(BASIS.n_modes)}
            terms[tuple((m, int(c)) for m, c in counts.items() if c)] = complex(rng.normal(), rng.normal())
        psi = FockState(BASIS, terms)
        if psi.norm() < 1e-9:
            continue
        psi = psi.normalized()
        g = rng.normal(size=BASIS.n_modes) + 1j * rng.normal(size=BASIS.n_modes)
        h = rng.normal(size=BASIS.n_modes) + 1j * rng.normal(size=BASIS.n_modes)
        support, A, D = moments(psi)
        rho, K = _on_basis(support, A.conj().T @ A), _on_basis(support, D.T @ A)
        v = dense.vector(psi)
        dense_rho = np.array([[np.vdot(ak @ v, al @ v) for al in low] for ak in low])
        dense_K = np.array([[np.vdot(v, ak @ al @ v) for al in low] for ak in low])
        assert_allclose(rho, dense_rho, atol=1e-12)
        assert_allclose(K, dense_K, atol=1e-12)
        A_m, B_m = (sum(c[m] * low[m] for m in range(BASIS.n_modes)) for c in (g, h))
        op = A_m @ B_m + A_m.conj().T @ B_m.conj().T + A_m.conj().T @ B_m + B_m.conj().T @ A_m
        want = np.vdot(v, op @ v)
        assert abs(want.imag) < 1e-12
        assert_allclose(2.0 * (g.conj() @ rho @ h + g @ K @ h).real, want.real, atol=1e-12)


def _random_events(basis, rng, n):
    L = getattr(basis.backend, "box_side", 1.0)
    return rng.uniform(0.3, 3.0, size=n), rng.uniform(0.0, L, size=(n, basis.backend.dimension))


def _doubles_per_event(state, tail=stress_field):
    """A block's doubles per event: 2 |support| + 2 (B columns) + the tail's slot pairs,
    S^2 for ``stress_field`` and S, the diagonal ones, for ``energy_density``."""
    support, A, D = moments(state)
    S = state.basis.backend.dimension + 2
    pairs = S if tail is energy_density else S ** 2
    return 2 * len(support) + 2 * S * len(A) * (1 + D.any()) + pairs


def _block_events(state):
    """Events per block of ``stress_field`` for the state."""
    return stress_energy._WORKING_SET // _doubles_per_event(state)


def _assert_matches_walk(state, basis, t, x):
    got = stress_field(state, t, x)
    want = np.array([walk_stress(state, basis, te, xe) for te, xe in zip(t, x)])
    assert np.abs(want).max() > 0.0
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(got, got.swapaxes(1, 2))  # exactly symmetric, by construction


@pytest.mark.parametrize("basis, max_quanta", [
    (minkowski_basis(box_side=7.0, dimension=1, mass=0.5, n_max=4), 1),
    (minkowski_basis(box_side=7.0, dimension=1, mass=0.5, n_max=4), 3),
    (minkowski_basis(box_side=5.0, dimension=3, mass=1.0, n_max=1), 1),
    (minkowski_basis(box_side=5.0, dimension=3, mass=0.0, n_max=1), 3),
], ids=["1d-one-quantum", "1d-pairs", "3d-one-quantum", "3d-massless-pairs"])
def test_stress_field_matches_fock_walk_on_random_states(basis, max_quanta):
    rng = np.random.default_rng(basis.n_modes + max_quanta)
    for _ in range(3):
        state = random_state(basis, rng, n_terms=6, max_quanta=max_quanta)
        if max_quanta > 1:
            assert moments(state)[2].any()  # the two-quantum (K) terms are exercised
        _assert_matches_walk(state, basis, *_random_events(basis, rng, 11))


def test_stress_field_matches_fock_walk_on_eds_mixed_times():
    basis = eds_basis(comoving_volume=60.0, mass=3.0)
    rng = np.random.default_rng(8)
    vac = new_vacuum(basis)
    ladder = [vac, create(vac, 0), create(create(vac, 0), 0), create(create(create(vac, 0), 0), 0)]
    state = superpose([(complex(rng.normal(), rng.normal()), s) for s in ladder], normalize=True)
    assert moments(state)[2].any()
    t = rng.permutation(np.geomspace(0.2, 5.0, 13))  # unsorted times in one call
    _assert_matches_walk(state, basis, t, np.zeros((13, 3)))


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["block-1", "block", "block+1"])
def test_stress_field_across_block_boundaries(offset):
    basis = minkowski_basis(box_side=4.0, dimension=1, mass=1.0, n_max=1)
    rng = np.random.default_rng(128 + offset)
    state = random_state(basis, rng, n_terms=4, max_quanta=2)
    n_events = _block_events(state) + offset
    _assert_matches_walk(state, basis, *_random_events(basis, rng, n_events))


@pytest.mark.parametrize("basis", [
    minkowski_basis(box_side=5.0, dimension=3, mass=1.0, n_max=1),
    eds_basis(comoving_volume=60.0, mass=3.0),
], ids=["minkowski", "eds"])
def test_vacuum_stress_field_is_exactly_zero(basis):
    t, x = _random_events(basis, np.random.default_rng(0), 600)
    assert not stress_field(new_vacuum(basis), t, x).any()


SPARSE_BASIS = minkowski_basis(box_side=5.0, dimension=3, mass=1.0, n_max=2)  # 125 modes


def _sparse_state(basis, modes):
    """A vacuum term, one quantum in modes[0] and a pair in modes[1:]: D != 0 on 3 modes."""
    vac = new_vacuum(basis)
    parts = [vac, create(vac, modes[0]), create(create(vac, modes[1]), modes[2])]
    return superpose([(c, s) for c, s in zip((0.6, 0.5j, -0.4 + 0.3j), parts)], normalize=True)


def test_stress_field_on_the_state_support_matches_full_basis_and_walk():
    """Restricted to the occupied modes, the engine keeps the full-basis rows and the oracle."""
    basis = SPARSE_BASIS
    rng = np.random.default_rng(9)
    t, x = _random_events(basis, rng, 40)
    one = create(new_vacuum(basis), basis.mode_index((1, -2, 0)))
    support, A, _ = moments(one)
    assert support == (basis.mode_index((1, -2, 0)),)
    wide = np.zeros((len(A), basis.n_modes), dtype=complex)
    wide[:, list(support)] = A  # the support's columns, back at full width
    every = np.arange(basis.n_modes)
    B = _slot_products(basis.slot_factors(t, every), wide)
    full = _stress_block(basis, B, every, len(A), t, x)
    assert np.array_equal(stress_field(one, t, x), full)
    _assert_matches_walk(one, basis, t, x)
    sparse = _sparse_state(basis, (3, 64, 120))
    assert moments(sparse)[2].any()
    _assert_matches_walk(sparse, basis, t, x)


@pytest.mark.parametrize("state, occupied", [
    (create(new_vacuum(SPARSE_BASIS), 7), 1),
    (_sparse_state(SPARSE_BASIS, (3, 64, 120)), 3),
    (new_vacuum(SPARSE_BASIS), 0),
], ids=["one-quantum", "three-modes", "vacuum"])
def test_mode_functions_are_evaluated_on_occupied_modes_only(state, occupied, monkeypatch):
    basis = SPARSE_BASIS
    widths = []
    field_coeffs = MinkowskiModeBasis.field_coeffs

    def spy(self, *args, **kwargs):
        f = field_coeffs(self, *args, **kwargs)
        widths.append(f.shape[-1])
        return f

    monkeypatch.setattr(MinkowskiModeBasis, "field_coeffs", spy)
    t, x = _random_events(basis, np.random.default_rng(1), _block_events(state) + 1)
    tensors = stress_field(state, t, x)
    assert widths == [occupied] * 2  # one call per block of events
    assert tensors.any() == bool(occupied)


def test_stress_sample_is_the_stress_field_row_bit_for_bit():
    basis = minkowski_basis(box_side=5.0, dimension=3, mass=1.0, n_max=1)
    rng = np.random.default_rng(4)
    multi_row = random_state(basis, rng, n_terms=8, max_quanta=2)
    one_row = create(new_vacuum(basis), 11)
    assert len(moments(multi_row)[1]) > 1 and len(moments(one_row)[1]) == 1
    for state in (multi_row, one_row):
        size = _block_events(state)
        t, x = _random_events(basis, rng, size + 3)
        field = stress_field(state, t, x)
        for e in (0, 1, size - 1, size, size + 2):
            sample = stress_sample(state, t[e], x[e])
            assert type(sample) is np.ndarray and np.array_equal(sample, field[e])


def _einsum_stress(state, basis, t, x):
    """The stress field by the per-event einsum contraction, with the slot factors
    and B rebuilt for all events at once: the form the component sum replaced."""
    support, A, D = moments(state)
    M = np.concatenate([A, D]) if D.any() else A
    f = basis.field_coeffs(t, x, support)
    factors = basis.slot_factors(t, support)
    (E, n), S, P = f.shape, factors.shape[-2], len(M)
    B = np.moveaxis(factors[..., None] * M.T, -3, -2).reshape(factors.shape[:-2] + (n, S * P))
    U = (f[:, None, :] @ B).reshape(E, S, P)
    images = U[..., :len(A)].view(float)
    half = np.einsum("esp,eup->esu", images, images)
    if P > len(A):
        pair = U[..., len(A):].conj().view(float)
        half += np.einsum("esp,eup->esu", pair, images)
    pairs = half + half.transpose(0, 2, 1)
    deriv, phi_sq = pairs[:, :-1, :-1], pairs[:, -1, -1]
    g = diagonal_tensor(metric(basis.backend, t, x))
    inv_diag = 1.0 / np.diagonal(g, axis1=1, axis2=2)
    trace = (inv_diag * np.diagonal(deriv, axis1=1, axis2=2)).sum(axis=1)
    lagrangian = 0.5 * (trace - basis.mass ** 2 * phi_sq)
    return deriv - g * lagrangian[:, None, None]


def _vacuum_plus_pair(basis, mode):
    """The vacuum plus two quanta in one mode: one row, p = |1_mode>, with D != 0."""
    vac = new_vacuum(basis)
    return superpose([(1.0, vac), (0.6 - 0.8j, create(create(vac, mode), mode))], normalize=True)


def _two_mode(basis, a, b, n_quanta, rng):
    """sum_n c_n |n_a, (n_quanta - n)_b>: n_quanta + 1 terms and n_quanta rows, D = 0."""
    terms = {tuple((m, c) for m, c in ((a, n), (b, n_quanta - n)) if c):
             complex(rng.normal(), rng.normal()) for n in range(n_quanta + 1)}
    return FockState(basis, terms).normalized()


_DUST = eds_basis(comoving_volume=60.0, mass=3.0)
_CUBE = minkowski_basis(box_side=5.0, dimension=3, mass=1.0, n_max=1)
_LINE = minkowski_basis(box_side=7.0, dimension=1, mass=0.5, n_max=4)


@pytest.mark.parametrize("state, rows, pair", [
    (new_vacuum(_CUBE), 0, False),
    (create(new_vacuum(_CUBE), 5), 1, False),
    (create(new_vacuum(_CUBE), _CUBE.mode_index((0, 0, 0))), 1, False),
    (create(create(new_vacuum(_LINE), 2), 2).normalized(), 1, False),
    (_vacuum_plus_pair(_LINE, 6), 1, True),
    (create(new_vacuum(_DUST), 0), 1, False),
    (_vacuum_plus_pair(_DUST, 0), 1, True),
    (random_state(_CUBE, np.random.default_rng(4), n_terms=8, max_quanta=2), None, True),
    (random_state(_LINE, np.random.default_rng(5), n_terms=6, max_quanta=3), None, True),
    (_two_mode(_CUBE, 3, 22, 16, np.random.default_rng(6)), None, False),
    (_two_mode(_LINE, 3, 5, 104, np.random.default_rng(7)), None, False),
], ids=["vacuum", "one-quantum-3d", "zero-mode-3d", "two-quanta-1d", "vacuum-plus-pair-1d",
        "one-quantum-eds", "vacuum-plus-pair-eds", "random-3d", "random-1d",
        "two-mode-17-terms-3d", "two-mode-105-terms-1d"])
def test_component_sum_matches_the_einsum_contraction(state, rows, pair):
    """Bit for bit with at most one row of A; within rounding of the state's scale above."""
    basis = state.basis
    _, A, D = moments(state)
    assert (len(A) == rows if rows is not None else len(A) > 1) and D.any() == pair
    t, x = _random_events(basis, np.random.default_rng(len(A)), 2 * _block_events(state) + 7)
    got = stress_field(state, t, x)
    want = _einsum_stress(state, basis, t, x)
    if rows is not None:
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # signed zeros too
    else:
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _square_stress_block(basis, B, modes, n_rows, t, x):
    """``_stress_block`` with its tail in the square form the diagonal one replaced:
    T = deriv - g L over the full (E, d+1, d+1) metric g."""
    f = basis.field_coeffs(t, x, modes)
    E, S = len(f), basis.backend.dimension + 2
    U = (f[:, None, :] @ B).reshape(E, S, B.shape[-1] // S)
    np.conjugate(U[..., n_rows:], out=U[..., n_rows:])
    parts = np.ascontiguousarray(U.view(float).transpose(2, 1, 0))
    images, pair = parts[:2 * n_rows], parts[2 * n_rows:]
    half = np.einsum("cse,cue->sue", images, images)
    if len(pair):
        half += np.einsum("cse,cue->sue", pair, images)
    pairs = half + half.transpose(1, 0, 2)
    deriv, phi_sq = pairs[:-1, :-1].transpose(2, 0, 1), pairs[-1, -1]
    g = diagonal_tensor(metric(basis.backend, t, x))
    inv_diag = 1.0 / np.diagonal(g, axis1=1, axis2=2)
    trace = (inv_diag * np.diagonal(deriv, axis1=1, axis2=2)).sum(axis=1)
    lagrangian = 0.5 * (trace - basis.mass ** 2 * phi_sq)
    return deriv - g * lagrangian[:, None, None]


_PLANE = minkowski_basis(box_side=6.0, dimension=2, mass=0.7, n_max=2)
_DIAGONAL_CASES = {
    "vacuum-1d": new_vacuum(_LINE),
    "vacuum-eds": new_vacuum(_DUST),
    "one-quantum-1d": create(new_vacuum(_LINE), 3),
    "one-quantum-2d": create(new_vacuum(_PLANE), _PLANE.mode_index((1, -2))),
    "one-quantum-3d": create(new_vacuum(_CUBE), 5),
    "one-quantum-eds": create(new_vacuum(_DUST), 0),
    "packet-1d": wavepacket_state(_LINE, [1.3]),
    "packet-2d": wavepacket_state(_PLANE, [0.4, 2.9]),
    "packet-3d": wavepacket_state(_CUBE, [1.0, 2.0, 0.5]),
    "multi-row-1d": random_state(_LINE, np.random.default_rng(11), n_terms=6, max_quanta=3),
    "multi-row-3d": random_state(_CUBE, np.random.default_rng(12), n_terms=8, max_quanta=2),
    "one-row-pair-eds": _vacuum_plus_pair(_DUST, 0),
}


@pytest.mark.parametrize("n_events", [1, 127, 129, 263])
@pytest.mark.parametrize("name", list(_DIAGONAL_CASES))
def test_diagonal_forms_match_the_square_formulas(name, n_events, monkeypatch):
    """``stress_field`` equals deriv - g_square L bit for bit, ``energy_density`` equals
    its T_00, and ``residual``'s per-event values equal max |G_square - 8 pi T| over
    the full square tensors."""
    state = _DIAGONAL_CASES[name]
    backend = state.basis.backend
    rng = np.random.default_rng(n_events)
    t, x = _random_events(state.basis, rng, n_events)
    if n_events % 4 == 1:  # 1 and 129: a scalar time broadcasts over the events
        t = float(t[0])
    got = stress_field(state, t, x)
    energy = energy_density(state, t, x)
    report = residual(state, t, x)
    with monkeypatch.context() as patch:
        patch.setattr(stress_energy, "_stress_block", _square_stress_block)
        want = stress_field(state, t, x)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # signed zeros too
    assert energy.shape == (n_events,)
    assert np.array_equal(energy.view(np.uint64), got[:, 0, 0].view(np.uint64))
    assert np.array_equal(report.stress, got)
    G = diagonal_tensor(einstein_tensor(backend, np.broadcast_to(t, n_events), x))
    per = np.abs(G - 8.0 * np.pi * want).max(axis=(1, 2))
    assert report.per_event == tuple(per.tolist())
    assert report.global_max == per.max()
    assert got.any() != name.startswith("vacuum")


_BLOCK_CASES = {
    "one-quantum-3d": create(new_vacuum(_CUBE), 5),
    "packet-257-terms": wavepacket_state(minkowski_basis(10.0, 1, 1.0, 128), [3.7]),
    "packet-3d": wavepacket_state(SPARSE_BASIS, [1.0, 2.0, 0.5]),
    "multi-row-3d-pair": random_state(_CUBE, np.random.default_rng(12), n_terms=8, max_quanta=2),
    "dust-pair": _vacuum_plus_pair(_DUST, 0),
}


@pytest.mark.parametrize("equal_time", [True, False], ids=["equal-time", "random-times"])
@pytest.mark.parametrize("name", list(_BLOCK_CASES))
def test_rows_do_not_depend_on_the_block_size(name, equal_time, monkeypatch):
    """Blocks of 1, 7, the derived size and the whole call give the same rows bit for bit,
    of ``stress_field`` and of ``energy_density``, its T_00; each sizes its blocks by
    ``_doubles_per_event`` of its own tail."""
    state = _BLOCK_CASES[name]
    _, A, D = moments(state)
    assert D.any() == name.endswith("pair") and (len(A) > 1) == name.startswith("multi-row")
    size = _block_events(state)
    assert size > 7
    rng = np.random.default_rng(size)
    t, x = _random_events(state.basis, rng, 2 * size + 7)
    if equal_time:  # the t = 0 slice pairs the box modes; the dust chart needs t > 0
        t = 1.5 if state.basis is _DUST else 0.0
    want = stress_field(state, t, x)
    blocks = []  # the events handed to each call of a tail
    for tail_name in ("_stress_block", "_energy_block"):
        def counted(*args, tail=getattr(stress_energy, tail_name)):
            blocks.append(len(args[-1]))  # x, the block's events
            return tail(*args)
        monkeypatch.setattr(stress_energy, tail_name, counted)
    for fixed in (1, 7, len(x)):
        sizes = [fixed] * (len(x) // fixed) + [len(x) % fixed] * bool(len(x) % fixed)
        monkeypatch.setattr(stress_energy, "_WORKING_SET", fixed * _doubles_per_event(state))
        blocks.clear()
        got = stress_field(state, t, x)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), fixed
        assert blocks == sizes, fixed
        monkeypatch.setattr(stress_energy, "_WORKING_SET",
                            fixed * _doubles_per_event(state, energy_density))
        blocks.clear()
        energy = energy_density(state, t, x)
        assert np.array_equal(energy.view(np.uint64), want[:, 0, 0].view(np.uint64)), fixed
        assert blocks == sizes, fixed


def _bump_moments(state):
    """``moments`` with each occupation lowered by ``bump``'s bisection: the walk that
    lowering by the pair's own position replaced."""
    rows = {}
    for occ, amp in state.terms.items():
        for mode, count in occ:
            p = bump(occ, mode, -1)
            if p not in rows:
                twice = ((k, n, state.terms.get(bump(p, k, -1))) for k, n in p)
                rows[p] = ({}, {k: sqrt(n) * c.conjugate() for k, n, c in twice if c is not None})
            rows[p][0][mode] = amp * sqrt(count)
    support = tuple(sorted({mode for a_row, _ in rows.values() for mode in a_row}))
    column = {mode: j for j, mode in enumerate(support)}
    AD = np.zeros((2, len(rows), len(support)), dtype=complex)
    cells = {(part * len(rows) + row) * len(support) + column[k]: value
             for row, entries in enumerate(rows.values())
             for part, values in enumerate(entries) for k, value in values.items()}
    AD.put(list(cells), list(cells.values()))
    return support, AD[0], AD[1]


def test_moments_match_the_bump_walk_bit_for_bit():
    rng = np.random.default_rng(12)
    states = [random_state(BASIS, rng, n_terms=7, max_quanta=3) for _ in range(4)]
    assert any(n > 1 for state in states for occ in state.terms for _, n in occ)
    packet = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=128)
    states += [wavepacket_state(packet, (3.7,)), new_vacuum(BASIS)]
    for state in states:
        (support, A, D), (want_support, want_A, want_D) = moments(state), _bump_moments(state)
        assert support == want_support
        assert A.shape == want_A.shape and np.array_equal(A.view(np.uint64), want_A.view(np.uint64))
        assert D.shape == want_D.shape and np.array_equal(D.view(np.uint64), want_D.view(np.uint64))
    assert moments(states[0])[2].any() and len(states[-2].terms) == 257


def test_moments_match_ladder_products():
    """rho = A^H A is <a_k+ a_l> and K = D^T A is <a_k a_l>, from the ladder operators."""
    basis = minkowski_basis(box_side=5.0, dimension=1, mass=1.0, n_max=1)
    state = random_state(basis, np.random.default_rng(2), n_terms=7, max_quanta=3)
    support, *factors = moments(state)
    assert support == tuple(sorted({m for occ in state.terms for m, _ in occ}))
    A, D = np.zeros((2, len(factors[0]), basis.n_modes), dtype=complex)
    A[:, list(support)], D[:, list(support)] = factors  # no moment off the support
    lowered = [annihilate(state, k) for k in range(basis.n_modes)]
    rho = np.array([[inner(lowered[k], lowered[l]) for l in range(3)] for k in range(3)])
    pair = np.array([[inner(state, annihilate(lowered[l], k)) for l in range(3)]
                     for k in range(3)])
    assert_allclose(A.conj().T @ A, rho, atol=1e-14)
    assert_allclose(D.T @ A, pair, atol=1e-14)
    assert np.abs(pair).max() > 0.1


def test_stress_entry_points_reject_a_state_off_unit_norm():
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=1)
    big = superpose([(2.0, create(new_vacuum(basis), 0))])
    message = r"^state must be normalized to unit norm \(norm=2\)$"
    with pytest.raises(ValueError, match=message):
        stress_field(big, 0.0, np.zeros((1, 1)))
    with pytest.raises(ValueError, match=message):
        total_energy(big)
    nan = FockState(basis, {((0, 1),): complex("nan+nanj")})  # a NaN norm fails the check too
    for call in (lambda: stress_field(nan, 0.0, np.zeros((1, 1))), lambda: total_energy(nan)):
        with pytest.raises(ValueError, match=r"\(norm=nan\)$"):
            call()


def test_stress_field_rejects_bad_event_arrays():
    basis = minkowski_basis(box_side=10.0, dimension=2, mass=1.0, n_max=1)
    vac = new_vacuum(basis)
    with pytest.raises(ValueError):
        stress_field(vac, 0.0, np.zeros((4, 3)))
    with pytest.raises(ValueError):
        stress_field(vac, 0.0, np.zeros(2))
    with pytest.raises(ValueError):
        stress_field(vac, np.zeros(3), np.zeros((4, 2)))
    dust = eds_basis(comoving_volume=10.0, mass=1.0)
    with pytest.raises(ValueError):
        stress_field(new_vacuum(dust), [1.0, 0.0], np.zeros((2, 3)))



@pytest.mark.parametrize("t_shape", [(3,), (4, 1), (1, 1), (1, 4), (0,)])
def test_times_that_do_not_broadcast_to_the_events_name_both_shapes(t_shape):
    """A t that does not broadcast to (E,) is a domain error naming both shapes,
    from ``stress_field`` and from ``residual``; shapes (), (1,) and (E,) pass."""
    state = create(new_vacuum(_PLANE), 4)
    x = np.zeros((4, 2))
    message = f"t has shape {t_shape}, events need (4,)"
    for call in (stress_field, residual):
        with pytest.raises(BackendDomainError, match=re.escape(message)):
            call(state, np.ones(t_shape), x)
    want = stress_field(state, np.ones(4), x)
    for ok in ((), (1,), (4,)):
        assert np.array_equal(stress_field(state, np.ones(ok), x), want)
        assert np.array_equal(residual(state, np.ones(ok), x).stress, want)

# ---- flat-space closed forms -------------------------------------------------

def test_vacuum_stress_vanishes_identically():
    basis = minkowski_basis(box_side=10.0, dimension=3, mass=1.0, n_max=1)
    vac = new_vacuum(basis)
    sample = stress_field(vac, 0.3, [(1.0, 2.0, 3.0)])[0]
    assert np.abs(sample).max() == 0.0


def test_single_particle_plane_wave_components():
    """|1_k>: T_00 = w/V, T_0i = -k_i/V (covariant), T_ij = k_i k_j / (w V)."""
    basis = minkowski_basis(box_side=10.0, dimension=2, mass=1.0, n_max=2)
    label = (2, -1)
    i = basis.mode_index(label)
    k = basis.wavevectors([i])[0]
    w = basis.frequencies([i])[0]
    V = basis.backend.spatial_volume
    one = create(new_vacuum(basis), i)
    sample = stress_field(one, 0.7, [(3.3, 8.1)])[0]
    assert_allclose(sample[(0, 0)], w / V, rtol=1e-13)
    for axis in range(2):
        assert_allclose(sample[(0, axis + 1)], -k[axis] / V, rtol=1e-13)
        for axis2 in range(2):
            assert_allclose(
                sample[(axis + 1, axis2 + 1)], k[axis] * k[axis2] / (w * V), rtol=1e-13,
                atol=1e-16,
            )
    # plane waves have vanishing Lagrangian density: trace fixed by components
    assert sample.shape == (3, 3)


def test_stress_is_uniform_for_plane_wave_states():
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=0.5, n_max=2)
    one = create(new_vacuum(basis), basis.mode_index((2,)))
    s1 = stress_field(one, 0.0, [(0.0,)])[0]
    s2 = stress_field(one, 1.3, [(7.7,)])[0]
    assert_allclose(s1, s2, atol=1e-15)


def test_two_quanta_double_the_energy_density():
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=1)
    i = basis.mode_index((1,))
    two = create(create(new_vacuum(basis), i), i).normalized()
    sample = stress_field(two, 0.0, [(0.0,)])[0]
    w = basis.frequencies([i])[0]
    assert_allclose(sample[(0, 0)], 2.0 * w / basis.backend.spatial_volume, rtol=1e-13)


def test_total_energy_closed_forms():
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=2)
    vac = new_vacuum(basis)
    assert total_energy(vac) == 0.0
    i = basis.mode_index((1,))
    w = basis.frequencies([i])[0]
    assert_allclose(total_energy(create(vac, i)), w, rtol=1e-14)
    j = basis.mode_index((-2,))
    pair = superpose([(1.0, create(vac, i)), (1.0, create(vac, j))], normalize=True)
    assert_allclose(total_energy(pair), 0.5 * (w + basis.frequencies([j])[0]), rtol=1e-14)


_TOTAL_ENERGY_STATES = {f"{draw}-{d}d": (d, n_max, draw) for d, n_max in ((1, 4), (2, 2), (3, 1))
                        for draw in ("terms", "per-mode")}


@pytest.mark.parametrize("dimension, n_max, draw", _TOTAL_ENERGY_STATES.values(),
                         ids=_TOTAL_ENERGY_STATES.keys())
def test_total_energy_matches_the_fock_walk(dimension, n_max, draw):
    """Sum w_k rho_kk from the moments is the term walk's sum w_k <N_k> to rounding: each
    of the n (term, mode) summands is non-negative and carries at most five roundings on
    either side, and the additions at most n - 1, so the two differ by at most
    2 (n + 4) eps <= 10 n eps of the total."""
    basis = minkowski_basis(box_side=7.0, dimension=dimension, mass=0.5, n_max=n_max)
    rng = np.random.default_rng(40 + dimension)
    for _ in range(5):
        if draw == "terms":  # multi-quantum terms, each with a two-quanta partner: K != 0
            state = random_state(basis, rng, n_terms=8, max_quanta=3)
            assert np.abs(moments(state)[2]).max() > 0.0
        else:
            state = random_state(basis, rng, n_terms=4, max_quanta=2, per_mode=True).normalized()
        n = sum(len(occ) for occ in state.terms)
        want = walk_total_energy(state)
        assert abs(total_energy(state) - want) <= 10 * n * np.finfo(float).eps * want


def test_total_energy_matches_lattice_integration():
    """Rectangle-rule integral of T_00 over the box reproduces sum_k w_k <N_k>."""
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=2)
    vac = new_vacuum(basis)
    psi = superpose(
        [(0.6, create(vac, basis.mode_index((1,)))),
         (0.8j, create(vac, basis.mode_index((-2,))))],
    )
    direct = total_energy(psi)
    lattice = integrated_energy(psi, basis, basis.backend, t=0.2,
                                points_per_axis=2 * basis.n_max + 1)
    assert_allclose(lattice, direct, rtol=1e-12)


def test_interference_term_integrates_away():
    """Cross terms between distinct modes modulate T_00 in space but keep the
    box total exact."""
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=2)
    vac = new_vacuum(basis)
    psi = superpose([(1.0, create(vac, 0)), (1.0, create(vac, 1))], normalize=True)
    s_a = stress_field(psi, 0.0, [(1.0,)])[0]
    s_b = stress_field(psi, 0.0, [(3.0,)])[0]
    assert abs(s_a[(0, 0)] - s_b[(0, 0)]) > 1e-6  # genuinely non-uniform
    total = integrated_energy(psi, basis, basis.backend, t=0.0, points_per_axis=64)
    expected = 0.5 * (basis.frequencies([0])[0] + basis.frequencies([1])[0])
    assert_allclose(total, expected, rtol=1e-12)


def test_energy_density_decays_inversely_with_volume():
    densities = []
    volumes = (10.0, 20.0, 40.0, 80.0)
    for L in volumes:
        basis = minkowski_basis(box_side=L, dimension=1, mass=1.0, n_max=1)
        one = create(new_vacuum(basis), basis.mode_index((0,)))
        densities.append(stress_field(one, 0.0, [(0.0,)])[0][(0, 0)])
    slope = np.polyfit(np.log(volumes), np.log(densities), 1)[0]
    assert_allclose(slope, -1.0, atol=1e-9)


# ---- dust cosmology ----------------------------------------------------------

def _eds_oracle_components():
    """Sympy evaluation of the stress tensor on the exact k = 0 mode.

    For |1_0> built on f0 = e^{-i m t} / (t sqrt(2 m V0)):
        E_tt   = 2 |df0/dt|^2,  E_pp = 2 |f0|^2
        T_00   = E_tt / 2 + m^2 E_pp / 2
        T_ii   = a^2 (E_tt / 2 - m^2 E_pp / 2),  a^2 = t^(4/3)
    """
    t, m, V0 = sp.symbols("t m V0", positive=True)
    f0 = sp.exp(-sp.I * m * t) / (t * sp.sqrt(2 * m * V0))
    df0 = sp.diff(f0, t)
    e_tt = 2 * sp.Abs(df0) ** 2
    e_pp = 2 * sp.Abs(f0) ** 2
    t00 = sp.simplify(e_tt / 2 + m**2 * e_pp / 2)
    tii = sp.simplify(t**sp.Rational(4, 3) * (e_tt / 2 - m**2 * e_pp / 2))
    return (t, m, V0), t00, tii


def test_eds_oracle_closed_forms():
    (t, m, V0), t00, tii = _eds_oracle_components()
    assert sp.simplify(t00 - (m / (V0 * t**2) + 1 / (2 * m * V0 * t**4))) == 0
    assert sp.simplify(tii - t**sp.Rational(4, 3) / (2 * m * V0 * t**4)) == 0


@pytest.mark.parametrize("t_val", [0.5, 1.0, 2.0, 4.0])
def test_eds_single_quantum_matches_mode_closed_form(t_val):
    mass, v0 = 100.0, 600.0 * np.pi
    basis = eds_basis(comoving_volume=v0, mass=mass)
    one = create(new_vacuum(basis), 0)
    sample = stress_field(one, t_val, [(0.0, 0.0, 0.0)])[0]
    t00_expected = mass / (v0 * t_val**2) + 1.0 / (2.0 * mass * v0 * t_val**4)
    tii_expected = t_val ** (4.0 / 3.0) / (2.0 * mass * v0 * t_val**4)
    assert_allclose(sample[(0, 0)], t00_expected, rtol=1e-10)
    for i in (1, 2, 3):
        assert_allclose(sample[(i, i)], tii_expected, rtol=1e-10)
        for j in range(4):
            if i != j:
                assert abs(sample[(i, j)]) <= 1e-12


def test_eds_vacuum_stress_vanishes():
    basis = eds_basis(comoving_volume=100.0, mass=2.0)
    sample = stress_field(new_vacuum(basis), 1.0, [(0, 0, 0)])[0]
    assert np.abs(sample).max() == 0.0


# ---- conservation: the central-difference divergence of <T_mn> -------------------
#
# The oracle shares no code with the engine's contraction: it reads only
# stress_field and takes differences.  A symmetrized bilinear of any two
# Klein-Gordon solutions is conserved, so this checks the tensor form and the
# mode functions; it cannot see the moments (rho, K), which the Fock walk checks.

def _divergence(state, t, x, h):
    """d_t T_0n - sum_i d_i T_in at the events by central differences of step h,
    shape (E, d+1): nabla^m T_mn in the box metric diag(1, -1, ..., -1)."""
    d = x.shape[1]
    div = (stress_field(state, t + h, x)[:, 0] - stress_field(state, t - h, x)[:, 0]) / (2 * h)
    for i, step in enumerate(h * np.eye(d)):
        div -= (stress_field(state, t, x + step)[:, i + 1]
                - stress_field(state, t, x - step)[:, i + 1]) / (2 * h)
    return div


@pytest.mark.parametrize("basis", [
    minkowski_basis(box_side=7.0, dimension=1, mass=0.5, n_max=4),
    minkowski_basis(box_side=7.0, dimension=1, mass=0.0, n_max=4),
    minkowski_basis(box_side=5.0, dimension=2, mass=1.0, n_max=2),
    minkowski_basis(box_side=5.0, dimension=2, mass=0.0, n_max=2),
    minkowski_basis(box_side=5.0, dimension=3, mass=1.0, n_max=1),
    minkowski_basis(box_side=5.0, dimension=3, mass=0.0, n_max=1),
], ids=["1d", "1d-massless", "2d", "2d-massless", "3d", "3d-massless"])
@pytest.mark.parametrize("max_quanta", [1, 3], ids=["one-quantum", "pairs"])
def test_box_stress_is_conserved(basis, max_quanta):
    rng = np.random.default_rng(10 * basis.backend.dimension + max_quanta)
    state = random_state(basis, rng, n_terms=5, max_quanta=max_quanta)
    assert moments(state)[2].any() == (max_quanta > 1)  # K != 0 exactly for the pair states
    t, x = _random_events(basis, rng, 8)
    w = basis.frequencies(list(moments(state)[0])).max()  # T varies on 1/(2w)
    scale = w * np.abs(stress_field(state, t, x)).max()
    # the differences' O(h^2) truncation error, far above rounding at h w <= 0.02; in
    # massless 1-D it cancels exactly (T is a function of t - x plus one of t + x)
    for h in (0.02 / w, 0.01 / w):
        assert np.abs(_divergence(state, t, x, h)).max() <= (h * w) ** 2 * scale


@pytest.mark.parametrize("state", [create(new_vacuum(_DUST), 0), _vacuum_plus_pair(_DUST, 0)],
                         ids=["one-quantum", "vacuum-plus-pair"])
def test_dust_stress_is_conserved(state):
    """d rho/dt + H (3 rho + sum_i T_ii / a^2) = 0, with a^2 = t^(4/3) and H = 2/(3t)."""
    t = np.array([0.4, 1.0, 2.5, 6.0])
    x = np.zeros((len(t), 3))

    def continuity(h):
        rho_dot = (stress_field(state, t + h, x)[:, 0, 0]
                   - stress_field(state, t - h, x)[:, 0, 0]) / (2 * h)
        T = stress_field(state, t, x)
        trace = np.trace(T[:, 1:, 1:], axis1=1, axis2=2) / t ** (4.0 / 3.0)
        return rho_dot + 2.0 / (3.0 * t) * (3.0 * T[:, 0, 0] + trace)

    # the mode varies on 1/m and on t itself; on a step small on both, the residual
    # is the O(h^2) truncation error of the difference: it falls 4x as h halves
    step = 0.02 * np.minimum(t, 1.0 / _DUST.mass)
    coarse, fine = (np.abs(continuity(h)).max() for h in (step, step / 2))
    assert 3.5 < coarse / fine < 4.5


# ---- wavepackets ---------------------------------------------------------------

def test_wavepacket_is_normalized_single_particle():
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=8)
    psi = wavepacket_state(basis, (5.0,))
    assert_allclose(psi.norm(), 1.0, atol=1e-12)
    n_total = sum(
        sum(c for _, c in occ) * abs(amp) ** 2 for occ, amp in psi.terms.items()
    )
    assert_allclose(n_total, 1.0, atol=1e-12)


def test_wavepacket_energy_density_is_localized():
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=16)
    psi = wavepacket_state(basis, (5.0,))
    at_center = stress_field(psi, 0.0, [(5.0,)])[0][(0, 0)]
    far = stress_field(psi, 0.0, [(0.0,)])[0][(0, 0)]
    assert at_center > 10.0 * abs(far)
    total = integrated_energy(psi, basis, basis.backend, t=0.0, points_per_axis=64)
    assert_allclose(total, total_energy(psi), rtol=1e-10)


def _superposed_packet(basis, x0):
    """The packet as the ``superpose`` of ``create``d one-quantum states."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    amps = np.exp(-1j * basis.wavevectors() @ x0) / np.sqrt(2.0 * basis.frequencies())
    vac = new_vacuum(basis)
    return superpose([(amps[k], create(vac, k)) for k in range(basis.n_modes)], normalize=True)


@pytest.mark.parametrize("basis, x0", [
    (minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=128), (3.7,)),
    (minkowski_basis(box_side=10.0, dimension=3, mass=1.0, n_max=2), (1.0, 8.5, 4.25)),
    (minkowski_basis(box_side=6.0, dimension=1, mass=0.0, n_max=9), (0.0,)),
    (minkowski_basis(box_side=3.0, dimension=2, mass=0.7, n_max=3), (0.0, 2.9)),
    # amplitudes near 1e-20 would fall under DROP_TOL without the prescale
    (minkowski_basis(box_side=1e-40, dimension=1, mass=0.0, n_max=3), (0.0,)),
    (minkowski_basis(box_side=10.0, dimension=1, mass=1e40, n_max=2), (4.0,)),
    (minkowski_basis(box_side=1e90, dimension=1, mass=0.0, n_max=4), (2e89,)),
    # some phases come out -0.0, which superpose's sum from 0j turns into 0.0
    (minkowski_basis(box_side=6.0, dimension=3, mass=1.0, n_max=2), (1e-320,) * 3),
], ids=["1d-nmax128", "3d-nmax2", "massless-1d", "2d", "tiny-box", "heavy", "huge-box",
        "signed-zero"])
def test_wavepacket_state_is_the_superposed_packet_bit_for_bit(basis, x0):
    def bits(state):
        return [(occ, amp.real.hex(), amp.imag.hex()) for occ, amp in state.terms.items()]

    got, want = wavepacket_state(basis, x0), _superposed_packet(basis, x0)
    assert len(got.terms) == basis.n_modes
    assert bits(got) == bits(want)  # same order, same bits, same signed zeros


# ---- input validation -----------------------------------------------------------

def test_wavepacket_state_rejects_a_non_finite_centre():
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=2)
    for x0 in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^x0 must be finite$"):
            wavepacket_state(basis, (x0,))


@pytest.mark.parametrize("call, error, message", [
    (lambda: wavepacket_state(_DUST, (0.0,)), ModeBasisError,
     "wavepacket_state is defined for box mode bases"),
    (lambda: wavepacket_state(minkowski_basis(10.0, 2, 1.0, 1), (1.0,)), ValueError,
     "x0 must have one coordinate per spatial dimension"),
    (lambda: integrated_energy(new_vacuum(_DUST), _DUST, _DUST.backend), ModeBasisError,
     "lattice integration is defined for box mode bases"),
], ids=["packet-on-dust", "packet-centre-length", "lattice-on-dust"])
def test_box_entry_points_reject_a_dust_basis_or_a_short_centre(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_stress_field_rejects_mismatched_inputs():
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=1)
    # a basis object over a 1-D box backend that is neither a box nor a dust basis
    stand_in = SimpleNamespace(n_modes=2, backend=Minkowski(dimension=1))
    with pytest.raises(ModeBasisError):
        stress_field(new_vacuum(stand_in), 0.0, [(0.0,)])
    with pytest.raises(BackendDomainError):
        stress_field(new_vacuum(basis), 0.0, [(0.0, 0.0)])


@pytest.mark.parametrize("box_side", [10.0, 7.3])
@pytest.mark.parametrize("n", [1, 2, 7, 16])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_box_lattice_is_the_meshgrid_stack_bit_for_bit(dimension, n, box_side):
    """The axis i L/N and the lattice filled coordinate by coordinate are the linspace,
    ``meshgrid(indexing="ij")`` and ``stack`` form, bit for bit, and the cell is (L/N)^d."""
    backend = Minkowski(dimension=dimension, box_side=box_side)
    lattice, cell = box_lattice(backend, n)
    want = meshgrid_lattice(backend, n)
    assert lattice.shape == want.shape == (n ** dimension, dimension)
    assert np.array_equal(lattice.view(np.uint64), want.view(np.uint64))
    assert cell == (box_side / n) ** dimension
    same, same_cell = box_lattice(backend, np.int64(n))  # a numpy integer is an integer
    assert np.array_equal(same.view(np.uint64), want.view(np.uint64)) and same_cell == cell


@pytest.mark.parametrize("bad", [True, False, 2.5, 3.0, np.float64(4.0), "4", None])
def test_lattice_points_must_be_an_integer(bad):
    """A bool or a non-integer count is a TypeError naming ``points_per_axis``, from the
    lattice and from ``integrated_energy``; a count below 1 is a ValueError naming it."""
    basis = minkowski_basis(box_side=10.0, dimension=2, mass=1.0, n_max=1)
    state = create(new_vacuum(basis), 4)
    message = f"points_per_axis must be an integer, not {type(bad).__name__}"
    with pytest.raises(TypeError, match=re.escape(message)):
        box_lattice(basis.backend, bad)
    with pytest.raises(TypeError, match=re.escape(message)):
        integrated_energy(state, basis, basis.backend, points_per_axis=bad)
    for low in (0, -3, np.int64(0)):
        with pytest.raises(ValueError, match="points_per_axis must be positive"):
            integrated_energy(state, basis, basis.backend, points_per_axis=low)


@pytest.mark.parametrize("basis", [BASIS, _PLANE, _CUBE, _DUST], ids=["1d", "2d", "3d", "dust"])
def test_lagrangian_adds_the_slots_as_the_row_sum_did(basis):
    """<:L:> adds g^mm <:(d_m phi)^2:> slot by slot, bit for bit the ``.sum(1)`` it replaced,
    for the slot squares as ``_energy_block`` and as ``_stress_block`` lay them out."""
    rng = np.random.default_rng(basis.backend.dimension)
    E, S = 200, basis.backend.dimension + 2
    t, x = _random_events(basis, rng, E)
    pairs = rng.normal(size=(S, S, E)) * 10.0 ** rng.integers(-8, 9, size=(S, S, E))
    for diag in (pairs[0][:-1].T, pairs.reshape(S * S, E)[:-1:S + 1].T):
        phi_sq = pairs[-1, -1]
        g, got = _lagrangian(basis, t, x, diag, phi_sq)
        want = 0.5 * (((1.0 / g) * diag).sum(1) - basis.mass ** 2 * phi_sq)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_integrated_energy_rejects_a_basis_or_backend_not_the_states():
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=1)
    other = minkowski_basis(box_side=10.0, dimension=1, mass=2.0, n_max=1)
    vac = new_vacuum(basis)
    assert integrated_energy(vac, basis, basis.backend) == 0.0
    with pytest.raises(BasisMismatchError):
        integrated_energy(new_vacuum(other), basis, basis.backend)
    with pytest.raises(BasisMismatchError):
        integrated_energy(vac, basis, Minkowski(dimension=2, box_side=10.0))


def test_total_energy_requires_box_basis():
    basis = eds_basis(comoving_volume=10.0, mass=1.0)
    with pytest.raises(ModeBasisError):
        total_energy(new_vacuum(basis))
