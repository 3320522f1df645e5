"""Stress-energy observables: dense-operator and Fock-walk oracles, closed forms."""
import itertools
from math import sqrt

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from semigrav.fock import (
    FockState, Occupation, annihilate, create, inner, new_vacuum, superpose,
)
from semigrav.modes import (
    MinkowskiModeBasis, ModeBasisError, eds_basis, minkowski_basis, rindler_basis,
)
from semigrav.spacetime import EinsteinDeSitter, Event, Minkowski, metric
from semigrav.stress_energy import (
    _BLOCK,
    _slot_products,
    _stress_block,
    integrated_energy,
    moments,
    quadratic_expectation,
    stress_field,
    stress_sample,
    total_energy,
    wavepacket_state,
)

BASIS = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=1)  # 3 modes
BACKEND = BASIS.backend


# ---- dense oracle for the normal-ordered quadratic form ----------------------

def _dense_space(n_modes, cap):
    states = list(itertools.product(range(cap + 1), repeat=n_modes))
    index = {s: i for i, s in enumerate(states)}
    return states, index


def _lowering_matrix(states, index, mode):
    a = np.zeros((len(states), len(states)))
    for s, i in index.items():
        n = s[mode]
        if n > 0:
            t = s[:mode] + (n - 1,) + s[mode + 1:]
            a[index[t], i] = np.sqrt(n)
    return a


def _dense_normal_ordered(g, h, states, index):
    """Matrix of :AB: with A = sum g_k a_k + conj(g_k) a_k^dag, B likewise."""
    n_modes = len(g)
    dim = len(states)
    low = [_lowering_matrix(states, index, m) for m in range(n_modes)]
    A_m = sum(g[m] * low[m] for m in range(n_modes))
    A_p = sum(np.conj(g[m]) * low[m].T for m in range(n_modes))
    B_m = sum(h[m] * low[m] for m in range(n_modes))
    B_p = sum(np.conj(h[m]) * low[m].T for m in range(n_modes))
    # creation parts always to the left
    return A_m @ B_m + A_p @ B_p + A_p @ B_m + B_p @ A_m


def _vector(state, states, index):
    v = np.zeros(len(states), dtype=complex)
    for occ, amp in state.terms.items():
        key = tuple(occ.count(m) for m in range(len(states[0])))
        v[index[key]] = amp
    return v


def test_quadratic_expectation_matches_dense_oracle():
    rng = np.random.default_rng(5)
    states, index = _dense_space(BASIS.n_modes, cap=4)
    for _ in range(10):
        terms = {}
        for _ in range(3):
            counts = {m: rng.integers(0, 3) for m in range(BASIS.n_modes)}
            terms[Occupation.from_counts(counts)] = complex(rng.normal(), rng.normal())
        psi = FockState(BASIS, terms)
        if psi.norm() < 1e-9:
            continue
        psi = psi.normalized()
        g = rng.normal(size=BASIS.n_modes) + 1j * rng.normal(size=BASIS.n_modes)
        h = rng.normal(size=BASIS.n_modes) + 1j * rng.normal(size=BASIS.n_modes)
        got = quadratic_expectation(psi, g, h)
        op = _dense_normal_ordered(g, h, states, index)
        v = _vector(psi, states, index)
        want = np.vdot(v, op @ v)
        assert abs(want.imag) < 1e-12
        assert_allclose(got, want.real, atol=1e-12)
        assert isinstance(got, float)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_quadratic_expectation_is_real_and_symmetric(seed):
    rng = np.random.default_rng(seed)
    vac = new_vacuum(BASIS)
    psi = superpose(
        [(complex(rng.normal(), rng.normal()), vac),
         (complex(rng.normal(), rng.normal()), create(vac, 0)),
         (complex(rng.normal(), rng.normal()), create(create(vac, 1), 2))],
    )
    if psi.norm() < 1e-6:
        return
    psi = psi.normalized()
    g = rng.normal(size=3) + 1j * rng.normal(size=3)
    h = rng.normal(size=3) + 1j * rng.normal(size=3)
    ab = quadratic_expectation(psi, g, h)
    ba = quadratic_expectation(psi, h, g)
    assert_allclose(ab, ba, atol=1e-10 * (1.0 + abs(ab)))


def test_quadratic_expectation_validates_input():
    vac = new_vacuum(BASIS)
    with pytest.raises(ValueError):
        quadratic_expectation(vac, np.zeros(2), np.zeros(3))
    big = superpose([(2.0, vac)])
    with pytest.raises(ValueError):
        quadratic_expectation(big, np.zeros(3), np.zeros(3))


# ---- Fock-walk oracle: lowering images of the state, one event at a time ------

def _lowering_image(state, coeffs):
    """sum_k g_k a_k |Psi>, applied term by term to the sparse state."""
    acc = {}
    for occ, amp in state.terms.items():
        for mode, count in occ.pairs:
            c = coeffs[mode]
            if c == 0.0:
                continue
            lowered = occ.bump(mode, -1)
            acc[lowered] = acc.get(lowered, 0.0) + amp * c * sqrt(count)
    return FockState(state.basis, acc)


def _walk_stress(state, basis, t, x):
    """T_mn at one event from <:AB:> = 2 Re <A-Psi|B-Psi> + 2 Re <Psi|A-B-Psi>."""
    dx = basis.dx_coeffs(t, x)
    coeffs = [basis.dt_coeffs(t, x)] + list(dx.T) + [basis.field_coeffs(t, x)]
    images = [_lowering_image(state, c) for c in coeffs]

    def pair(i, j):
        double = inner(state, _lowering_image(images[j], coeffs[i]))
        return 2.0 * (inner(images[i], images[j]).real + double.real)

    dim = len(coeffs) - 1
    deriv = np.array([[pair(i, j) for j in range(dim)] for i in range(dim)])
    g = metric(basis.backend, t, x)
    lagrangian = 0.5 * (np.diag(deriv) @ (1.0 / np.diag(g)) - basis.mass**2 * pair(dim, dim))
    return deriv - g * lagrangian


def _random_state(basis, rng, n_terms, max_quanta):
    """Normalized superposition of random occupations with up to max_quanta quanta.

    With max_quanta >= 2 each drawn occupation also enters with two more
    quanta, so that the pair moment K = <a a> does not vanish.
    """
    pairs = max_quanta >= 2
    terms = {}
    while len(terms) < n_terms:
        modes = rng.integers(0, basis.n_modes, size=rng.integers(0, max_quanta - 2 * pairs + 1))
        draws = [modes, np.concatenate([modes, rng.integers(0, basis.n_modes, size=2)])]
        for drawn in draws[:1 + pairs]:
            counts = {m: int((drawn == m).sum()) for m in set(drawn.tolist())}
            terms[Occupation.from_counts(counts)] = complex(rng.normal(), rng.normal())
    return FockState(basis, terms).normalized()


def _random_events(basis, rng, n):
    L = getattr(basis.backend, "box_side", 1.0)
    return rng.uniform(0.3, 3.0, size=n), rng.uniform(0.0, L, size=(n, basis.backend.dimension))


def _assert_matches_walk(state, basis, t, x):
    got = stress_field(state, basis, basis.backend, t, x)
    want = np.array([_walk_stress(state, basis, te, xe) for te, xe in zip(t, x)])
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
        state = _random_state(basis, rng, n_terms=6, max_quanta=max_quanta)
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


@pytest.mark.parametrize("n_events", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_stress_field_across_block_boundaries(n_events):
    basis = minkowski_basis(box_side=4.0, dimension=1, mass=1.0, n_max=1)
    rng = np.random.default_rng(n_events)
    state = _random_state(basis, rng, n_terms=4, max_quanta=2)
    _assert_matches_walk(state, basis, *_random_events(basis, rng, n_events))


@pytest.mark.parametrize("basis", [
    minkowski_basis(box_side=5.0, dimension=3, mass=1.0, n_max=1),
    eds_basis(comoving_volume=60.0, mass=3.0),
], ids=["minkowski", "eds"])
def test_vacuum_stress_field_is_exactly_zero(basis):
    t, x = _random_events(basis, np.random.default_rng(0), 600)
    assert not stress_field(new_vacuum(basis), basis, basis.backend, t, x).any()


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
    full = _stress_block(basis, basis.backend, B, every, len(A), t, x)
    assert np.array_equal(stress_field(one, basis, basis.backend, t, x), full)
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
    t, x = _random_events(basis, np.random.default_rng(1), _BLOCK + 1)
    tensors = stress_field(state, basis, basis.backend, t, x)
    assert widths == [occupied] * 2  # one call per block of events
    assert tensors.any() == bool(occupied)


def test_stress_sample_is_the_stress_field_row_bit_for_bit():
    basis = minkowski_basis(box_side=5.0, dimension=3, mass=1.0, n_max=1)
    rng = np.random.default_rng(4)
    multi_row = _random_state(basis, rng, n_terms=8, max_quanta=2)
    one_row = create(new_vacuum(basis), 11)
    assert len(moments(multi_row)[1]) > 1 and len(moments(one_row)[1]) == 1
    t, x = _random_events(basis, rng, _BLOCK + 3)
    for state in (multi_row, one_row):
        field = stress_field(state, basis, basis.backend, t, x)
        for e in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 2):
            sample = stress_sample(state, basis, basis.backend, Event(t[e], tuple(x[e])))
            assert type(sample) is np.ndarray and np.array_equal(sample, field[e])


def _einsum_stress(state, basis, t, x):
    """The stress field by the per-event einsum contraction, with the slot factors
    and B rebuilt per block: the form the component sum replaced."""
    support, A, D = moments(state)
    M = np.concatenate([A, D]) if D.any() else A
    blocks = []
    for lo in range(0, len(t), _BLOCK):
        tb, xb = t[lo:lo + _BLOCK], x[lo:lo + _BLOCK]
        f = basis.field_coeffs(tb, xb, support)
        factors = basis.slot_factors(tb, support)
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
        g = metric(basis.backend, tb, xb)
        inv_diag = 1.0 / np.diagonal(g, axis1=1, axis2=2)
        trace = (inv_diag * np.diagonal(deriv, axis1=1, axis2=2)).sum(axis=1)
        lagrangian = 0.5 * (trace - basis.mass ** 2 * phi_sq)
        blocks.append(deriv - g * lagrangian[:, None, None])
    return np.concatenate(blocks)


def _vacuum_plus_pair(basis, mode):
    """The vacuum plus two quanta in one mode: one row, p = |1_mode>, with D != 0."""
    vac = new_vacuum(basis)
    return superpose([(1.0, vac), (0.6 - 0.8j, create(create(vac, mode), mode))], normalize=True)


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
    (_random_state(_CUBE, np.random.default_rng(4), n_terms=8, max_quanta=2), None, True),
    (_random_state(_LINE, np.random.default_rng(5), n_terms=6, max_quanta=3), None, True),
], ids=["vacuum", "one-quantum-3d", "zero-mode-3d", "two-quanta-1d", "vacuum-plus-pair-1d",
        "one-quantum-eds", "vacuum-plus-pair-eds", "random-3d", "random-1d"])
def test_component_sum_matches_the_einsum_contraction(state, rows, pair):
    """Bit for bit with at most one row of A; within rounding of the state's scale above."""
    basis = state.basis
    _, A, D = moments(state)
    assert (len(A) == rows if rows is not None else len(A) > 1) and D.any() == pair
    t, x = _random_events(basis, np.random.default_rng(len(A)), 2 * _BLOCK + 7)
    got = stress_field(state, basis, basis.backend, t, x)
    want = _einsum_stress(state, basis, t, x)
    if rows is not None:
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # signed zeros too
    else:
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_moments_match_ladder_products():
    """rho = A^H A is <a_k+ a_l> and K = D^T A is <a_k a_l>, from the ladder operators."""
    basis = minkowski_basis(box_side=5.0, dimension=1, mass=1.0, n_max=1)
    state = _random_state(basis, np.random.default_rng(2), n_terms=7, max_quanta=3)
    support, *factors = moments(state)
    assert support == tuple(sorted({m for occ in state.terms for m, _ in occ.pairs}))
    A, D = np.zeros((2, len(factors[0]), basis.n_modes), dtype=complex)
    A[:, list(support)], D[:, list(support)] = factors  # no moment off the support
    lowered = [annihilate(state, k) for k in range(basis.n_modes)]
    rho = np.array([[inner(lowered[k], lowered[l]) for l in range(3)] for k in range(3)])
    pair = np.array([[inner(state, annihilate(lowered[l], k)) for l in range(3)]
                     for k in range(3)])
    assert_allclose(A.conj().T @ A, rho, atol=1e-14)
    assert_allclose(D.T @ A, pair, atol=1e-14)
    assert np.abs(pair).max() > 0.1


def test_stress_field_rejects_bad_event_arrays():
    basis = minkowski_basis(box_side=10.0, dimension=2, mass=1.0, n_max=1)
    vac = new_vacuum(basis)
    with pytest.raises(ValueError):
        stress_field(vac, basis, basis.backend, 0.0, np.zeros((4, 3)))
    with pytest.raises(ValueError):
        stress_field(vac, basis, basis.backend, 0.0, np.zeros(2))
    with pytest.raises(ValueError):
        stress_field(vac, basis, basis.backend, np.zeros(3), np.zeros((4, 2)))
    dust = eds_basis(comoving_volume=10.0, mass=1.0)
    with pytest.raises(ValueError):
        stress_field(new_vacuum(dust), dust, dust.backend, [1.0, 0.0], np.zeros((2, 3)))


# ---- flat-space closed forms -------------------------------------------------

def test_vacuum_stress_vanishes_identically():
    basis = minkowski_basis(box_side=10.0, dimension=3, mass=1.0, n_max=1)
    vac = new_vacuum(basis)
    sample = stress_sample(vac, basis, basis.backend, Event(0.3, (1.0, 2.0, 3.0)))
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
    sample = stress_sample(one, basis, basis.backend, Event(0.7, (3.3, 8.1)))
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
    s1 = stress_sample(one, basis, basis.backend, Event(0.0, (0.0,)))
    s2 = stress_sample(one, basis, basis.backend, Event(1.3, (7.7,)))
    assert_allclose(s1, s2, atol=1e-15)


def test_two_quanta_double_the_energy_density():
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=1)
    i = basis.mode_index((1,))
    two = create(create(new_vacuum(basis), i), i).normalized()
    sample = stress_sample(two, basis, basis.backend, Event(0.0, (0.0,)))
    w = basis.frequencies([i])[0]
    assert_allclose(sample[(0, 0)], 2.0 * w / basis.backend.spatial_volume, rtol=1e-13)


def test_total_energy_closed_forms():
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=2)
    vac = new_vacuum(basis)
    assert total_energy(vac, basis) == 0.0
    i = basis.mode_index((1,))
    w = basis.frequencies([i])[0]
    assert_allclose(total_energy(create(vac, i), basis), w, rtol=1e-14)
    j = basis.mode_index((-2,))
    pair = superpose([(1.0, create(vac, i)), (1.0, create(vac, j))], normalize=True)
    assert_allclose(total_energy(pair, basis), 0.5 * (w + basis.frequencies([j])[0]), rtol=1e-14)


def test_total_energy_matches_lattice_integration():
    """Rectangle-rule integral of T_00 over the box reproduces sum_k w_k <N_k>."""
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=2)
    vac = new_vacuum(basis)
    psi = superpose(
        [(0.6, create(vac, basis.mode_index((1,)))),
         (0.8j, create(vac, basis.mode_index((-2,))))],
    )
    direct = total_energy(psi, basis)
    lattice = integrated_energy(psi, basis, basis.backend, t=0.2,
                                points_per_axis=2 * basis.n_max + 1)
    assert_allclose(lattice, direct, rtol=1e-12)


def test_interference_term_integrates_away():
    """Cross terms between distinct modes modulate T_00 in space but keep the
    box total exact."""
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=2)
    vac = new_vacuum(basis)
    psi = superpose([(1.0, create(vac, 0)), (1.0, create(vac, 1))], normalize=True)
    s_a = stress_sample(psi, basis, basis.backend, Event(0.0, (1.0,)))
    s_b = stress_sample(psi, basis, basis.backend, Event(0.0, (3.0,)))
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
        densities.append(stress_sample(one, basis, basis.backend, Event(0.0, (0.0,)))[(0, 0)])
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
    sample = stress_sample(one, basis, basis.backend, Event(t_val, (0.0, 0.0, 0.0)))
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
    sample = stress_sample(new_vacuum(basis), basis, basis.backend, Event(1.0, (0, 0, 0)))
    assert np.abs(sample).max() == 0.0


# ---- wavepackets ---------------------------------------------------------------

def test_wavepacket_is_normalized_single_particle():
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=8)
    psi = wavepacket_state(basis, (5.0,))
    assert_allclose(psi.norm(), 1.0, atol=1e-12)
    n_total = sum(
        occ.total() * abs(amp) ** 2 for occ, amp in psi.terms.items()
    )
    assert_allclose(n_total, 1.0, atol=1e-12)


def test_wavepacket_energy_density_is_localized():
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=16)
    psi = wavepacket_state(basis, (5.0,))
    at_center = stress_sample(psi, basis, basis.backend, Event(0.0, (5.0,)))[(0, 0)]
    far = stress_sample(psi, basis, basis.backend, Event(0.0, (0.0,)))[(0, 0)]
    assert at_center > 10.0 * abs(far)
    total = integrated_energy(psi, basis, basis.backend, t=0.0, points_per_axis=64)
    assert_allclose(total, total_energy(psi, basis), rtol=1e-10)


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

def test_stress_sample_rejects_mismatched_inputs():
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=1)
    other = minkowski_basis(box_side=10.0, dimension=1, mass=2.0, n_max=1)
    vac = new_vacuum(basis)
    with pytest.raises(Exception):
        stress_sample(new_vacuum(other), basis, basis.backend, Event(0.0, (0.0,)))
    with pytest.raises(Exception):
        stress_sample(vac, basis, Minkowski(dimension=2, box_side=10.0), Event(0.0, (0.0,)))
    with pytest.raises(ModeBasisError):
        rb = rindler_basis(1.0, (1.0, 2.0))
        stress_sample(vac, rb, rb.backend, Event(0.0, (0.0,)))
    with pytest.raises(Exception):
        stress_sample(vac, basis, basis.backend, Event(0.0, (0.0, 0.0)))


def test_total_energy_requires_box_basis():
    basis = eds_basis(comoving_volume=10.0, mass=1.0)
    with pytest.raises(ModeBasisError):
        total_energy(new_vacuum(basis), basis)
