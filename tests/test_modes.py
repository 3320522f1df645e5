"""Mode functions: wave-equation residuals, Klein-Gordon norms, completeness."""
import itertools

import numpy as np
import pytest
import sympy as sp
from numpy.testing import assert_allclose

from semigrav.modes import (
    ModeBasisError,
    eds_basis,
    eds_k0_mode,
    minkowski_basis,
)
from semigrav.spacetime import BackendDomainError

H = 5e-4  # FD step: truncation ~ h^2 w^4 |f| / 12, roundoff ~ eps |f| / h^2


def _box_pde_residual(basis, idx, t, x):
    """Finite-difference (d_t^2 - laplacian + m^2) f at one event."""
    d = len(x)
    f = lambda tt, xx: basis.field_coeffs(tt, xx)[idx]
    dtt = (f(t + H, x) - 2.0 * f(t, x) + f(t - H, x)) / H**2
    lap = 0.0
    for axis in range(d):
        e = np.zeros(d)
        e[axis] = H
        lap += (f(t, x + e) - 2.0 * f(t, x) + f(t, x - e)) / H**2
    return dtt - lap + basis.mass**2 * f(t, x)


@pytest.mark.parametrize("mass,dimension,n_max", [(1.0, 1, 2), (0.0, 1, 2), (1.0, 2, 1), (0.5, 3, 1)])
def test_box_modes_solve_wave_equation(mass, dimension, n_max):
    basis = minkowski_basis(box_side=10.0, dimension=dimension, mass=mass, n_max=n_max)
    rng = np.random.default_rng(3)
    for idx in range(0, basis.n_modes, max(1, basis.n_modes // 5)):
        t = rng.uniform(-1.0, 1.0)
        x = rng.uniform(0.0, 10.0, size=dimension)
        w = basis.frequencies([idx])[0]
        scale = (1.0 + w**2) * abs(basis.field_coeffs(t, x)[idx])
        assert abs(_box_pde_residual(basis, idx, t, x)) < 1e-6 * scale


def test_box_mode_derivative_coefficients_match_finite_differences():
    basis = minkowski_basis(box_side=10.0, dimension=2, mass=1.0, n_max=1)
    t, x = 0.4, np.array([1.3, 7.2])
    h = 1e-5
    f = basis.field_coeffs(t, x)
    dt_fd = (basis.field_coeffs(t + h, x) - basis.field_coeffs(t - h, x)) / (2 * h)
    assert_allclose(basis.dt_coeffs(t, x), dt_fd, rtol=1e-8, atol=1e-14)
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        dx_fd = (basis.field_coeffs(t, x + e) - basis.field_coeffs(t, x - e)) / (2 * h)
        assert_allclose(basis.dx_coeffs(t, x)[:, axis], dx_fd, rtol=1e-8, atol=1e-14)
    assert f.shape == (basis.n_modes,)


def test_box_mode_klein_gordon_norms_on_lattice():
    """(f_j, f_k) = i sum [conj(f_j) dt f_k - conj(dt f_j) f_k] dx = delta_jk.

    The rectangle rule with 2 n_max + 1 points per axis is exact for these
    trigonometric integrands.
    """
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=2)
    n_pts = 2 * basis.n_max + 1
    xs = np.linspace(0.0, 10.0, n_pts, endpoint=False)
    dx = 10.0 / n_pts
    gram = np.zeros((basis.n_modes, basis.n_modes), dtype=complex)
    for x in xs:
        f = basis.field_coeffs(0.3, [x])
        df = basis.dt_coeffs(0.3, [x])
        gram += 1j * (np.conj(f)[:, None] * df[None, :] - np.conj(df)[:, None] * f[None, :]) * dx
    assert_allclose(gram, np.eye(basis.n_modes), atol=1e-13)


def test_massless_basis_excludes_zero_mode():
    massless = minkowski_basis(box_side=10.0, dimension=2, mass=0.0, n_max=1)
    massive = minkowski_basis(box_side=10.0, dimension=2, mass=1.0, n_max=1)
    assert massive.n_modes == 9
    assert massless.n_modes == 8
    assert massive.mode_index((0, 0)) >= 0
    with pytest.raises(ModeBasisError):
        massless.mode_index((0, 0))
    with pytest.raises(ModeBasisError):
        minkowski_basis(box_side=10.0, dimension=1, mass=0.0, n_max=0)
    for mass in [-1.0, np.nan, np.inf]:
        with pytest.raises(ModeBasisError):
            minkowski_basis(box_side=10.0, dimension=1, mass=mass, n_max=1)


def _enumerated_labels(dimension, mass, n_max):
    """Every integer vector with |n_i| <= n_max, sorted; without the zero mode if massless."""
    return sorted(n for n in itertools.product(range(-n_max, n_max + 1), repeat=dimension)
                  if mass != 0.0 or any(n))


@pytest.mark.parametrize("n_max", [0, 1, 2, 3])
@pytest.mark.parametrize("mass", [0.0, 0.7])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_box_basis_indexes_the_sorted_label_enumeration(dimension, mass, n_max):
    """Index arithmetic against the enumerated, sorted label list it replaces."""
    labels = _enumerated_labels(dimension, mass, n_max)
    if not labels:  # massless with n_max = 0
        with pytest.raises(ModeBasisError):
            minkowski_basis(box_side=5.0, dimension=dimension, mass=mass, n_max=n_max)
        return
    basis = minkowski_basis(box_side=5.0, dimension=dimension, mass=mass, n_max=n_max)
    assert basis.n_modes == len(labels)
    assert [basis.mode_index(n) for n in labels] == list(range(len(labels)))
    k = 2.0 * np.pi * np.asarray(labels, dtype=float) / 5.0
    assert np.array_equal(np.rint(basis.wavevectors() * 5.0 / (2.0 * np.pi)), labels)
    assert np.array_equal(basis.wavevectors(), k)
    assert np.array_equal(basis.frequencies(), np.sqrt(np.sum(k**2, axis=1) + mass**2))
    picked = list(range(len(labels) - 1, -1, -3))  # any indices, in any order
    assert np.array_equal(basis.wavevectors(picked), k[picked])
    assert np.array_equal(basis.frequencies(picked), basis.frequencies()[picked])
    zero = (0,) * dimension
    outside = [zero[:-1] + (c,) for c in (n_max + 1, -n_max - 1)] + [zero + (0,)]
    if dimension > 1:
        outside.append(zero[1:])
    if mass == 0.0:
        outside.append(zero)
    for label in outside:
        with pytest.raises(ModeBasisError):
            basis.mode_index(label)


@pytest.mark.parametrize("mass", [0.0, 1.0])
def test_box_basis_indexes_past_int64(mass):
    """A huge 1-D box keeps exact Python-int indices: mode n sits at n + n_max (- 1)."""
    n = 10**30
    basis = minkowski_basis(box_side=1e31, dimension=1, mass=mass, n_max=n)
    assert basis.n_modes == 2 * n + 1 - (mass == 0.0)
    i = basis.mode_index((n,))
    assert i == 2 * n - (mass == 0.0)
    assert basis.mode_index((-n,)) == 0
    assert_allclose(basis.wavevectors([i, 0]), [[2.0 * np.pi * 0.1], [-2.0 * np.pi * 0.1]],
                    rtol=1e-15)


def test_wavevectors_match_labels():
    basis = minkowski_basis(box_side=5.0, dimension=2, mass=1.0, n_max=2)
    i = basis.mode_index((2, -1))
    assert_allclose(basis.wavevectors([i])[0], 2.0 * np.pi * np.array([2.0, -1.0]) / 5.0)
    assert_allclose(
        basis.frequencies([i])[0],
        np.sqrt(1.0 + (2 * np.pi / 5.0) ** 2 * 5.0),
    )


def test_field_completeness_on_dual_lattice():
    """Equal-time commutator: sum_k 2 Im[f_k(x) conj(dt f_k(x'))] is the
    lattice delta (2 n_max + 1)/L at coincidence, 0 on distinct lattice sites."""
    L, n_max = 10.0, 3
    basis = minkowski_basis(box_side=L, dimension=1, mass=1.0, n_max=n_max)
    n_pts = 2 * n_max + 1
    x0 = 1.234
    for j in range(n_pts):
        xp = x0 + j * L / n_pts
        f = basis.field_coeffs(0.0, [x0])
        df = basis.dt_coeffs(0.0, [xp])
        s = float(np.sum(2.0 * np.imag(f * np.conj(df))))
        expected = n_pts / L if j == 0 else 0.0
        assert_allclose(s, expected, atol=1e-13)


def _direct_field_coeffs(basis, t, x, modes=slice(None)):
    """f_k by one exp per mode and event: the expression the t = 0 pairing replaced."""
    t = np.asarray(t, dtype=float)[..., None]
    x = np.atleast_1d(np.asarray(x, dtype=float))
    k, w = basis.wavevectors(modes), basis.frequencies(modes)
    f = 1j * (np.einsum("...d,kd->...k", x, k) - w * t)
    np.exp(f, out=f)
    f /= np.sqrt(2.0 * w * basis.backend.spatial_volume)
    return f


def _pairing_supports(basis, rng):
    n = basis.n_modes
    lower = list(range(n // 2))
    return {
        "full": slice(None),
        "symmetric": tuple(sorted({*lower[::3], *(n - 1 - i for i in lower[::3])})),
        "asymmetric": tuple(sorted(rng.choice(n, size=max(2, n // 3), replace=False).tolist())),
        "one-side": tuple(lower[1::2]),  # no mode with its mirror
        "unsorted": (n - 1, 0, n // 2, 1, n - 2),
        "all-but-one": tuple(m for m in range(n) if m != 1),  # slice and array indices mixed
    }


@pytest.mark.parametrize("mass", [1.0, 0.0])
@pytest.mark.parametrize("dimension, n_max", [(1, 6), (2, 3), (3, 2)])
def test_equal_time_pairing_matches_the_direct_expression_bit_for_bit(dimension, n_max, mass):
    basis = minkowski_basis(box_side=7.3, dimension=dimension, mass=mass, n_max=n_max)
    rng = np.random.default_rng(dimension + 10 * n_max)
    x = rng.uniform(-8.0, 8.0, size=(40, dimension))
    x[:4] = 0.0
    x[4:8] = -0.0
    x[8:16] = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(8, dimension))
    for name, modes in _pairing_supports(basis, rng).items():
        for t0 in (0.0, -0.0):
            for t, xs in [(t0, x), (np.full(len(x), t0), x), (t0, x[5]), (np.full(1, t0), x[:1])]:
                got = basis.field_coeffs(t, xs, modes)
                want = _direct_field_coeffs(basis, t, xs, modes)
                assert got.shape == want.shape, name
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), name


def test_only_a_mirror_symmetric_support_pairs_as_three_slices():
    basis = minkowski_basis(box_side=7.3, dimension=2, mass=0.0, n_max=3)
    supports = _pairing_supports(basis, np.random.default_rng(0))
    for name in ("full", "symmetric"):
        n = len(basis.wavevectors(supports[name]))
        lead, partner, mirror = basis._modes(supports[name])[-1]
        assert (lead, partner, mirror) == (slice(0, (n + 1) // 2), slice(n // 2 - 1, None, -1),
                                           slice((n + 1) // 2, n)), name
    for name in ("asymmetric", "one-side", "unsorted", "all-but-one"):
        modes = supports[name]
        assert modes != tuple(basis.n_modes - 1 - m for m in reversed(modes)), name
        assert basis._modes(modes)[-1] is None, name
    # one mode is its own mirror only at k = 0, and pairs with nothing
    massive = minkowski_basis(box_side=7.3, dimension=2, mass=1.0, n_max=3)
    assert massive._modes((massive.n_modes // 2,))[-1] is None


def test_one_nonzero_time_takes_the_direct_path():
    basis = minkowski_basis(box_side=7.3, dimension=2, mass=1.0, n_max=3)
    *_, (lead, partner, mirror) = basis._modes(slice(None))
    n_lead = len(np.arange(basis.n_modes)[lead])
    assert n_lead == (basis.n_modes + 1) // 2  # one exp per pair, the k = 0 mode alone
    x = np.random.default_rng(3).uniform(0.0, 7.3, size=(9, 2))
    t = np.zeros(9)
    t[6] = 0.7
    got = basis.field_coeffs(t, x)
    assert np.array_equal(got.view(np.int64), _direct_field_coeffs(basis, t, x).view(np.int64))
    # at t != 0 a mirror is no conjugate, so a paired block would have been wrong
    assert not np.allclose(got[6, mirror], got[6, lead][partner].conj())
    assert np.array_equal(got[5, mirror], got[5, lead][partner].conj())


# ---- dust-cosmology zero mode ----------------------------------------------

def test_eds_mode_solves_curved_wave_equation_symbolically():
    t, m, V0 = sp.symbols("t m V0", positive=True)
    f = sp.exp(-sp.I * m * t) / (t * sp.sqrt(2 * m * V0))
    residual = sp.diff(f, t, 2) + (2 / t) * sp.diff(f, t) + m**2 * f
    assert sp.simplify(residual) == 0


def test_eds_mode_values_and_finite_difference_residual():
    mass, v0 = 2.0, 30.0
    for t in (0.5, 1.0, 2.0, 4.0):
        f = lambda s: eds_k0_mode(s, mass, v0)
        dtt = (f(t + H) - 2.0 * f(t) + f(t - H)) / H**2
        dt1 = (f(t + H) - f(t - H)) / (2.0 * H)
        resid = dtt + (2.0 / t) * dt1 + mass**2 * f(t)
        assert abs(resid) < 1e-6 * (1.0 + mass**2) * abs(f(t))


def test_eds_mode_klein_gordon_norm_is_time_independent():
    basis = eds_basis(comoving_volume=30.0, mass=2.0)
    for t in (0.5, 1.0, 3.0):
        f = basis.field_coeffs(t, (0.0, 0.0, 0.0))[0]
        df = basis.dt_coeffs(t, (0.0, 0.0, 0.0))[0]
        measure = 30.0 * t**2  # proper volume of the comoving box
        norm = 1j * (np.conj(f) * df - np.conj(df) * f) * measure
        assert_allclose(norm, 1.0, rtol=1e-13)


def test_eds_mode_domain_checks():
    with pytest.raises(BackendDomainError):
        eds_k0_mode(0.0, 1.0, 1.0)
    with pytest.raises(ModeBasisError):
        eds_k0_mode(1.0, 0.0, 1.0)
    for mass in [-1.0, np.nan, np.inf]:
        with pytest.raises(ModeBasisError):
            eds_basis(comoving_volume=1.0, mass=mass)
    basis = eds_basis(comoving_volume=1.0, mass=1.0)
    with pytest.raises(BackendDomainError):  # before -1/t divides by zero
        basis.slot_factors(np.array([1.0, 0.0]))
    with pytest.raises(BackendDomainError):
        basis.dt_coeffs(0.0, (0, 0, 0))
    assert basis.n_modes == 1
    assert basis.dx_coeffs(1.0, (0, 0, 0)).shape == (1, 3)
    assert np.all(basis.dx_coeffs(1.0, (0, 0, 0)) == 0.0)
