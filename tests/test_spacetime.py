"""Backgrounds: metrics, Einstein tensors (as their diagonals), light cones."""
import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from semigrav.spacetime import (
    BackendDomainError,
    EinsteinDeSitter,
    Minkowski,
    einstein_tensor,
    metric,
    outside_future_cone,
)


def test_minkowski_metric_is_constant_diag():
    bk = Minkowski(dimension=3, box_side=10.0)
    g = metric(bk, 0.7, (1.0, 2.0, 3.0))
    assert_allclose(g, [1.0, -1.0, -1.0, -1.0])


def test_eds_metric_scale_factor():
    bk = EinsteinDeSitter(comoving_volume=100.0)
    t = 2.0
    g = metric(bk, t, (0.0, 0.0, 0.0))
    assert_allclose(g, [1.0, -t ** (4.0 / 3.0)] + [-t ** (4.0 / 3.0)] * 2)


def _fd_g00_oracle(t: float, h: float = 1e-5) -> float:
    """Friedmann first equation 3 (a'/a)^2 via centered finite differences."""
    a = lambda s: s ** (2.0 / 3.0)
    da = (a(t + h) - a(t - h)) / (2.0 * h)
    return 3.0 * (da / a(t)) ** 2


def _fd_gii_oracle(t: float, h: float = 2e-4) -> float:
    """Spatial Einstein component -(2 a a'' + a'^2) for the flat FRW metric."""
    a = lambda s: s ** (2.0 / 3.0)
    da = (a(t + h) - a(t - h)) / (2.0 * h)
    dda = (a(t + h) - 2.0 * a(t) + a(t - h)) / h**2
    return -(2.0 * a(t) * dda + da**2)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 4.0])
def test_eds_einstein_tensor_matches_finite_difference_friedmann(t):
    bk = EinsteinDeSitter(comoving_volume=50.0)
    g = einstein_tensor(bk, t, (0.0, 0.0, 0.0))
    assert_allclose(g[0], 4.0 / (3.0 * t**2), rtol=1e-14)
    assert_allclose(g[0], _fd_g00_oracle(t), rtol=1e-8)
    # dust: spatial components vanish identically
    assert abs(_fd_gii_oracle(t)) < 2e-7
    assert_allclose(g[1:], np.zeros(3), atol=0.0)


def test_flat_backgrounds_have_zero_einstein_tensor():
    assert not einstein_tensor(Minkowski(), 0.1, (1.0, 1.0, 1.0)).any()


def test_metric_and_curvature_broadcast_over_event_arrays():
    """One call over E events equals E one-event calls, row for row."""
    rng = np.random.default_rng(3)
    t = rng.uniform(0.5, 4.0, size=7)
    x = rng.uniform(0.0, 1.0, size=(7, 3))
    for bk in (Minkowski(), EinsteinDeSitter(comoving_volume=50.0)):
        for fn in (metric, einstein_tensor):
            many = fn(bk, t, x)
            assert many.shape == (7, 4)
            for e in range(7):
                assert np.array_equal(many[e], fn(bk, t[e], x[e]))


def test_eds_domain_requires_positive_time():
    bk = EinsteinDeSitter(comoving_volume=1.0)
    with pytest.raises(BackendDomainError):
        metric(bk, 0.0, (0.0, 0.0, 0.0))
    with pytest.raises(BackendDomainError):
        einstein_tensor(bk, [1.0, -1.0], np.zeros((2, 3)))


def test_event_dimension_must_match_backend():
    with pytest.raises(BackendDomainError):
        metric(Minkowski(dimension=3), 0.0, (1.0,))


def test_invalid_backend_parameters_rejected():
    with pytest.raises(BackendDomainError):
        Minkowski(dimension=0)
    with pytest.raises(BackendDomainError):
        Minkowski(box_side=-1.0)
    with pytest.raises(BackendDomainError):
        EinsteinDeSitter(comoving_volume=0.0)
    # an infinite box normalizes every mode to zero: a one-quantum state
    # would have exactly zero stress rather than an error
    with pytest.raises(BackendDomainError, match="box_side must be positive and finite"):
        Minkowski(box_side=float("inf"))
    with pytest.raises(BackendDomainError, match="comoving_volume must be positive and finite"):
        EinsteinDeSitter(comoving_volume=float("inf"))
    with pytest.raises(BackendDomainError):
        Minkowski(box_side=float("nan"))
    with pytest.raises(BackendDomainError):
        EinsteinDeSitter(comoving_volume=float("nan"))


# ---- light cone ------------------------------------------------------------

def test_cone_examples():
    t = [-0.1, 1.0, 1.0, 1.0, 0.0]
    x = [[0.0], [1.5], [0.5], [1.0], [0.0]]
    # earlier, spacelike, timelike, null boundary, the event itself
    assert outside_future_cone(0.0, (0.0,), t, x).tolist() == [True, True, False, False, False]
    # scalar probes broadcast like ``metric``: a 0-d answer
    assert outside_future_cone(0.0, (0.0,), -0.1, (0.0,)).shape == ()
    with pytest.raises(ValueError):
        outside_future_cone(0.0, (0.0,), [1.0], [[0.0, 0.0]])


# an origin (t0, x0) that cannot sit among 1-D probes at t (2,), x (2, 1)
BAD_ORIGINS = [
    ((0.0, 0.0), (0.0,), "origin time t0 must be a scalar, not shape (2,)"),
    (0.0, (0.0, 0.0), "origin point x0 has shape (2,), probes x have (2, 1)"),
    (0.0, [[0.0]], "origin point x0 has shape (1, 1), probes x have (2, 1)"),
]


@pytest.mark.parametrize("t0, x0, message", BAD_ORIGINS)
def test_cone_rejects_a_malformed_origin(t0, x0, message):
    with pytest.raises(ValueError) as exc:
        outside_future_cone(t0, x0, [0.0, 1.0], [[0.0], [4.0]])
    assert str(exc.value) == message


def test_cone_euclidean_distance_3d():
    # |dx| = 1.73 at both probes
    got = outside_future_cone(0.0, (0.0, 0.0, 0.0), [2.0, 1.0], [[1.0, 1.0, 1.0]] * 2)
    assert got.tolist() == [False, True]


# dyadic coordinates keep every sum/difference exact in binary floating point
coords = st.integers(min_value=-400, max_value=400).map(lambda n: n / 8.0)
delays = st.integers(min_value=0, max_value=200).map(lambda n: n / 8.0)


@given(t0=coords, x0=coords, t1=coords, x1=coords, dt=delays,
       shift_t=coords, shift_x=coords)
def test_cone_translation_invariance_and_monotonicity(t0, x0, t1, x1, dt, shift_t, shift_x):
    outside = outside_future_cone(t0, (x0,), t1, (x1,))
    shifted = outside_future_cone(t0 + shift_t, (x0 + shift_x,), t1 + shift_t, (x1 + shift_x,))
    assert outside == shifted
    # once inside the future cone, later probes at the same point stay inside
    if not outside and t1 >= t0:
        assert not outside_future_cone(t0, (x0,), t1 + dt, (x1,))
