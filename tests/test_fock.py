"""Sparse Fock layer: ladder algebra against a dense matrix oracle."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from semigrav.fock import (
    DROP_TOL,
    BasisMismatchError,
    FockState,
    ZeroNormError,
    _find,
    annihilate,
    bump,
    create,
    inner,
    new_vacuum,
    number_expectation,
    superpose,
)
from semigrav.modes import minkowski_basis

from oracles import DenseFock, random_state

BASIS = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=1)  # 3 modes


# ---- dense oracle ----------------------------------------------------------

def test_ladder_matches_dense_oracle():
    rng = np.random.default_rng(11)
    dense = DenseFock(BASIS.n_modes, cap=4)
    for _ in range(12):
        psi = random_state(BASIS, rng, n_terms=4, max_quanta=2, per_mode=True)
        v = dense.vector(psi)
        for mode in range(BASIS.n_modes):
            a = dense.lowering(mode)
            assert_allclose(dense.vector(annihilate(psi, mode)), a @ v, atol=1e-12)
            assert_allclose(dense.vector(create(psi, mode)), a.T @ v, atol=1e-12)


def test_inner_matches_dense_oracle():
    rng = np.random.default_rng(7)
    dense = DenseFock(BASIS.n_modes, cap=2)
    for _ in range(10):
        a = random_state(BASIS, rng, n_terms=4, max_quanta=2, per_mode=True)
        b = random_state(BASIS, rng, n_terms=4, max_quanta=2, per_mode=True)
        assert_allclose(inner(a, b), np.vdot(dense.vector(a), dense.vector(b)), atol=1e-12)


# ---- closed-form spot checks ----------------------------------------------

def test_create_annihilate_coefficients():
    vac = new_vacuum(BASIS)
    one = create(vac, 0)
    two = create(one, 0)
    assert_allclose(two.terms.get(((0, 2),), 0j), np.sqrt(2.0))
    down = annihilate(two, 0)
    assert_allclose(down.terms.get(((0, 1),), 0j), 2.0)  # sqrt(2)*sqrt(2)
    assert not annihilate(vac, 0).terms


def test_vacuum_is_normalized_and_empty():
    vac = new_vacuum(BASIS)
    assert vac.norm() == 1.0
    assert number_expectation(vac, 0) == 0.0
    assert inner(vac, vac) == 1.0


def test_inner_is_antilinear_in_first_argument():
    vac = new_vacuum(BASIS)
    one = create(vac, 1)
    a = superpose([(1j, vac), (2.0, one)])
    assert_allclose(inner(a, vac), -1j)            # conjugated coefficient
    assert_allclose(inner(vac, a), 1j)


def test_number_expectation_requires_normalization():
    vac = new_vacuum(BASIS)
    big = superpose([(2.0, vac)])
    with pytest.raises(ValueError, match="norm="):
        number_expectation(big, 0)


def test_a_non_finite_norm_fails_the_checks():
    for amp, shown in ((complex("nan+nanj"), "nan"), (complex("inf"), "inf")):
        psi = FockState(BASIS, {((0, 1),): amp})
        with pytest.raises(ValueError, match=rf"\(norm={shown}\)$"):
            psi.require_unit_norm()
        message = rf"^cannot normalize a state of non-finite norm \({shown}\)$"
        with pytest.raises(ValueError, match=message):
            psi.normalized()


@pytest.mark.parametrize("terms, norm", [
    ({((0, 1),): 1.4e154}, 1.4e154),  # |a|^2 overflows a Python float
    ({((m, 1),): 1e154 for m in range(3)}, 3**0.5 * 1e154),  # sum |a|^2 reads inf
    ({((m, 1),): 1.5e308 for m in range(2)}, float("inf")),  # the norm itself is beyond range
], ids=["one-amplitude-1.4e154", "three-amplitudes-1e154", "two-amplitudes-1.5e308"])
def test_a_norm_past_the_squared_range_is_summed_relative_to_the_largest(terms, norm):
    psi = FockState(BASIS, terms)
    assert psi.norm() == pytest.approx(norm, rel=1e-15)
    if norm == float("inf"):
        with pytest.raises(ValueError, match=r"non-finite norm \(inf\)$"):
            psi.normalized()
        return
    unit = psi.normalized()
    unit.require_unit_norm()
    assert unit.terms == {occ: amp / psi.norm() for occ, amp in psi.terms.items()}


def test_an_amplitude_past_the_float_range_names_its_occupation():
    """Finite parts whose modulus overflows raise a ValueError, not a bare OverflowError."""
    message = r"^amplitude of occupation \(\(0, 1\),\) has a modulus beyond the float range$"
    for amp in (complex(1.5e308, 1.5e308), complex(-1e308, 1.7e308)):
        with pytest.raises(ValueError, match=message):
            FockState(BASIS, {((0, 1),): amp})
    edge = complex(1e308, 1e308)  # a modulus of 1.4e308 is still a float
    assert FockState(BASIS, {((0, 1),): edge}).norm() == abs(edge)


def test_tiny_amplitudes_are_dropped():
    vac = new_vacuum(BASIS)
    st_small = superpose([(1.0, vac), (DROP_TOL / 10.0, create(vac, 0))])
    assert len(st_small.terms) == 1


def test_zero_norm_rejected():
    vac = new_vacuum(BASIS)
    with pytest.raises(ZeroNormError):
        superpose([(1.0, vac), (-1.0, vac)], normalize=True)


def test_tiny_coefficients_normalize():
    vac = new_vacuum(BASIS)
    a, b = create(vac, 0), create(vac, 1)
    psi = superpose([(1e-16, a), (1e-16, b)], normalize=True)
    assert len(psi.terms) == 2
    assert_allclose(list(psi.terms.values()), [2.0 ** -0.5] * 2, rtol=1e-15)


def test_basis_mismatch_detected():
    other = minkowski_basis(box_side=10.0, dimension=1, mass=2.0, n_max=1)
    with pytest.raises(BasisMismatchError):
        inner(new_vacuum(BASIS), new_vacuum(other))
    with pytest.raises(BasisMismatchError):
        superpose([(1.0, new_vacuum(BASIS)), (1.0, new_vacuum(other))])
    with pytest.raises(BasisMismatchError):
        create(new_vacuum(BASIS), BASIS.n_modes)
    with pytest.raises(BasisMismatchError, match="mode index -1 outside basis with 3 modes"):
        FockState(BASIS, {((-1, 1),): 1.0})
    with pytest.raises(BasisMismatchError, match="mode index 3 outside basis"):
        FockState(BASIS, {((0, 1), (3, 1)): 1.0})
    # keys must list strictly increasing modes with counts >= 1: an unsorted key
    # would slip past a range check of its first and last modes
    for occ in (((5, 1), (0, 1)), ((2, 1), (1, 1)), ((0, -2),), ((1, 0),), ((1, 1), (1, 1))):
        with pytest.raises(ValueError, match="strictly increasing modes and counts >= 1"):
            FockState(BASIS, {occ: 1.0})


# ---- algebraic properties --------------------------------------------------

def _occupations(n_modes):
    """Sorted (mode, count) pair tuples over modes [0, n_modes), counts 1..3."""
    return st.dictionaries(st.integers(0, n_modes - 1), st.integers(0, 3), max_size=n_modes).map(
        lambda counts: tuple(sorted((m, c) for m, c in counts.items() if c)))


occupations = _occupations(BASIS.n_modes)
amplitudes = st.tuples(
    st.integers(min_value=-8, max_value=8), st.integers(min_value=-8, max_value=8)
).map(lambda p: complex(p[0], p[1]))


@st.composite
def fock_states(draw, min_terms=1, max_terms=3):
    n = draw(st.integers(min_terms, max_terms))
    terms = {}
    for _ in range(n):
        occ = draw(occupations)
        terms[occ] = terms.get(occ, 0.0) + draw(amplitudes)
    return FockState(BASIS, terms)


@settings(max_examples=120, deadline=None)
@given(psi=fock_states(), mode=st.integers(0, BASIS.n_modes - 1))
def test_commutator_is_identity(psi, mode):
    lhs = superpose([
        (1.0, annihilate(create(psi, mode), mode)),
        (-1.0, create(annihilate(psi, mode), mode)),
    ])
    diff = superpose([(1.0, lhs), (-1.0, psi)])
    assert diff.norm() < 1e-12 * max(1.0, psi.norm())


@settings(max_examples=80, deadline=None)
@given(u=fock_states(), v=fock_states(), w=fock_states(), a=amplitudes, b=amplitudes)
def test_superpose_linearity_under_inner_product(u, v, w, a, b):
    combo = superpose([(a, u), (b, v)])
    lhs = inner(w, combo)
    rhs = a * inner(w, u) + b * inner(w, v)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


@settings(max_examples=80, deadline=None)
@given(psi=fock_states(), mode=st.integers(0, BASIS.n_modes - 1))
def test_number_expectation_equals_lowered_norm(psi, mode):
    if psi.norm() < 1e-6:
        return
    unit = psi.normalized()
    direct = number_expectation(unit, mode)
    lowered = annihilate(unit, mode)
    assert_allclose(direct, lowered.norm() ** 2, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(psi=fock_states(), mode=st.integers(0, BASIS.n_modes - 1))
def test_create_raises_norm_consistently(psi, mode):
    # <psi| a a^dag |psi> = <psi|(N+1)|psi>
    if psi.norm() < 1e-6:
        return
    unit = psi.normalized()
    raised = create(unit, mode)
    expected = number_expectation(unit, mode) + 1.0
    assert_allclose(raised.norm() ** 2, expected, rtol=1e-12)


@settings(max_examples=100, deadline=None)
@given(u=fock_states(), v=fock_states(), a=amplitudes, b=amplitudes,
       exponent=st.integers(-99, 99), factor=st.floats(1e-30, 1e30))
def test_normalized_superpose_is_scale_invariant(u, v, a, b, exponent, factor):
    try:
        ref = superpose([(a, u), (b, v)], normalize=True)
    except ZeroNormError:
        return
    # a power-of-two scale is exact, so the result is bit-identical
    two = 2.0 ** exponent
    assert superpose([(a * two, u), (b * two, v)], normalize=True).terms == ref.terms
    # any other scale rounds the coefficients once
    scaled = superpose([(a * factor, u), (b * factor, v)], normalize=True)
    for occ in ref.terms.keys() | scaled.terms.keys():
        assert abs(scaled.terms.get(occ, 0j) - ref.terms.get(occ, 0j)) <= 1e-13


_parts = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1.5e-15, -3e-15, 1e-300])
_wide_amplitudes = st.builds(complex, _parts, _parts)


def _bits(state):
    return [(occ, amp.real.hex(), amp.imag.hex()) for occ, amp in state.terms.items()]


@settings(max_examples=200, deadline=None)
@given(terms=st.dictionaries(occupations, _wide_amplitudes, min_size=1, max_size=12))
@example(terms={(): 1e3 + 0j, ((0, 1),): 2e-15j, ((1, 2),): -0.0 + 5.0j})
def test_normalized_equals_the_rebuilt_state(terms):
    """Rescaling keeps exactly what ``FockState(basis, {o: a / n})`` keeps: the same
    keys in the same order, the same bits, amplitudes at or under DROP_TOL dropped."""
    psi = FockState(BASIS, terms)
    n = psi.norm()
    if n <= 1e-12:
        with pytest.raises(ZeroNormError):
            psi.normalized()
        return
    got = psi.normalized()
    want = FockState(BASIS, {o: a / n for o, a in psi.terms.items()})
    assert type(got) is FockState and got.basis is psi.basis
    assert _bits(got) == _bits(want)


def _dict_and_sort_bump(occ, mode, delta):
    """The rule ``bump`` replaces: shift the count in a dict, drop zeros, sort."""
    counts = dict(occ)
    counts[mode] = counts.get(mode, 0) + delta
    if counts[mode] < 0:
        raise ValueError("occupation cannot go negative")
    return tuple(sorted((m, c) for m, c in counts.items() if c))


@settings(max_examples=300, deadline=None)
@given(occ=_occupations(6), mode=st.integers(0, 5), delta=st.integers(-3, 3))
def test_bump_matches_dict_and_sort(occ, mode, delta):
    # the lookup that bump, the ladder operators and number_expectation share
    i, count = _find(occ, mode)
    assert count == dict(occ).get(mode, 0)
    assert occ[:i] == tuple(p for p in occ if p[0] < mode)
    try:
        want = _dict_and_sort_bump(occ, mode, delta)
    except ValueError:
        with pytest.raises(ValueError, match="cannot go negative"):
            bump(occ, mode, delta)
        return
    assert bump(occ, mode, delta) == want
