"""Born projection, light-cone gating, and the two collapse scenarios."""
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from semigrav import measurement
from semigrav.fock import FockState, create, new_vacuum, number_expectation, superpose
from semigrav.measurement import (
    BranchSet,
    CausalityReport,
    ZeroOverlapError,
    born_probabilities,
    causality_check,
    run_trials,
)
from semigrav.modes import minkowski_basis
from semigrav.scenarios import (_SCENARIOS, ScenarioConfigError, _linspace, _spheres,
                                default_config, run_scenario, validate_config)
from semigrav.spacetime import outside_future_cone

from oracles import project, reference_picks, sample_index, searchsorted_counts, trial_rng

BASIS = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=1)
VAC = new_vacuum(BASIS)


def _two_branches():
    a = create(VAC, 0).normalized()
    b = create(VAC, 1).normalized()
    return BranchSet({"a": a, "b": b}), a, b


# ---- Born arithmetic ---------------------------------------------------------

@pytest.mark.parametrize("amps,expected", [
    ((1.0, 1.0), (0.5, 0.5)),
    ((0.6, 0.8), (0.36, 0.64)),
    ((1.0, 0.0), (1.0, 0.0)),
    ((0.6j, -0.8), (0.36, 0.64)),  # phases drop out
])
def test_born_probabilities_from_amplitudes(amps, expected):
    branches, a, b = _two_branches()
    psi = superpose([(amps[0], a), (amps[1], b)], normalize=True)
    assert_allclose(born_probabilities(psi, branches), expected, atol=1e-14)


def test_born_requires_normalized_state():
    branches, a, _ = _two_branches()
    with pytest.raises(ValueError, match="norm="):
        born_probabilities(superpose([(2.0, a)]), branches)
    nan = FockState(a.basis, {occ: complex("nan+nanj") for occ in a.terms})
    with pytest.raises(ValueError, match=r"\(norm=nan\)$"):
        born_probabilities(nan, branches)


def test_zero_overlap_raises():
    branches, _, _ = _two_branches()
    orthogonal = create(VAC, 2).normalized()
    with pytest.raises(ZeroOverlapError):
        born_probabilities(orthogonal, branches)


def test_branch_set_validation():
    a = create(VAC, 0).normalized()
    overlapping = superpose([(0.9, a), (0.1, create(VAC, 1))], normalize=True)
    with pytest.raises(ValueError):
        BranchSet({})
    with pytest.raises(ValueError, match="branch 'big' .*norm=2"):
        BranchSet({"big": superpose([(2.0, a)])})
    with pytest.raises(ValueError):
        BranchSet({"a": a, "b": overlapping})


# ---- projection ----------------------------------------------------------------

def test_project_returns_branch_state_exactly():
    branches, a, b = _two_branches()
    psi = superpose([(1.0, a), (0.0001, b)], normalize=True)
    idx, post = project(psi, branches, rng_seed=0)
    assert post is branches.states[idx]


def test_project_is_deterministic_per_seed():
    branches, a, b = _two_branches()
    psi = superpose([(1.0, a), (1.0, b)], normalize=True)
    for trial in range(20):
        i1, _ = project(psi, branches, trial_rng(99, trial))
        i2, _ = project(psi, branches, trial_rng(99, trial))
        assert i1 == i2
    picks_a = [project(psi, branches, trial_rng(99, t))[0] for t in range(64)]
    picks_b = [project(psi, branches, trial_rng(100, t))[0] for t in range(64)]
    assert picks_a != picks_b  # different master seeds decorrelate


def test_degenerate_probabilities_never_pick_zero_branch():
    branches, a, b = _two_branches()
    psi_a = superpose([(1.0, a)])
    for trial in range(50):
        idx, _ = project(psi_a, branches, trial_rng(1, trial))
        assert idx == 0


def test_project_matches_uncached_born_sampling():
    # states alternate every other trial; every draw must equal the
    # reference path that samples fresh Born weights
    branches, a, b = _two_branches()
    states = [superpose([(amps[0], a), (amps[1], b)], normalize=True)
              for amps in ((1.0, 1.0), (0.6, 0.8), (0.0, 1.0))]
    n = 12_000
    for trial in range(n):
        psi = states[(trial // 2) % len(states)]
        idx, post = project(psi, branches, trial_rng(31, trial))
        ref = sample_index(born_probabilities(psi, branches), trial_rng(31, trial))
        assert idx == ref
        assert post is branches.states[ref]
    # an unnormalized state is rejected
    with pytest.raises(ValueError, match="norm="):
        project(superpose([(2.0, a)]), branches, trial_rng(31, n))


# ---- batched trials against the single-trial oracle ----------------------------

BLOCK = measurement._TRIAL_BLOCK


@pytest.mark.parametrize("seed", [0, 1, 2026, 2**64 + 5, 2**128 - 1])
def test_trial_rng_replays_the_block_stream(seed):
    # every residue mod 4 (a Philox counter step is four draws), both sides
    # of 4096 and of the first two block boundaries, and the last index drawn
    n = 3 * BLOCK + 5
    stream = trial_rng(seed, 0).random(n)
    for i in [*range(12), 4095, 4096, 4097, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1,
              2 * BLOCK, n - 1]:
        assert trial_rng(seed, i).random() == stream[i]
    with pytest.raises(ValueError):
        trial_rng(seed, -1)


# both sides of 4096 and of the block boundary
TRIAL_COUNTS = (1, 4095, 4096, 4097, 10_000, BLOCK - 1, BLOCK, BLOCK + 1)


@pytest.mark.parametrize("amps", [(0.6, 0.8), (1.0, 0.0)])
def test_run_trials_matches_project_loop(amps):
    branches, a, b = _two_branches()
    psi = superpose([(amps[0], a), (amps[1], b)], normalize=True)
    born = born_probabilities(psi, branches)
    # the last two seeds need a key above 64 bits, and the largest key a config takes
    for seed in (3, 2026, 2**64 + 5, 2**128 - 1):
        picks = reference_picks(psi, branches, seed, max(TRIAL_COUNTS))
        for n in TRIAL_COUNTS:
            batch = run_trials(psi, branches, seed, n)
            assert batch.n_trials == n
            assert batch.counts == (picks[:n].count(0), picks[:n].count(1))
            assert np.array_equal(batch.born, born)
    with pytest.raises(ValueError):
        run_trials(psi, branches, 3, 0)


class _FixedDraw:
    """Generator stand-in whose one draw is a preset uniform."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        return self.u if size is None else np.full(size, self.u)


def test_run_trials_branch_rule_at_exact_boundaries(monkeypatch):
    # uniforms that seeded draws practically never give: exactly on a
    # cumulative weight, and at or above a last cumulative weight that
    # rounds below 1 (amplitudes 0.6, 0.8, 0.6)
    states = [create(VAC, i).normalized() for i in range(3)]
    branches = BranchSet({str(i): st for i, st in enumerate(states)})
    psi = superpose(list(zip((0.6, 0.8, 0.6), states)), normalize=True)
    born = born_probabilities(psi, branches)
    cum = np.cumsum(born)
    assert cum[-1] < 1.0
    r = np.array([0.0, np.nextafter(cum[0], 0.0), cum[0], cum[1], cum[2], 1.0 - 2.0**-53])
    picks = []
    for u in r:  # one single-trial batch per preset uniform: its count names the pick
        monkeypatch.setattr(np.random, "Generator", lambda bits: _FixedDraw(u))
        picks.append(run_trials(psi, branches, 0, 1).counts.index(1))
    assert picks == [sample_index(born, _FixedDraw(u)) for u in r]
    assert picks == [0, 0, 1, 2, 2, 2]


# ---- threshold counts against the per-trial pick they replaced -------------------

class _PresetDraws:
    """Generator stand-in that hands out preset uniforms in order."""

    def __init__(self, draws):
        self.draws, self.used = draws, 0

    def random(self, size):
        self.used += size
        return self.draws[self.used - size:self.used]


VAC_17_MODES = new_vacuum(minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=8))


@settings(deadline=None)
@given(amps=st.lists(st.one_of(st.just(0.0), st.floats(1e-4, 1.0)), min_size=2,
                     max_size=16).filter(any),
       uniforms=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40),
       block=st.sampled_from([1, 3, BLOCK]))
@example(amps=[0.6, 0.8, 0.6], uniforms=[], block=BLOCK)  # last weight rounds below 1
@example(amps=[0.0, 1.0, 0.0, 0.0, 0.5], uniforms=[0.0], block=1)
def test_threshold_counts_match_searchsorted_rule(amps, uniforms, block):
    """Zero-weight branches included, every uniform in [0, 1) lands where the
    per-trial pick put it, whatever the block size."""
    states = [create(VAC_17_MODES, i).normalized() for i in range(len(amps))]
    branches = BranchSet({str(i): s for i, s in enumerate(states)})
    psi = superpose([(a, s) for a, s in zip(amps, states) if a], normalize=True)
    born = born_probabilities(psi, branches)
    cum = np.cumsum(born)
    # seeded draws practically never give these: each cumulative weight exactly,
    # one ulp either side, and the largest uniform below 1
    edges = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0),
                            [0.0, 1.0 - 2.0**-53]])
    r = np.concatenate([uniforms, edges[edges < 1.0]])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measurement, "_TRIAL_BLOCK", block)
        patch.setattr(np.random, "Generator", lambda bits: _PresetDraws(r))
        batch = run_trials(psi, branches, 0, len(r))
    assert batch.counts == searchsorted_counts(born, r)


@pytest.mark.parametrize("seed", [5, 2**128 - 1])
def test_three_branch_trials_span_a_block_boundary(seed):
    states = [create(VAC, i).normalized() for i in range(3)]
    branches = BranchSet({str(i): s for i, s in enumerate(states)})
    psi = superpose(list(zip((0.6, 0.8, 0.6), states)), normalize=True)
    picks = reference_picks(psi, branches, seed, BLOCK + 2)
    for n in (BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2):
        assert run_trials(psi, branches, seed, n).counts == tuple(map(picks[:n].count, range(3)))


@pytest.mark.parametrize("seed,n_trials,error,name", [
    (1.5, 10, TypeError, "master_seed"),  # int() would run seed 1's stream
    (1.9, 10, TypeError, "master_seed"),
    (True, 10, TypeError, "master_seed"),
    (np.float64(2.0), 10, TypeError, "master_seed"),
    (1, True, TypeError, "n_trials"),
    (1, np.True_, TypeError, "n_trials"),
    (1, 2.5, TypeError, "n_trials"),
    (1, "10", TypeError, "n_trials"),
    (1, 0, ValueError, "n_trials"),
    (1, -4, ValueError, "n_trials"),
    (-1, 10, ValueError, "master_seed must lie in [0, 2**128)"),
    (2**128, 10, ValueError, "master_seed must lie in [0, 2**128)"),
    (np.int64(-3), 10, ValueError, "master_seed must lie in [0, 2**128)"),
])
def test_run_trials_rejects_non_integer_arguments(seed, n_trials, error, name):
    branches, a, _ = _two_branches()
    with pytest.raises(error, match=re.escape(name)):
        run_trials(a, branches, seed, n_trials)


def test_run_trials_takes_numpy_integers_as_ints():
    branches, a, b = _two_branches()
    psi = superpose([(0.6, a), (0.8, b)], normalize=True)
    batch = run_trials(psi, branches, np.uint64(3), np.int64(100))
    assert type(batch.n_trials) is int
    assert batch == run_trials(psi, branches, 3, 100)


def _collapse(name, seed, n_trials, **overrides):
    """One registry run of a packaged collapse scenario with config overrides."""
    return run_scenario(name, dict(default_config(name), **overrides), seed=seed, trials=n_trials)


def test_epr_scenario_matches_project_loop():
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=2)
    vac = new_vacuum(basis)
    l_up, l_dn, r_up, r_dn = (basis.mode_index((n,)) for n in (1, -1, 2, -2))
    branch_i = create(create(vac, l_up), r_dn).normalized()
    branch_ii = create(create(vac, l_dn), r_up).normalized()
    singlet = superpose([(1.0, branch_i), (1.0, branch_ii)], normalize=True)
    spins = (l_up, r_dn, r_up)
    branches = BranchSet({"I": branch_i, "II": branch_ii})
    born = born_probabilities(singlet, branches)
    for seed in (0, 12, 2**33 + 1):
        picks = reference_picks(singlet, branches, seed, max(TRIAL_COUNTS))
        anti = []
        for idx in picks:
            post = branches.states[idx]
            up, dn, rup = (number_expectation(post, m) for m in spins)
            anti.append((up, dn, rup) in ((1.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
        for n in TRIAL_COUNTS:
            report = _collapse("epr_collapse", seed, n)
            c = (picks[:n].count(0), picks[:n].count(1))
            assert report.tables["statistics"].rows == (
                ("I", c[0], c[0] / n, float(born[0])), ("II", c[1], c[1] / n, float(born[1])))
            assert report.flags["anticorrelation_exact"] == (sum(anti[:n]) == n)


def test_page_geilker_matches_project_loop():
    basis = minkowski_basis(box_side=10.0, dimension=1, mass=1.0, n_max=1)
    vac = new_vacuum(basis)
    state_a = create(vac, basis.mode_index((-1,))).normalized()
    state_b = create(vac, basis.mode_index((1,))).normalized()
    pointer = superpose([(1.0, state_a), (1.0, state_b)], normalize=True)
    bumps = (_scalar_bump((3.0,), 1.0, 0.4), _scalar_bump((7.0,), 1.0, 0.4))
    pre = _scalar_mixture([(0.5, bumps[0]), (0.5, bumps[1])])
    branches = BranchSet({"sphere_at_A": state_a, "sphere_at_B": state_b})
    born = born_probabilities(pointer, branches)
    at = ((0.0, (3.0,)), (0.0, (7.0,)))
    for seed in (4, 99):
        picks = reference_picks(pointer, branches, seed, max(TRIAL_COUNTS))
        single = [all(abs(bumps[i](ev) - pre(ev)) > 0.0 for ev in at) for i in picks]
        for n in TRIAL_COUNTS:
            report = _collapse("page_geilker", seed, n)
            c = (picks[:n].count(0), picks[:n].count(1))
            assert report.tables["statistics"].rows == (
                ("sphere_at_A", c[0], c[0] / n, float(born[0])),
                ("sphere_at_B", c[1], c[1] / n, float(born[1])))
            assert report.tables["summary"].rows[0][1] == all(single[:n])
            assert report.flags["single_sphere_every_trial"] == all(single[:n])


@pytest.mark.parametrize("name", ["epr_collapse", "page_geilker"])
def test_a_collapse_run_classifies_its_probes_once(name, monkeypatch):
    """The gate judges every branch in one call, so a run tests the cone once."""
    calls = []

    def counted(*args):
        calls.append(args)
        return outside_future_cone(*args)

    monkeypatch.setattr(measurement, "outside_future_cone", counted)
    _collapse(name, 3, 50)
    assert len(calls) == 1


@pytest.mark.parametrize("amps", [(1.0, 1.0), (0.6, 0.8), (1.0, 0.0)])
def test_empirical_frequencies_within_four_sigma(amps):
    n = 20_000
    branches, a, b = _two_branches()
    psi = superpose([(amps[0], a), (amps[1], b)], normalize=True)
    probs = born_probabilities(psi, branches)
    counts = np.zeros(2)
    for trial in range(n):
        idx, _ = project(psi, branches, trial_rng(7, trial))
        counts[idx] += 1
    for i, p in enumerate(probs):
        bound = 4.0 * np.sqrt(p * (1.0 - p) / n)
        assert abs(counts[i] / n - p) <= max(bound, 1e-12)


# ---- causality ------------------------------------------------------------------

# probes at t = 1 about the origin (0, 0): two outside the cone, three inside
_GATE_T, _GATE_X = np.ones(5), np.array([[-3.0], [-0.5], [0.0], [0.5], [3.0]])
_GATE_OUTSIDE = np.abs(_GATE_X[:, 0]) > _GATE_T


def test_causality_check_splits_probes_by_cone():
    pre = np.ones(5)
    # difference only strictly inside the cone: the check must pass
    post = 1.0 + np.where(_GATE_OUTSIDE, 0.0, 0.7)
    rep, = causality_check(pre, [post], 0.0, (0.0,), _GATE_T, _GATE_X)
    assert rep.passed
    assert rep.n_outside == 2 and rep.n_inside == 3
    assert rep.max_violation_outside == 0.0
    assert_allclose(rep.max_diff_inside, 0.7)


def test_causality_check_flags_outside_change():
    pre, post = np.zeros(2), np.full(2, 0.3)  # a uniform shift leaks outside the cone
    rep, = causality_check(pre, [post], 0.0, (0.0,), [0.5, 0.5], [[-4.0], [4.0]])
    assert not rep.passed
    assert_allclose(rep.max_violation_outside, 0.3)
    assert rep.max_diff_inside == 0.0 and rep.n_inside == 0
    with pytest.raises(ValueError):
        causality_check([], [[]], 0.0, (0.0,), [], np.zeros((0, 1)))
    # not one density per probe, or posts not one row per branch
    for wrong in ((np.zeros(3), [post]), (pre, [np.zeros(1)]), (pre, post), (pre, [[post]])):
        with pytest.raises(ValueError, match="one density per probe"):
            causality_check(*wrong, 0.0, (0.0,), [0.5, 0.5], [[-4.0], [4.0]])


@pytest.mark.parametrize("probe", np.flatnonzero(_GATE_OUTSIDE).tolist())
@pytest.mark.parametrize("pre", [0.0, 1.0, 2.7e-3, 5e-324, 1e300])
def test_causality_check_fails_one_ulp_outside(probe, pre):
    """The gate has no tolerance: the smallest change at one outside probe fails it."""
    post = np.full(5, pre)
    post[probe] = np.nextafter(pre, np.inf)
    rep, = causality_check(np.full(5, pre), [post], 0.0, (0.0,), _GATE_T, _GATE_X)
    assert not rep.passed
    assert rep.max_violation_outside == np.spacing(pre) and rep.max_diff_inside == 0.0


_DENSITY = st.floats(allow_nan=False, allow_infinity=False)  # pre - post may overflow


@given(pre=st.lists(_DENSITY, min_size=5, max_size=5),
       change=st.lists(_DENSITY | st.sampled_from([math.nan, math.inf, -math.inf]),
                       min_size=3, max_size=3))
@example(pre=[1.7e308] * 5, change=[-1.7e308] * 3)  # pre - post overflows inside
def test_causality_check_passes_any_change_inside(pre, change):
    """Whatever a density becomes inside the future cone, NaN and inf included,
    the gate passes."""
    post = np.array(pre)
    post[~_GATE_OUTSIDE] = change
    rep, = causality_check(pre, [post], 0.0, (0.0,), _GATE_T, _GATE_X)
    assert rep.passed and rep.max_violation_outside == 0.0
    assert (rep.n_outside, rep.n_inside) == (2, 3)


@pytest.mark.parametrize("side", ["pre", "post"])
def test_causality_check_fails_nan_outside(side):
    densities = {"pre": np.ones(5), "post": np.ones(5)}
    densities[side][0] = np.nan  # probe 0 is outside the cone
    rep, = causality_check(densities["pre"], [densities["post"]], 0.0, (0.0,), _GATE_T, _GATE_X)
    assert not rep.passed and math.isnan(rep.max_violation_outside)


@pytest.mark.parametrize("where", ["t0", "x0", "t", "x"])
def test_causality_check_counts_a_nan_event_as_outside(where):
    """A NaN origin puts every probe outside its cone, and a NaN probe lies outside:
    a change at a probe inside the finite cone then fails the gate."""
    t0, x0, t, x = 0.0, np.zeros(1), _GATE_T.copy(), _GATE_X.copy()
    probe = 2  # inside the cone of the finite origin
    if where == "t0":
        t0 = math.nan
    elif where == "x0":
        x0[0] = math.nan
    elif where == "t":
        t[probe] = math.nan
    else:
        x[probe, 0] = math.nan
    post = np.ones(5)
    post[probe] = 2.0
    rep, = causality_check(np.ones(5), [post], t0, x0, t, x)
    assert not rep.passed and rep.max_violation_outside == 1.0
    assert rep.n_outside == (5 if where in ("t0", "x0") else 3)


def test_causality_check_reads_an_overflowing_change_as_inf():
    pre, post = np.ones(5), np.ones(5)
    probe = int(np.flatnonzero(_GATE_OUTSIDE)[0])
    pre[probe], post[probe] = 1.7e308, -1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep, = causality_check(pre, [post], 0.0, (0.0,), _GATE_T, _GATE_X)
    assert not rep.passed and rep.max_violation_outside == math.inf


@pytest.mark.parametrize("t0, x0", [(0.0, (0.0, 0.0)), (0.0, [[0.0]]), ([0.0, 1.0], (0.0,))],
                         ids=["x0-of-wrong-dimension", "2-d-x0", "array-t0"])
def test_causality_check_rejects_a_malformed_origin(t0, x0):
    with pytest.raises(ValueError, match="^origin (time t0 must|point x0 has)"):
        causality_check(np.ones(5), [np.ones(5)], t0, x0, _GATE_T, _GATE_X)


# ---- the array gate against the per-probe scalar path ------------------------
# The oracle is the gate as it was before event arrays: one (t, x) pair per
# probe, a scalar cone test and a ``math.exp`` bump.

def _scalar_outside(origin, probe):
    (t0, x0), (t, x) = origin, probe
    dt = t - t0
    if dt < 0.0:
        return True
    dx = np.asarray(x) - np.asarray(x0)
    return bool(np.sqrt(float(np.dot(dx, dx))) > dt)


def _scalar_bump(center, mass, width):
    center = np.atleast_1d(np.asarray(center, dtype=float))
    norm = mass / ((2.0 * math.pi) ** (len(center) / 2.0) * width**len(center))

    def profile(probe):
        dx = np.asarray(probe[1]) - center
        return float(norm * math.exp(-float(dx @ dx) / (2.0 * width**2)))

    return profile


def _scalar_mixture(parts):
    return lambda ev: float(sum(w * p(ev) for w, p in parts))


def _scalar_check(pre, post, origin, probes):
    """Per-probe loop at zero tolerance: (outside flags, CausalityReport)."""
    flags, max_out, max_in = [], 0.0, 0.0
    for ev in probes:
        diff = abs(float(pre(ev)) - float(post(ev)))
        flags.append(_scalar_outside(origin, ev))
        if flags[-1]:
            max_out = max(max_out, diff)
        else:
            max_in = max(max_in, diff)
    n_out = sum(flags)
    return flags, CausalityReport(max_out, max_in, n_out, len(flags) - n_out, max_out <= 0.0)


def _within_ulps(a, b, n, scale=0.0):
    """|a - b| within n ulp of the largest of |a|, |b| and ``scale``."""
    return abs(a - b) <= n * np.spacing(max(abs(a), abs(b), scale))


# null displacements (dt, dx) with integer |dx| = dt: Pythagorean triples
_NULL_STEPS = {1: [(1, (1,)), (2, (-2,))], 2: [(5, (3, 4)), (5, (-4, 3))],
               3: [(3, (1, 2, 2)), (3, (-2, 1, -2))]}


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_array_gate_matches_scalar_path(dimension):
    rng = np.random.default_rng(40 + dimension)
    for _ in range(25):
        # a dyadic origin keeps the null probes below exact in binary floating point
        t0, x0 = rng.integers(0, 16) / 8.0, rng.integers(0, 80, dimension) / 8.0
        n = int(rng.integers(1, 120))
        t = t0 + rng.uniform(-1.0, 4.0, n)
        x = rng.uniform(0.0, 10.0, (n, dimension))
        # null-boundary probes at dyadic offsets, then a probe earlier than the origin
        steps = _NULL_STEPS[dimension]
        for dt, dx in steps:
            t = np.append(t, t0 + dt / 8.0)
            x = np.vstack([x, x0 + np.asarray(dx) / 8.0])
        t = np.append(t, t0 - 0.5)
        x = np.vstack([x, x0])
        centers = rng.uniform(0.0, 10.0, (3, dimension))
        mass, width = rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.5)
        w = rng.uniform(0.0, 1.0)
        spheres = _spheres(centers, mass, width, x)
        # several branch rows: the third sphere and each sphere of the mixture
        pre, posts = w * spheres[0] + (1.0 - w) * spheres[1], spheres[[2, 0, 1]]
        bumps = [_scalar_bump(center, mass, width) for center in centers]
        scalar_pre = _scalar_mixture([(w, bumps[0]), (1.0 - w, bumps[1])])
        scalar_posts = [bumps[2], bumps[0], bumps[1]]
        rng.uniform(0.0, 0.2)  # the gate's former tolerance: still drawn, so the draws match

        probes = list(zip(t, x))
        got = causality_check(pre, posts, t0, x0, t, x)
        assert len(got) == len(scalar_posts)
        for rep, scalar_post in zip(got, scalar_posts):
            flags, ref = _scalar_check(scalar_pre, scalar_post, (t0, x0), probes)
            assert outside_future_cone(t0, x0, t, x).tolist() == flags
            assert not any(flags[-1 - len(steps):-1])  # the null boundary is inside
            assert flags[-1]  # earlier: outside
            assert (rep.n_outside, rep.n_inside, rep.passed) == (ref.n_outside, ref.n_inside,
                                                                 ref.passed)
            # np.exp and math.exp differ in the last ulp, so a difference agrees within
            # 4 ulp of its larger operand; where pre and post nearly cancel, that is
            # many ulp of the difference itself
            operand = np.array([max(abs(scalar_pre(ev)), abs(scalar_post(ev))) for ev in probes])
            outside = np.array(flags)
            assert _within_ulps(rep.max_violation_outside, ref.max_violation_outside, 4,
                                operand[outside].max(initial=0.0))
            assert _within_ulps(rep.max_diff_inside, ref.max_diff_inside, 4,
                                operand[~outside].max(initial=0.0))


def test_page_geilker_discontinuity_matches_scalar_path():
    rng = np.random.default_rng(7)
    for _ in range(300):
        box = rng.uniform(2.0, 40.0)
        a, b = np.sort(rng.uniform(0.0, box, 2))
        mass, width = rng.uniform(0.1, 5.0), rng.uniform(0.05, 2.0)
        n_probes = int(rng.integers(2, 100))
        # the collapse runner itself: the config rule that a sphere be wider than the probe
        # spacing would reject many of these draws
        cfg = dict(default_config("page_geilker"), box_side=box, position_a=a, position_b=b,
                   sphere_mass=mass, sphere_width=width, n_probes=n_probes, n_trials=1)
        tables, _ = _SCENARIOS["page_geilker"].run(dict(cfg, seed=0))
        summary, = (table for table in tables if table.name == "summary")
        discontinuity = summary.rows[0][0]
        bumps = (_scalar_bump((a,), mass, width), _scalar_bump((b,), mass, width))
        pre = _scalar_mixture([(0.5, bumps[0]), (0.5, bumps[1])])
        lab = (0.0, (0.5 * (a + b),))  # the runner measures at t = 0
        probes = [(0.0, (x,)) for x in np.linspace(0.0, box, n_probes)]
        ref = min(_scalar_check(pre, bump, lab, probes)[1].max_violation_outside
                  for bump in bumps)
        # 4 ulp of the profile values the discontinuity is a difference of
        operand = max(p(ev) for ev in probes for p in (pre, *bumps))
        assert _within_ulps(discontinuity, ref, 4, operand)


# ---- sphere densities ---------------------------------------------------------

def test_gaussian_bump_carries_its_mass():
    xs = np.linspace(-5.0, 15.0, 20001)
    bump, = _spheres((5.0,), mass=2.0, width=0.3, x=xs[:, None])
    assert_allclose(np.trapezoid(bump, xs), 2.0, rtol=1e-10)


# ---- probe grids ----------------------------------------------------------------

@given(stop=st.floats(min_value=1e-100, max_value=1e100), k=st.integers(1, 2000))
@example(stop=10.0, k=1)
@example(stop=10.0, k=2)
@example(stop=1e-100, k=2000)
@example(stop=1e100, k=3)
def test_probe_grid_is_linspace_bit_for_bit(stop, k):
    """The collapse probe grids over the ``box_side`` range of the records."""
    assert _linspace(stop, k).tobytes() == np.linspace(0.0, stop, k).tobytes()


# ---- EPR scenario ---------------------------------------------------------------

def test_epr_scenario_perfect_anticorrelation_and_zero_violation():
    report = _collapse("epr_collapse", 12, 2000)
    assert report.flags == {"anticorrelation_exact": True, "causality_pass": True,
                            "born_within_4sigma": True}
    for _, violation, _, _, _, passed in report.tables["causality"].rows:
        assert violation == 0.0 and passed
    (_, count_i, freq_i, born_i), (_, count_ii, _, born_ii) = report.tables["statistics"].rows
    assert (born_i, born_ii) == (0.5, 0.5)
    assert count_i + count_ii == 2000
    # unbiased coin to 4 sigma
    assert abs(freq_i - 0.5) <= 4.0 * np.sqrt(0.25 / 2000)


def test_epr_scenario_is_reproducible():
    r1, r2 = (_collapse("epr_collapse", 77, 200) for _ in range(2))
    assert (r1.tables, r1.flags) == (r2.tables, r2.flags)


_LENGTHS = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)


@given(box=_LENGTHS, separation=_LENGTHS)
@example(box=10.0, separation=4.0)
@example(box=1e20, separation=1.0)  # the stations round to one point
@example(box=1e-160, separation=1e-170)  # a box below the box basis's range
@example(box=1e-160, separation=1e-160 / 3.0)
@example(box=1e-100, separation=1e-170)  # the smallest box: the stations round to one point
def test_epr_scenario_rejects_coincident_stations(box, separation):
    """The config checks the box range, then that the stations fit in the box, and
    then rejects a station pair exactly when the light-cone test, at the runner's
    measurement time 0, would not put each outside the other's future cone."""
    cfg = dict(default_config("epr_collapse"), box_side=box, station_separation=separation)
    if not 1e-100 <= box <= 1e100:  # a box that the box basis cannot hold
        with pytest.raises(ScenarioConfigError, match="'box_side': must lie between"):
            validate_config("epr_collapse", cfg)
        return
    if separation >= box:
        with pytest.raises(ScenarioConfigError, match="must be smaller than box_side"):
            validate_config("epr_collapse", cfg)
        return
    left = 0.5 * (box - separation)  # the stations as the runner places them
    if bool(outside_future_cone(0.0, (left,), 0.0, (left + separation,))):
        validate_config("epr_collapse", cfg)
    else:
        with pytest.raises(ScenarioConfigError, match="too small to separate the stations"):
            validate_config("epr_collapse", cfg)


_LOG_UNIFORM = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0 ** e)


@settings(deadline=None)
@given(box=_LOG_UNIFORM, fraction=st.floats(min_value=0.0, max_value=1.0),
       n_probes=st.integers(min_value=2, max_value=200))
@example(box=1e30, fraction=0.4, n_probes=48)  # the spin modes' box basis at 1e30
@example(box=1e200, fraction=0.4, n_probes=48)  # |dx|^2 overflows
@example(box=1e-99, fraction=1e-3, n_probes=2)  # a narrow box
def test_epr_scenario_rejects_or_runs_without_a_warning(box, fraction, n_probes):
    """Every config either exits 2 naming a field or runs with no numpy warning."""
    cfg = dict(default_config("epr_collapse"), box_side=box, station_separation=fraction * box,
               n_probes=n_probes)
    try:
        validate_config("epr_collapse", cfg)
    except ScenarioConfigError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_scenario("epr_collapse", cfg, trials=10)


# ---- sphere-superposition scenario ------------------------------------------------

def test_page_geilker_never_averages():
    report = _collapse("page_geilker", 4, 500)
    assert report.flags == {"single_sphere_every_trial": True, "discontinuity_nonzero": True,
                            "born_within_4sigma": True}
    (discontinuity, always_single), = report.tables["summary"].rows
    assert always_single and discontinuity > 0.0
    counts = [row[1] for row in report.tables["statistics"].rows]
    assert sum(counts) == 500
    assert min(counts) > 0  # both outcomes occur


def test_page_geilker_discontinuity_is_half_peak():
    """Relocating the sphere leaves half a bump's peak worth of mismatch at
    whichever position loses its half-sphere."""
    width, mass = 0.4, 1.0
    report = _collapse("page_geilker", 1, 10, sphere_width=width, sphere_mass=mass)
    peak = mass / (np.sqrt(2.0 * np.pi) * width)
    assert_allclose(report.tables["summary"].rows[0][0], 0.5 * peak, rtol=0.05)
