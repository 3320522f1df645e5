"""Born-rule projection onto admissible branch sets with a causality gate.

A measurement replaces the state with one member of an orthonormal branch
set, sampled with probability |<C_i|Psi>|^2 / sum_j |<C_j|Psi>|^2.  Each
branch carries an energy-density profile: a callable that maps probe
events, given as arrays t (n,) and x (n, d), to the densities there (n,).
The causality gate evaluates the pre- and post-projection profiles on the
whole probe grid at once and demands that they agree, within a declared
tolerance, wherever ``outside_future_cone`` marks a probe as outside the
future light cone of the measurement event.  Branches failing the gate
are inadmissible; if none survive, the engine reports that distinct
outcome instead of guessing.

Admissibility itself is scenario-declared (which branch sets count as
"classical" is an open modeling question), so this module is agnostic:
it takes a BranchSet and enforces only orthonormality, Born statistics,
and the light-cone condition.

Trials read one counter-based stream: trial ``i`` of master seed ``s`` is
draw ``i`` of ``Generator(Philox(key=s))``.  ``run_trials`` reads it in
sequential blocks; ``trial_rng(s, i)`` replays any one trial by advancing
the Philox counter, and serves as the single-trial oracle for the batch path.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import math

import numpy as np

from .fock import NORM_TOL, FockState, create, inner, new_vacuum, number_expectation, superpose
from .modes import minkowski_basis
from .spacetime import Event, outside_future_cone

__all__ = [
    "ZeroOverlapError",
    "NoAdmissibleCausalBranch",
    "Branch",
    "BranchSet",
    "MeasurementEvent",
    "CausalityReport",
    "born_probabilities",
    "trial_rng",
    "TrialBatch",
    "run_trials",
    "project",
    "causality_check",
    "constrained_project",
    "gaussian_bump",
    "profile_mixture",
    "EPRResult",
    "run_epr_scenario",
    "PageGeilkerResult",
    "run_page_geilker",
]

_ORTHO_TOL = 1e-10

Profile = Callable[[np.ndarray, np.ndarray], np.ndarray]  # t (n,), x (n, d) -> (n,)


class ZeroOverlapError(ValueError):
    """The state is orthogonal to every branch: projection is undefined."""


class NoAdmissibleCausalBranch(RuntimeError):
    """Every overlapping branch would change the energy profile acausally."""


@dataclass(frozen=True)
class Branch:
    """One admissible post-measurement alternative."""

    label: str
    state: FockState
    energy_profile: Profile


class BranchSet:
    """An orthonormal family of branches (checked on construction)."""

    __slots__ = ("branches",)

    def __init__(self, branches: Sequence[Branch]):
        branches = tuple(branches)
        if not branches:
            raise ValueError("branch set cannot be empty")
        for br in branches:
            if abs(br.state.norm() - 1.0) > NORM_TOL:
                raise ValueError(f"branch {br.label!r} is not unit-norm")
        for i in range(len(branches)):
            for j in range(i + 1, len(branches)):
                ov = abs(inner(branches[i].state, branches[j].state))
                if ov >= _ORTHO_TOL:
                    raise ValueError(
                        f"branches {branches[i].label!r} and {branches[j].label!r} "
                        f"are not orthogonal (|overlap| = {ov:.3e})"
                    )
        self.branches = branches

    def __len__(self) -> int:
        return len(self.branches)

    def __iter__(self):
        return iter(self.branches)

    def __getitem__(self, i: int) -> Branch:
        return self.branches[i]


@dataclass(frozen=True)
class MeasurementEvent:
    """Where/when a projection happens, and onto which branch set."""

    event: Event
    branch_set: BranchSet


@dataclass(frozen=True)
class CausalityReport:
    """Outcome of the outside-light-cone energy-invariance check."""

    max_violation_outside: float
    max_diff_inside: float
    n_outside: int
    n_inside: int
    tol: float
    passed: bool


def born_probabilities(state: FockState, branch_set: BranchSet) -> np.ndarray:
    """p_i = |<C_i|Psi>|^2 / sum_j |<C_j|Psi>|^2 over the branch set."""
    if abs(state.norm() - 1.0) > NORM_TOL:
        raise ValueError("state must be normalized")
    weights = np.array([abs(inner(br.state, state)) ** 2 for br in branch_set])
    total = float(weights.sum())
    if total <= 1e-24:
        raise ZeroOverlapError("state has zero overlap with every branch")
    return weights / total


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Seed ``master_seed``'s trial stream, positioned at trial ``trial_index``.

    The stream is ``Generator(Philox(key=master_seed))``, one uniform per
    trial.  A Philox counter step yields four 64-bit outputs, so the replay
    advances the counter by ``trial_index // 4`` and discards the rest.
    """
    step, skip = divmod(int(trial_index), 4)
    if step < 0:
        raise ValueError("trial index must be non-negative")
    bits = np.random.Philox(key=int(master_seed))
    bits.advance(step)
    rng = np.random.Generator(bits)
    rng.random(skip)
    return rng


def _sample_index(probabilities: np.ndarray, rng: np.random.Generator) -> int:
    r = rng.random()
    cum = 0.0
    for i, p in enumerate(probabilities):
        cum += p
        if r < cum:
            return i
    return int(len(probabilities) - 1)  # guard against cum rounding below 1


def project(state: FockState, measurement: MeasurementEvent,
            rng_seed) -> tuple[int, FockState]:
    """Sample a branch by the Born rule; the post-state is that branch exactly."""
    rng = np.random.default_rng(rng_seed)
    idx = _sample_index(born_probabilities(state, measurement.branch_set), rng)
    return idx, measurement.branch_set[idx].state


_TRIAL_BLOCK = 4096  # trials drawn at once: bounds memory, not results


@dataclass(frozen=True)
class TrialBatch:
    """Branch counts of ``n_trials`` seeded projections of one state."""

    n_trials: int
    born: tuple[float, ...]
    counts: tuple[int, ...]


def run_trials(state: FockState, measurement: MeasurementEvent, master_seed: int,
               n_trials: int) -> TrialBatch:
    """Project ``state`` once in each of trials ``0 .. n_trials - 1``.

    Trial ``t`` picks the branch that ``project(state, measurement,
    trial_rng(master_seed, t))`` picks: its uniform is draw ``t`` of the
    seed's stream, and the branch is the first whose cumulative Born
    weight, summed in ``_sample_index``'s order, exceeds it.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    born = born_probabilities(state, measurement.branch_set)
    cum = np.cumsum(born)
    counts = np.zeros(len(born), dtype=np.int64)
    rng = trial_rng(master_seed, 0)
    for start in range(0, n_trials, _TRIAL_BLOCK):
        r = rng.random(min(_TRIAL_BLOCK, n_trials - start))
        picks = np.minimum(np.searchsorted(cum, r, side="right"), len(born) - 1)
        counts += np.bincount(picks, minlength=len(born))
    return TrialBatch(n_trials, tuple(float(p) for p in born), tuple(int(c) for c in counts))


def causality_check(pre_profile: Profile, post_profile: Profile, origin: Event,
                    t, x, tol: float) -> CausalityReport:
    """Compare energy profiles at the probes t (n,), x (n, d), split by the light cone.

    Outside the future cone of ``origin`` the profiles must agree within
    ``tol``; inside, any difference is legitimate and reported only for
    contrast.
    """
    t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    if not t.size:
        raise ValueError("causality check needs a nonempty probe grid")
    diff = np.abs(pre_profile(t, x) - post_profile(t, x))
    outside = outside_future_cone(origin, t, x)
    max_out = float(diff[outside].max(initial=0.0))
    return CausalityReport(
        max_violation_outside=max_out,
        max_diff_inside=float(diff[~outside].max(initial=0.0)),
        n_outside=int(outside.sum()),
        n_inside=int((~outside).sum()),
        tol=tol,
        passed=max_out <= tol,
    )


def constrained_project(state: FockState, measurement: MeasurementEvent,
                        pre_profile: Profile, t, x, tol: float,
                        rng_seed) -> tuple[int, FockState, CausalityReport]:
    """Born sampling restricted to branches passing the causality gate at probes (t, x).

    Branch probabilities are renormalized over the causal subset; if no
    overlapping branch passes, NoAdmissibleCausalBranch is raised.
    """
    rng = np.random.default_rng(rng_seed)
    probs = born_probabilities(state, measurement.branch_set)
    reports = [
        causality_check(pre_profile, br.energy_profile, measurement.event, t, x, tol)
        for br in measurement.branch_set
    ]
    keep = [i for i, rep in enumerate(reports) if rep.passed and probs[i] > 0.0]
    if not keep:
        raise NoAdmissibleCausalBranch(
            "every overlapping branch changes the energy profile outside the light cone"
        )
    sub = probs[keep] / probs[keep].sum()
    idx = keep[_sample_index(sub, rng)]
    return idx, measurement.branch_set[idx].state, reports[idx]


# ---- energy-profile helpers ---------------------------------------------

def gaussian_bump(center, mass: float, width: float) -> Profile:
    """Normalized static Gaussian energy density carrying total ``mass``."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if not (width > 0.0):
        raise ValueError("width must be positive")
    d = len(center)
    norm = mass / ((2.0 * math.pi) ** (d / 2.0) * width**d)
    # np.vecdot sums |x - center|^2 as a one-event ``dx @ dx`` does, bit for bit
    return lambda t, x: norm * np.exp(-np.vecdot(x - center, x - center) / (2.0 * width**2))


def profile_mixture(parts: Sequence[tuple[float, Profile]]) -> Profile:
    """Convex (or any linear) combination of energy profiles."""
    parts = list(parts)
    return lambda t, x: sum(w * p(t, x) for w, p in parts)


# ---- EPR pair scenario ----------------------------------------------------

@dataclass(frozen=True)
class EPRResult:
    n_trials: int
    branch_counts: tuple[int, int]
    branch_frequencies: tuple[float, float]
    born: tuple[float, float]
    anticorrelation_rate: float
    causality_reports: tuple[CausalityReport, CausalityReport]
    max_violation_outside: float


def _epr_setup(box_side: float, mass: float):
    """Four two-level spin modes on a 1-D box: (L+, L-, R+, R-)."""
    basis = minkowski_basis(box_side=box_side, dimension=1, mass=mass, n_max=2)
    vac = new_vacuum(basis)
    l_up = basis.mode_index((1,))
    l_dn = basis.mode_index((-1,))
    r_up = basis.mode_index((2,))
    r_dn = basis.mode_index((-2,))
    branch_i = create(create(vac, l_up), r_dn).normalized()
    branch_ii = create(create(vac, l_dn), r_up).normalized()
    singlet = superpose([(1.0, branch_i), (1.0, branch_ii)], normalize=True)
    return basis, (l_up, l_dn, r_up, r_dn), branch_i, branch_ii, singlet


def run_epr_scenario(n_trials: int, master_seed: int, *, box_side: float = 10.0,
                     station_separation: float = 4.0, measurement_time: float = 0.5,
                     sphere_mass: float = 1.0, sphere_width: float = 0.3,
                     n_probes: int = 48, tol: float = 0.0) -> EPRResult:
    """Anticorrelated pair: project at station X, verify spin at station Y.

    Both branches share one energy profile (a bump at each station with the
    same mass), so the projection changes spin correlations but not energy:
    the causality check passes with violation exactly zero, and the remote
    spin is always opposite to the local one.
    """
    basis, (l_up, l_dn, r_up, r_dn), branch_i, branch_ii, singlet = _epr_setup(box_side, mass=1.0)
    x_left = 0.5 * (box_side - station_separation)
    x_right = x_left + station_separation
    station_x = Event(measurement_time, (x_left,))
    # the stations share a time, so the cone test is symmetric in them
    if not outside_future_cone(station_x, measurement_time, (x_right,)):
        raise ValueError("measurement stations must be spacelike-separated")

    # one shared profile: equal-mass bumps at both stations, in every branch
    shared = profile_mixture([
        (0.5, gaussian_bump((x_left,), sphere_mass, sphere_width)),
        (0.5, gaussian_bump((x_right,), sphere_mass, sphere_width)),
    ])
    branches = BranchSet([
        Branch("I", branch_i, shared),
        Branch("II", branch_ii, shared),
    ])
    measurement = MeasurementEvent(event=station_x, branch_set=branches)

    # probe grid straddling the cone: same-time points are all outside,
    # later points near the station are inside
    n_now = n_probes // 2
    t = np.repeat([measurement_time, measurement_time + 1.0], [n_now, n_probes - n_now])
    x = np.concatenate([np.linspace(0.0, box_side, n_now),
                        np.linspace(0.0, box_side, n_probes - n_now)])[:, None]

    # both branches carry the pre-projection profile itself, so one
    # causality report holds for both and for every trial below
    report = causality_check(shared, shared, measurement.event, t, x, tol)
    reports = (report, report)
    batch = run_trials(singlet, measurement, master_seed, n_trials)

    def anticorrelated(post: FockState) -> bool:
        local_up = number_expectation(post, l_up)
        remote_dn = number_expectation(post, r_dn)
        remote_up = number_expectation(post, r_up)
        # local "up" must pair with remote "down" and vice versa
        return (local_up == 1.0 and remote_dn == 1.0 and remote_up == 0.0) or (
            local_up == 0.0 and remote_up == 1.0 and remote_dn == 0.0)

    # a trial's post-state is its branch's state exactly, so the check runs
    # once per branch that occurred and counts for all of its trials
    counts = batch.counts
    n_anticorrelated = sum(c for br, c in zip(branches, counts) if c and anticorrelated(br.state))
    return EPRResult(
        n_trials=n_trials,
        branch_counts=(counts[0], counts[1]),
        branch_frequencies=(counts[0] / n_trials, counts[1] / n_trials),
        born=batch.born,
        anticorrelation_rate=n_anticorrelated / n_trials,
        causality_reports=reports,
        max_violation_outside=max(r.max_violation_outside for r in reports),
    )


# ---- sphere-position superposition (lab collapse) -------------------------

@dataclass(frozen=True)
class PageGeilkerResult:
    n_trials: int
    branch_counts: tuple[int, int]
    discontinuity: float
    always_single_sphere: bool
    causality_reports: tuple[CausalityReport, CausalityReport]


def run_page_geilker(n_trials: int, master_seed: int, *, box_side: float = 10.0,
                     position_a: float = 3.0, position_b: float = 7.0,
                     sphere_mass: float = 1.0, sphere_width: float = 0.4,
                     measurement_time: float = 1.0, n_probes: int = 64,
                     tol: float = 0.0) -> PageGeilkerResult:
    """A sphere in an equal superposition of two positions, then observed.

    Before projection the sourced energy profile is the expectation value,
    half a sphere at each position; afterwards it is one full sphere.  The
    jump between those profiles is the stress-energy discontinuity that a
    sourced Einstein equation cannot absorb at the projection event.
    """
    basis = minkowski_basis(box_side=box_side, dimension=1, mass=1.0, n_max=1)
    vac = new_vacuum(basis)
    mode_a = basis.mode_index((-1,))
    mode_b = basis.mode_index((1,))
    state_a = create(vac, mode_a).normalized()
    state_b = create(vac, mode_b).normalized()
    pointer = superpose([(1.0, state_a), (1.0, state_b)], normalize=True)

    bump_a = gaussian_bump((position_a,), sphere_mass, sphere_width)
    bump_b = gaussian_bump((position_b,), sphere_mass, sphere_width)
    pre = profile_mixture([(0.5, bump_a), (0.5, bump_b)])
    branches = BranchSet([
        Branch("sphere_at_A", state_a, bump_a),
        Branch("sphere_at_B", state_b, bump_b),
    ])
    lab = Event(measurement_time, (0.5 * (position_a + position_b),))
    measurement = MeasurementEvent(event=lab, branch_set=branches)

    t = np.full(n_probes, measurement_time)
    x = np.linspace(0.0, box_side, n_probes)[:, None]
    reports = tuple(causality_check(pre, br.energy_profile, lab, t, x, tol) for br in branches)
    # equal-time probes sit outside the cone, so the sphere relocation is
    # visible to the check: the reported "violation" is the discontinuity
    discontinuity = min(r.max_violation_outside for r in reports)

    batch = run_trials(pointer, measurement, master_seed, n_trials)
    # the two sphere positions at the measurement time
    at_t, at_x = np.full(2, measurement_time), np.array([[position_a], [position_b]])

    def single_sphere(chosen: Profile) -> bool:
        # the post profile is one full sphere, never the pre-projection
        # average: it must deviate from the average at both positions
        return bool(np.all(np.abs(chosen(at_t, at_x) - pre(at_t, at_x)) > 0.0))

    return PageGeilkerResult(
        n_trials=n_trials,
        branch_counts=(batch.counts[0], batch.counts[1]),
        discontinuity=discontinuity,
        always_single_sphere=all(
            single_sphere(br.energy_profile) for br, c in zip(branches, batch.counts) if c),
        causality_reports=reports,
    )
