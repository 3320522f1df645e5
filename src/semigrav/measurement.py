"""Born-rule projection onto admissible branch sets with a causality gate.

A measurement is its branch set: it replaces the state with one member of
an orthonormal ``BranchSet``, built from labelled states and sampled with
probability |<C_i|Psi>|^2 / sum_j |<C_j|Psi>|^2.  The causality gate takes
the pre-projection energy density and one post-projection density per
branch as arrays, one value per probe event of the grid t (n,), x (n, d),
and demands that each branch agree exactly with the pre-state wherever
``outside_future_cone`` marks a probe as outside the future light cone of
the measurement's origin, the event (t0, x0).  ``causality_check`` classifies
the probes once and returns one verdict per branch, with the largest change
on each side of the cone; the scenarios carry them into their tables.

Admissibility itself is scenario-declared (which branch sets count as
"classical" is an open modeling question), so this module is agnostic:
it takes a BranchSet and enforces only orthonormality, Born statistics,
and the light-cone condition.  The two collapse scenarios, ``epr_collapse``
and ``page_geilker``, build their branch sets and densities in ``scenarios``.

Trials read one counter-based stream: trial ``i`` of master seed ``s`` is
draw ``i`` of ``Generator(Philox(key=s))``.  ``run_trials`` reads it in
blocks and counts a block's picks against the cumulative Born weights, with
no per-trial index.  Its oracle, in ``tests/test_measurement.py``, replays
each trial alone from a fresh generator advanced to that draw.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Mapping

import numpy as np

from .fock import FockState, inner
from .spacetime import outside_future_cone

__all__ = [
    "ZeroOverlapError",
    "BranchSet",
    "CausalityReport",
    "born_probabilities",
    "TrialBatch",
    "run_trials",
    "causality_check",
]

_ORTHO_TOL = 1e-10


class ZeroOverlapError(ValueError):
    """The state is orthogonal to every branch: projection is undefined."""


class BranchSet:
    """An orthonormal family of labelled branch states (checked on construction)."""

    __slots__ = ("labels", "states")

    def __init__(self, branches: Mapping[str, FockState]):
        labels, states = tuple(branches), tuple(branches.values())
        if not states:
            raise ValueError("branch set cannot be empty")
        for label, state in zip(labels, states):
            state.require_unit_norm(f"branch {label!r}")
        for (label_a, a), (label_b, b) in combinations(zip(labels, states), 2):
            ov = abs(inner(a, b))
            if ov >= _ORTHO_TOL:
                raise ValueError(f"branches {label_a!r} and {label_b!r} "
                                 f"are not orthogonal (|overlap| = {ov:.3e})")
        self.labels, self.states = labels, states


@dataclass(frozen=True)
class CausalityReport:
    """Outcome of the outside-light-cone energy-invariance check."""

    max_violation_outside: float
    max_diff_inside: float
    n_outside: int
    n_inside: int
    passed: bool


def born_probabilities(state: FockState, branch_set: BranchSet) -> np.ndarray:
    """p_i = |<C_i|Psi>|^2 / sum_j |<C_j|Psi>|^2 over the branch set."""
    state.require_unit_norm()
    weights = np.array([abs(inner(branch, state)) ** 2 for branch in branch_set.states])
    total = float(weights.sum())
    if total <= 1e-24:
        raise ZeroOverlapError("state has zero overlap with every branch")
    return weights / total


_TRIAL_BLOCK = 1 << 14  # trials drawn at once: bounds memory, not results


@dataclass(frozen=True)
class TrialBatch:
    """Branch counts of ``n_trials`` seeded projections of one state."""

    n_trials: int
    born: tuple[float, ...]
    counts: tuple[int, ...]


def run_trials(state: FockState, branches: BranchSet, master_seed: int,
               n_trials: int) -> TrialBatch:
    """Project ``state`` once in each of trials ``0 .. n_trials - 1``.

    Trial ``t`` reads one uniform, draw ``t`` of the seed's stream
    ``Generator(Philox(key=master_seed))``, and picks the first branch
    whose cumulative Born weight exceeds it, or the last branch if none
    does (the last weight can round below 1).  A block's picks are counted
    against the inner cumulative weights, with no per-trial index.
    """
    for name, value in (("master_seed", master_seed), ("n_trials", n_trials)):
        if isinstance(value, bool) or not hasattr(value, "__index__"):
            raise TypeError(f"{name} must be an integer, not {type(value).__name__}")
    master_seed, n_trials = operator.index(master_seed), operator.index(n_trials)
    if not 0 <= master_seed < 2**128:  # the Philox key is 128 bits
        raise ValueError(f"master_seed must lie in [0, 2**128), not {master_seed}")
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    born = born_probabilities(state, branches).tolist()
    thresholds = list(accumulate(born))[:-1]  # as np.cumsum adds, in order
    below = [0] * len(thresholds)  # trials picking a branch <= j, per inner weight j
    rng = np.random.Generator(np.random.Philox(key=master_seed))
    for start in range(0, n_trials, _TRIAL_BLOCK):
        r = rng.random(min(_TRIAL_BLOCK, n_trials - start))
        below = [b + int(np.count_nonzero(r < c)) for b, c in zip(below, thresholds)]
    counts = tuple(hi - lo for lo, hi in zip([0, *below], [*below, n_trials]))
    return TrialBatch(n_trials, tuple(born), counts)


def causality_check(pre, posts, t0, x0, t, x) -> tuple[CausalityReport, ...]:
    """Compare energy densities at the probes t (n,), x (n, d), split by the light cone.

    ``pre`` (n,) holds the pre-projection density and ``posts`` (k, n) one
    post-projection density per branch, one value per probe; the probes are
    classified once, and report i judges row i.  Outside the future cone of the
    origin, time t0 and point x0 (d,), a row must agree with ``pre`` exactly (a NaN
    there fails, and an overflowing difference is inf); inside, any difference is
    legitimate, reported for contrast.
    """
    t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    if not t.size:
        raise ValueError("causality check needs a nonempty probe grid")
    outside = outside_future_cone(t0, x0, t, x)
    pre, posts = np.asarray(pre, dtype=float), np.asarray(posts, dtype=float)
    if pre.shape != outside.shape or posts.ndim != 2 or posts.shape[1:] != outside.shape:
        raise ValueError(f"pre needs one density per probe, shape {outside.shape}, "
                         "and posts one row of them per branch")
    with np.errstate(over="ignore"):
        diff = np.abs(pre - posts)
    # each row's largest change on each side of the cone, a NaN included
    max_out = np.where(outside, diff, 0.0).max(axis=1).tolist()
    max_in = np.where(outside, 0.0, diff).max(axis=1).tolist()
    n_outside = int(np.count_nonzero(outside))
    return tuple(CausalityReport(max_violation_outside=out, max_diff_inside=inside,
                                 n_outside=n_outside, n_inside=outside.size - n_outside,
                                 passed=out <= 0.0)
                 for out, inside in zip(max_out, max_in))
