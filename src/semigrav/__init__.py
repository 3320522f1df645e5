"""Numerical laboratory for semiclassical gravitational self-consistency.

Sparse Fock states of a quantized scalar field on fixed backgrounds,
vacuum-subtracted stress-energy expectation values, residuals of
G_mn = 8 pi <T_mn>, Bogolubov/thermal-wedge spectra, and Born-rule
projection under a light-cone causality constraint.
"""
from .spacetime import (
    BackendDomainError,
    EinsteinDeSitter,
    Minkowski,
    einstein_tensor,
    metric,
    outside_future_cone,
)
from .fock import (
    DROP_TOL,
    BasisMismatchError,
    FockState,
    Occupation,
    ZeroNormError,
    annihilate,
    create,
    inner,
    new_vacuum,
    number_expectation,
    superpose,
)
from .modes import (
    EdSModeBasis,
    MinkowskiModeBasis,
    ModeBasisError,
    eds_basis,
    eds_k0_mode,
    minkowski_basis,
)
from .bogolubov import (
    BogolubovMatrix,
    bogolubov_coefficients,
)
from .stress_energy import (
    energy_density,
    integrated_energy,
    stress_field,
    total_energy,
    wavepacket_state,
)
from .consistency import (
    FitResult,
    ResidualReport,
    ScalingStudy,
    fit_parameter,
    residual,
    scaling_study,
)
from .measurement import (
    BranchSet,
    CausalityReport,
    TrialBatch,
    ZeroOverlapError,
    born_probabilities,
    causality_check,
    run_trials,
)
from .report import RunReport, Table, emit
from .scenarios import (
    SCANS,
    SCENARIO_NAMES,
    ScenarioConfigError,
    default_config,
    run_scenario,
    scan_scenario,
    validate_config,
)

__version__ = "0.1.0"
