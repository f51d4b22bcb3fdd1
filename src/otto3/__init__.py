"""Gaussian-state simulator and analysis toolkit for a three-oscillator
quantum Otto engine.

The working medium shuttles energy between a hot and a cold oscillator
through frequency ramps and resonant exchange couplings; everything is
unitary and the covariance matrix carries the whole state.  See README.md
for conventions and command-line recipes.
"""

from .correlations import gaussian_discord, log_negativity, pt_smallest_eigenvalue
from .energetics import EfficiencyResult, efficiency, ergotropy, mode_energies, mode_energy
from .engine import (
    CycleRecord,
    Engine,
    EngineParams,
    EngineResult,
    FixedCycles,
    TimeSeries,
    WorkNonNegative,
    run_reduced,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateRampError,
    EnergyBalanceError,
    IntegrationError,
    Otto3Error,
    PhysicalityError,
    SymplecticityError,
)
from .explore import (
    Objective,
    OptimizeOutcome,
    ParameterBox,
    PrepFamily,
    ScanSample,
    optimize,
    random_scan,
)
from .propagators import (
    CouplingSide,
    RampMode,
    RampSchedule,
    SymplecticPropagator,
    coupling_propagator,
    harmonic_propagator,
    ode_propagator,
    ramp_propagator,
)
from .states import (
    CovarianceMatrix,
    Preparation,
    SqueezedVacuum,
    Thermal,
    matched_squeezing,
    product_state,
    restrict,
    squeezed_preparation,
    symplectic_eigenvalues,
    thermal_preparation,
)

__version__ = "0.1.0"

__all__ = [
    "CovarianceMatrix", "Preparation", "SqueezedVacuum", "Thermal",
    "matched_squeezing", "product_state", "restrict", "symplectic_eigenvalues",
    "thermal_preparation", "squeezed_preparation",
    "CouplingSide", "RampMode", "RampSchedule", "SymplecticPropagator",
    "coupling_propagator", "harmonic_propagator", "ode_propagator",
    "ramp_propagator",
    "CycleRecord", "Engine", "EngineParams", "EngineResult", "FixedCycles",
    "TimeSeries", "WorkNonNegative", "run_reduced",
    "EfficiencyResult", "efficiency", "ergotropy", "mode_energies", "mode_energy",
    "gaussian_discord", "log_negativity", "pt_smallest_eigenvalue",
    "Objective", "OptimizeOutcome", "ParameterBox", "PrepFamily", "ScanSample",
    "optimize", "random_scan",
    "Otto3Error", "PhysicalityError", "SymplecticityError", "DegenerateRampError",
    "EnergyBalanceError", "IntegrationError",
    "ConvergenceError", "ConfigError",
]
