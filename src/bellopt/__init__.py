"""Maximum CHSH-Bell violation, explicit optimal measurement settings, and
their open-system dynamics for two-qubit X states."""

__version__ = "0.1.0"

from .states import (
    DensityMatrix4,
    XState,
    ObservableDirection,
    BellSettings,
    StateValidationError,
    NotHermitian,
    TraceNotOne,
    NotPositive,
    NotXStructured,
    validate_density_matrix,
    as_x_state,
    x_to_dense,
    pauli_correlation_matrix,
    normalize_direction,
)
from .chsh import (
    Region,
    BellEigenvalues,
    TSIRELSON,
    correlation,
    bell_function,
    x_state_eigenvalues,
    bmax_x,
    horodecki_eigenvalues,
    horodecki_bmax,
)
from .angles import (
    AngleSettings,
    settings_set1,
    settings_set2,
    optimal_settings,
    settings_distance,
)
from .oracle import (
    OracleConfig,
    OracleResult,
    BudgetExceeded,
    Splitmix64,
    brute_force_bmax,
    certify_settings,
)
from .dynamics import (
    ExponentialModel,
    LorentzianModel,
    TabulatedModel,
    QModel,
    EWLParams,
    EventKind,
    ScanEvent,
    TimeScan,
    apply_amplitude_damping,
    evolve_x,
    ewl_state,
    trajectory_coefficients,
    crossing_levels,
    crossing_roots,
    time_scan,
    scan_events,
)

__all__ = [
    "__version__",
    "DensityMatrix4", "XState", "ObservableDirection", "BellSettings",
    "StateValidationError", "NotHermitian", "TraceNotOne", "NotPositive",
    "NotXStructured", "validate_density_matrix", "as_x_state", "x_to_dense",
    "pauli_correlation_matrix", "normalize_direction",
    "Region", "BellEigenvalues", "TSIRELSON",
    "correlation", "bell_function", "x_state_eigenvalues", "bmax_x",
    "horodecki_eigenvalues", "horodecki_bmax",
    "AngleSettings", "settings_set1", "settings_set2", "optimal_settings",
    "settings_distance",
    "OracleConfig", "OracleResult", "BudgetExceeded", "Splitmix64",
    "brute_force_bmax", "certify_settings",
    "ExponentialModel", "LorentzianModel", "TabulatedModel", "QModel",
    "EWLParams", "EventKind", "ScanEvent", "TimeScan",
    "apply_amplitude_damping", "evolve_x", "ewl_state", "trajectory_coefficients",
    "crossing_levels", "crossing_roots", "time_scan", "scan_events",
]
