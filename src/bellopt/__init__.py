"""Maximum CHSH-Bell violation, explicit optimal measurement settings, and
their open-system dynamics for two-qubit X states."""

__version__ = "0.1.0"

from importlib import import_module

from .states import (
    DensityMatrix4,
    XState,
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
)
from .chsh import (
    Region,
    BellEigenvalues,
    TSIRELSON,
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
# dynamics and oracle, and the names below, load on first use (PEP 562), so
# that `bmax` and `angles` start without them
_LAZY = dict.fromkeys(["OracleConfig", "OracleResult", "BudgetExceeded", "Splitmix64",
                       "brute_force_bmax", "certify_settings"], "oracle")
_LAZY.update(dict.fromkeys([
    "ExponentialModel", "LorentzianModel", "TabulatedModel", "QModel",
    "EWLParams", "EventKind", "ScanEvent", "TimeScan",
    "apply_amplitude_damping", "evolve_x", "ewl_state", "trajectory_coefficients",
    "crossing_levels", "crossing_roots", "time_scan", "scan_events"], "dynamics"))


def __getattr__(name):
    module = _LAZY.get(name, name if name in ("dynamics", "oracle") else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), "dynamics", "oracle", *_LAZY})


__all__ = [
    "__version__",
    "DensityMatrix4", "XState", "BellSettings",
    "StateValidationError", "NotHermitian", "TraceNotOne", "NotPositive",
    "NotXStructured", "validate_density_matrix", "as_x_state", "x_to_dense",
    "pauli_correlation_matrix",
    "Region", "BellEigenvalues", "TSIRELSON",
    "bell_function", "x_state_eigenvalues", "bmax_x",
    "horodecki_eigenvalues", "horodecki_bmax",
    "AngleSettings", "settings_set1", "settings_set2", "optimal_settings",
    "settings_distance", *_LAZY,
]
