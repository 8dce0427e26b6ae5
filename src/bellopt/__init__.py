"""Maximum CHSH-Bell violation, explicit optimal measurement settings, and
their open-system dynamics for two-qubit X states."""

__version__ = "0.1.0"

from importlib import import_module

# Each public name and the module that defines it.  A module, and each name
# from it, loads on first use (PEP 562) and is then cached in this namespace,
# so `import bellopt` loads none of them and a command only what it uses.
_NAMES = {
    **dict.fromkeys(["DensityMatrix4", "XState", "BellSettings", "StateValidationError",
                     "NotHermitian", "TraceNotOne", "NotPositive", "NotXStructured",
                     "validate_density_matrix", "as_x_state", "x_to_dense",
                     "pauli_correlation_matrix"], "states"),
    **dict.fromkeys(["Region", "BellEigenvalues", "TSIRELSON", "bell_function",
                     "x_state_eigenvalues", "horodecki_eigenvalues", "horodecki_bmax"], "chsh"),
    **dict.fromkeys(["AngleSettings", "settings_set1", "settings_set2", "optimal_settings",
                     "settings_distance"], "angles"),
    **dict.fromkeys(["OracleConfig", "OracleResult", "BudgetExceeded", "Splitmix64",
                     "brute_force_bmax", "certify_settings"], "oracle"),
    **dict.fromkeys(["ExponentialModel", "LorentzianModel", "TabulatedModel", "QModel",
                     "EWLParams", "EventKind", "ScanEvent", "TimeScan",
                     "apply_amplitude_damping", "evolve_x", "ewl_state",
                     "trajectory_coefficients", "crossing_levels", "crossing_roots",
                     "time_scan", "scan_events"], "dynamics"),
}


def __getattr__(name):
    module = _NAMES.get(name, name if name in _NAMES.values() else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_NAMES.values(), *_NAMES})


__all__ = ["__version__", *_NAMES]
