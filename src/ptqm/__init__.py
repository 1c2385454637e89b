"""Finite-dimensional PT-symmetric quantum mechanics toolkit.

Canonical forms of PT-symmetric Hamiltonians, metric operators and
indefinite inner products, evolution invariants, superposition-free
resource checks, the two-level exactly solvable family with Stokes
parameters, and unitary dilation of scaled unbroken evolution.

Importing the package loads none of its modules: each exported name
imports the module that defines it on first use (PEP 562) and is then
kept in the package namespace, so a command-line call loads only what
its subcommand runs.
"""

import importlib
import importlib.util

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "bender": ("BenderEigensystem", "BenderParams", "SweepRow", "bender_classify",
               "bender_eigensystem", "bender_hamiltonian", "critical_sweep",
               "expansion_coefficients", "s0_eta"),
    "canonical": ("BlockDescriptor", "CanonicalDecomposition", "SpectralClass",
                  "classify_spectrum", "pt_canonical_form"),
    "config": ("RunConfig", "resolve_config"),
    "dilation": ("DilationResult", "EmbeddingReport", "embedded_evolution_check",
                 "halmos_dilation", "uniform_bound"),
    "dynamics": ("InvariantReport", "TimeGrid", "default_grid", "evolve_density",
                 "invariant_report", "normalize_density", "propagator", "propagator_stack",
                 "validate_density"),
    "errors": ("COMPLEX_PAIR", "REAL_JORDAN", "REAL_SIMPLE", "BrokenRegimeError",
               "BrokenSymmetryError", "CriticalPointError", "DegeneratePostSelectionError",
               "DimensionError", "IllConditionedError", "InvalidDensityError",
               "NotPositiveSemidefiniteError", "NotPTSymmetricError", "NumericalError",
               "ParseError", "PreconditionError", "SingularMatrixError", "ValidationError"),
    "linalg": ("EigenStructure", "eigen_decompose", "matrix_exponential", "operator_norm",
               "psd_square_root"),
    "metric": ("MetricOperator", "SignCharacteristic", "basis_coefficients", "build_metric",
               "eta_inner", "eta_trace", "is_positive_definite", "structure_matrix",
               "verify_metric"),
    "superposition": ("FreeBasis", "FreeDecomposition", "FreeEvolutionReport", "free_basis",
                      "free_kraus_defect", "is_free_kraus", "is_incoherent",
                      "is_superposition_free", "verify_free_evolution"),
    "stokes": ("StokesVector", "stokes_vector"),
    "symmetry": ("PTPair", "apply_antilinear", "is_pt_symmetric", "validate_pt_pair"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """An exported name, or a submodule, imported on first use."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if "." not in name and importlib.util.find_spec(f"{__name__}.{name}") is not None:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
