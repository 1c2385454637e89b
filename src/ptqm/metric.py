"""Metric operators and the eta-inner product.

Given a canonical decomposition (Psi, J, K), the congruence
Psi^dag eta Psi = S defines a Hermitian invertible eta intertwining H
and its adjoint (H^dag eta = eta H). S is assembled exactly from 0/1
reversal blocks: one S_2n per conjugate-pair unit and one eps * S_n
per real unit, where S_n is the anti-diagonal reversal and eps = +-1
is the sign characteristic. eta then inherits error only from Psi^-1.

eta is positive definite exactly when every block is real simple and
every eps is +1, which is the unbroken case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .canonical import CanonicalDecomposition
from .errors import DimensionError, NumericalError, SingularMatrixError, ValidationError
from .linalg import (_fixed_product, _require_positive, _within_scale, as_square, as_square_stack,
                     as_vector, congruence_solve, first_index, norm_within, operator_norm)

# basis_coefficients: reconstruction gate, relative to max(1, ||rho||)
RECON_TOL = 1e-9


@dataclass(frozen=True)
class SignCharacteristic:
    """One sign (+1 or -1) per real-eigenvalue block, in block order."""

    epsilons: tuple

    def __post_init__(self):
        if any(e not in (1, -1) for e in self.epsilons):
            raise ValidationError("sign characteristic entries must be +1 or -1")


@dataclass(frozen=True)
class MetricOperator:
    """eta with its signs, its positivity, and the decomposition it was
    built from. defect, the intertwining defect ||H^dag eta - eta H||_2
    against the source Hamiltonian, is computed on first access: the
    gate of build_metric is screened (linalg.norm_within).
    """

    eta: np.ndarray
    signs: SignCharacteristic
    positive_definite: bool
    source: CanonicalDecomposition

    @cached_property
    def defect(self) -> float:
        return verify_metric(self.source.hamiltonian, self.eta)


def structure_matrix(decomp: CanonicalDecomposition,
                     signs: SignCharacteristic) -> np.ndarray:
    """The exact congruence target S: reversal blocks per unit. signs
    holds one entry per real unit."""
    layout = decomp.layout
    if len(signs.epsilons) != layout.n_real:
        raise ValidationError(
            f"sign characteristic has {len(signs.epsilons)} entries, "
            f"decomposition has {layout.n_real} real blocks")
    value = np.ones(len(layout.units))  # 1 for a pair, the next sign for a real unit
    value[np.logical_not(layout.paired)] = signs.epsilons
    unit, offset, span = layout._column_units
    cols = np.arange(decomp.dim)
    s = np.zeros((decomp.dim, decomp.dim), dtype=complex)
    s[cols, 2 * offset + span - 1 - cols] = value[unit]  # reversed within each unit
    return s


def build_metric(decomp: CanonicalDecomposition,
                 signs: SignCharacteristic | None = None,
                 met_tol: float = 1e-8) -> MetricOperator:
    """Construct eta = (Psi^-1)^dag S Psi^-1 from a decomposition.

    signs defaults to all +1. The result is re-Hermitized as
    (eta + eta^dag)/2 to strip floating-point asymmetry before the
    eigenvalue checks; the intertwining defect against the source
    Hamiltonian is verified and must stay below
    met_tol * ||eta|| * max(1, ||H||), with ||eta|| the largest
    |eigenvalue| of eta; the gate is screened (linalg.norm_within).
    """
    _require_positive(met_tol=met_tol)
    if signs is None:
        signs = SignCharacteristic(epsilons=(1,) * decomp.layout.n_real)
    s = structure_matrix(decomp, signs)
    if decomp.condition_number >= 1e14:
        raise SingularMatrixError("Psi is numerically singular")

    psi_inv = np.linalg.inv(decomp.Psi)
    eta = psi_inv.conj().T @ s @ psi_inv
    eta = 0.5 * (eta + eta.conj().T)

    evals = np.linalg.eigvalsh(eta)
    eta_norm = float(np.max(np.abs(evals)))
    if float(np.min(np.abs(evals))) <= 1e-12 * eta_norm:
        raise SingularMatrixError("metric is numerically singular")

    h = decomp.hamiltonian
    if not norm_within(_intertwining_defect(h, eta), met_tol * eta_norm * max(1.0, decomp.h_norm)):
        raise NumericalError(
            f"intertwining defect {verify_metric(h, eta):.6e} exceeds tolerance")

    positive = bool(evals[0] > 1e-12 * eta_norm)
    eta.setflags(write=False)
    return MetricOperator(eta=eta, signs=signs, positive_definite=positive, source=decomp)


def _intertwining_defect(h: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """H^dag eta - eta H."""
    return h.conj().T @ eta - eta @ h


def verify_metric(h, eta) -> float:
    """Intertwining defect ||H^dag eta - eta H||."""
    h = as_square(h, "H")
    eta = as_square(eta, "eta")
    if h.shape != eta.shape:
        raise DimensionError(f"H and eta dimensions differ: {h.shape} vs {eta.shape}")
    return operator_norm(_intertwining_defect(h, eta))


def eta_inner(phi1, phi2, eta) -> complex:
    """<phi1, eta phi2>, conjugate-linear in the first argument."""
    v1 = as_vector(phi1, "phi1")
    v2 = as_vector(phi2, "phi2")
    eta = as_square(eta, "eta")
    if v1.shape[0] != eta.shape[0] or v2.shape[0] != eta.shape[0]:
        raise DimensionError("vector dimensions do not match eta")
    return complex(np.vdot(v1, eta @ v2))


def eta_trace(rho, eta) -> complex:
    """Tr(eta rho); real whenever both arguments are Hermitian."""
    rho = as_square(rho, "rho")
    eta = as_square(eta, "eta")
    if rho.shape != eta.shape:
        raise DimensionError(f"rho and eta dimensions differ: {rho.shape} vs {eta.shape}")
    return complex(np.trace(eta @ rho))


def basis_coefficients(rho, decomp: CanonicalDecomposition) -> np.ndarray:
    """Coefficient matrix R with rho = Psi R Psi^dag.

    Computed by linear solves rather than an explicit inverse; the
    reconstruction Psi R Psi^dag is checked against rho. A stack of
    density matrices, shape (..., d, d), gives one R per matrix.

    The gate is ||Psi R Psi^dag - rho||_2 <= RECON_TOL * max(1, ||rho||_2),
    decided by the relative-scale rule of linalg._within_scale; the error
    names the exact defect of the first matrix that fails.
    """
    rho = as_square_stack(rho, "rho")
    psi = decomp.Psi
    if rho.shape[-2:] != psi.shape:
        raise DimensionError(f"rho dimension {rho.shape} does not match basis {psi.shape}")
    r = congruence_solve(psi, rho, "Psi")
    defect = _fixed_product(psi @ r, psi.conj().T) - rho
    bad = first_index(~_within_scale(defect, rho, RECON_TOL))
    if bad is not None:
        exact = operator_norm(defect.reshape(-1, *psi.shape)[bad])
        raise NumericalError(f"coefficient reconstruction defect {exact:.6e}")
    return r


def is_positive_definite(metric: MetricOperator) -> bool:
    """True iff the smallest eigenvalue of eta clears 1e-12 * ||eta||,
    as build_metric decided when it built the metric."""
    return metric.positive_definite
