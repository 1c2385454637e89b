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

import numpy as np

from .canonical import CanonicalDecomposition
from .errors import DimensionError, NumericalError, SingularMatrixError, ValidationError
from .linalg import (as_square, as_square_stack, as_vector, congruence_solve, first_index,
                     operator_norm)


@dataclass(frozen=True)
class SignCharacteristic:
    """One sign (+1 or -1) per real-eigenvalue block, in block order."""

    epsilons: tuple

    def __post_init__(self):
        if any(e not in (1, -1) for e in self.epsilons):
            raise ValidationError("sign characteristic entries must be +1 or -1")


@dataclass(frozen=True)
class MetricOperator:
    eta: np.ndarray
    signs: SignCharacteristic
    positive_definite: bool
    source: CanonicalDecomposition


def structure_matrix(decomp: CanonicalDecomposition,
                     signs: SignCharacteristic) -> np.ndarray:
    """The exact congruence target S: reversal blocks per unit."""
    layout = decomp.layout
    s = np.zeros((decomp.dim, decomp.dim), dtype=complex)
    eps = iter(signs.epsilons)
    for (offset, span), paired in zip(layout.units, layout.paired):
        cols = np.arange(offset, offset + span)
        s[cols, cols[::-1]] = 1 if paired else next(eps)
    return s


def build_metric(decomp: CanonicalDecomposition,
                 signs: SignCharacteristic | None = None,
                 met_tol: float = 1e-8) -> MetricOperator:
    """Construct eta = (Psi^-1)^dag S Psi^-1 from a decomposition.

    signs defaults to all +1. The result is re-Hermitized as
    (eta + eta^dag)/2 to strip floating-point asymmetry before the
    eigenvalue checks; the intertwining defect against the source
    Hamiltonian is verified and must stay below
    met_tol * ||eta|| * max(1, ||H||).
    """
    n_real = decomp.layout.n_real
    if signs is None:
        signs = SignCharacteristic(epsilons=(1,) * n_real)
    if len(signs.epsilons) != n_real:
        raise ValidationError(
            f"sign characteristic has {len(signs.epsilons)} entries, "
            f"decomposition has {n_real} real blocks")

    psi = decomp.Psi
    if decomp.condition_number >= 1e14:
        raise SingularMatrixError("Psi is numerically singular")

    s = structure_matrix(decomp, signs)
    psi_inv = np.linalg.inv(psi)
    eta = psi_inv.conj().T @ s @ psi_inv
    eta = 0.5 * (eta + eta.conj().T)

    evals = np.linalg.eigvalsh(eta)
    eta_norm = float(np.max(np.abs(evals)))
    if float(np.min(np.abs(evals))) <= 1e-12 * eta_norm:
        raise SingularMatrixError("metric is numerically singular")

    h = decomp.hamiltonian
    defect = verify_metric(h, eta)
    if defect > met_tol * eta_norm * max(1.0, decomp.h_norm):
        raise NumericalError(
            f"intertwining defect {defect:.6e} exceeds tolerance")

    positive = bool(evals[0] > 1e-12 * eta_norm)
    return MetricOperator(eta=eta, signs=signs, positive_definite=positive,
                          source=decomp)


def verify_metric(h, eta) -> float:
    """Intertwining defect ||H^dag eta - eta H||."""
    h = as_square(h, "H")
    eta = as_square(eta, "eta")
    if h.shape != eta.shape:
        raise DimensionError(f"H and eta dimensions differ: {h.shape} vs {eta.shape}")
    return operator_norm(h.conj().T @ eta - eta @ h)


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


def basis_coefficients(rho, decomp: CanonicalDecomposition,
                       recon_tol: float = 1e-9) -> np.ndarray:
    """Coefficient matrix R with rho = Psi R Psi^dag.

    Computed by linear solves rather than an explicit inverse; the
    reconstruction Psi R Psi^dag is checked against rho. A stack of
    density matrices, shape (..., d, d), gives one R per matrix.
    """
    rho = as_square_stack(rho, "rho")
    psi = decomp.Psi
    if rho.shape[-2:] != psi.shape:
        raise DimensionError(f"rho dimension {rho.shape} does not match basis {psi.shape}")
    r = congruence_solve(psi, rho, "Psi")
    recon = psi @ r @ psi.conj().T
    defect = operator_norm(recon - rho)
    bad = first_index(defect > recon_tol * np.maximum(1.0, operator_norm(rho)))
    if bad is not None:
        raise NumericalError(f"coefficient reconstruction defect {np.ravel(defect)[bad]:.6e}")
    return r


def is_positive_definite(metric: MetricOperator) -> bool:
    """True iff the smallest eigenvalue of eta clears 1e-12 * ||eta||,
    as build_metric decided when it built the metric."""
    return metric.positive_definite
