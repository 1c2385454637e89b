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
import scipy.linalg as sla

from .canonical import COMPLEX_PAIR, CanonicalDecomposition
from .errors import DimensionError, NumericalError, SingularMatrixError, ValidationError
from .linalg import as_square, as_square_stack, as_vector, dagger, first_index, operator_norm


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


def _reversal(n: int) -> np.ndarray:
    return np.fliplr(np.eye(n))


def structure_matrix(decomp: CanonicalDecomposition,
                     signs: SignCharacteristic) -> np.ndarray:
    """The exact congruence target S: reversal blocks per unit."""
    sblocks = []
    eps = iter(signs.epsilons)
    for b in decomp.blocks:
        if b.kind == COMPLEX_PAIR:
            sblocks.append(_reversal(2 * b.order))
        else:
            sblocks.append(next(eps) * _reversal(b.order))
    return sla.block_diag(*sblocks).astype(complex)


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
    n_real = sum(1 for b in decomp.blocks if b.kind != COMPLEX_PAIR)
    if signs is None:
        signs = SignCharacteristic(epsilons=(1,) * n_real)
    if len(signs.epsilons) != n_real:
        raise ValidationError(
            f"sign characteristic has {len(signs.epsilons)} entries, "
            f"decomposition has {n_real} real blocks")

    psi = decomp.Psi
    sing = np.linalg.svd(psi, compute_uv=False)
    if sing[-1] <= 1e-14 * sing[0]:
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
    try:
        half = np.linalg.solve(psi, rho)
        r = dagger(np.linalg.solve(psi, dagger(half)))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("Psi is numerically singular") from exc
    recon = psi @ r @ psi.conj().T
    defect = operator_norm(recon - rho)
    bad = first_index(defect > recon_tol * np.maximum(1.0, operator_norm(rho)))
    if bad is not None:
        raise NumericalError(f"coefficient reconstruction defect {np.ravel(defect)[bad]:.6e}")
    return r


def is_positive_definite(metric: MetricOperator) -> bool:
    """True iff the smallest eigenvalue of eta clears 1e-12 * ||eta||."""
    evals = np.linalg.eigvalsh(metric.eta)
    return bool(evals[0] > 1e-12 * float(np.max(np.abs(evals))))
