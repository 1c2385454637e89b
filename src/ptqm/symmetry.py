"""Parity and time-reversal pairs and the PT-symmetry test.

A time-reversal operator is stored as a plain matrix T with the
conjugation applied at call time (v maps to T conj(v)), never as a
composed dense object: antilinearity cannot be captured by a matrix
alone. The combined action is v -> (P T) conj(v).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .linalg import as_square, as_vector, operator_norm


@dataclass(frozen=True)
class PTPair:
    """A validated (parity, time-reversal) pair.

    parity satisfies P^2 = I, time_reversal satisfies T conj(T) = I,
    and the two commute in the antilinear sense P T = T conj(P). pt
    caches the product P @ T; the antilinear involution it defines is
    v -> pt conj(v). residuals records the norm of each defining
    identity's defect at validation time.
    """

    parity: np.ndarray
    time_reversal: np.ndarray
    pt: np.ndarray
    val_tol: float
    residuals: dict

    @property
    def dim(self) -> int:
        return self.parity.shape[0]


def validate_pt_pair(p, t, val_tol: float = 1e-10) -> PTPair:
    """Check the defining algebra of a (P, T) pair.

    Verified identities: P^2 = I, T conj(T) = I, P T = T conj(P), and
    (PT) conj(PT) = I. Raises a validation error naming every violated
    identity; the error carries the full residual table.
    """
    p = as_square(p, "P")
    t = as_square(t, "T")
    if p.shape != t.shape:
        raise DimensionError(f"P and T dimensions differ: {p.shape} vs {t.shape}")
    if val_tol <= 0:
        raise ValidationError("val_tol must be positive")

    eye = np.eye(p.shape[0])
    pt = p @ t
    residuals = {
        "parity_involution": operator_norm(p @ p - eye),
        "time_reversal_involution": operator_norm(t @ np.conj(t) - eye),
        "commutation": operator_norm(p @ t - t @ np.conj(p)),
        "pt_involution": operator_norm(pt @ np.conj(pt) - eye),
    }
    violated = [name for name, r in residuals.items() if r > val_tol]
    if violated:
        table = ", ".join(f"{name}: {residuals[name]:.3e}" for name in violated)
        err = ValidationError(f"PT pair identities violated ({table})")
        err.residuals = residuals
        raise err
    return PTPair(parity=p, time_reversal=t, pt=pt, val_tol=val_tol, residuals=residuals)


def apply_antilinear(pair: PTPair, v) -> np.ndarray:
    """Apply the antilinear PT operator: v -> (P T) conj(v)."""
    w = as_vector(v, "v")
    if w.shape[0] != pair.dim:
        raise DimensionError(f"vector dimension {w.shape[0]} does not match pair dimension {pair.dim}")
    return pair.pt @ np.conj(w)


def _pt_test(h, pair: PTPair, tol: float) -> tuple[np.ndarray, bool, float, float]:
    """(H, ok, residual, ||H||_2) of the PT-symmetry test of is_pt_symmetric.

    H comes back validated as a square matrix of the pair's dimension,
    with its 2-norm, so that a caller going on to decompose H needs no
    second SVD of it.
    """
    m = as_square(h, "H")
    if m.shape[0] != pair.dim:
        raise DimensionError(f"H dimension {m.shape[0]} does not match pair dimension {pair.dim}")
    residual = operator_norm(m @ pair.pt - pair.pt @ np.conj(m))
    h_norm = operator_norm(m)
    return m, residual <= tol * max(1.0, h_norm), float(residual), h_norm


def is_pt_symmetric(h, pair: PTPair, tol: float = 1e-10) -> tuple[bool, float]:
    """Test H (PT) = (PT) conj(H) and report the residual.

    Returns (ok, residual) with ok true iff the residual is within
    tol * max(1, ||H||).
    """
    _, ok, residual, _ = _pt_test(h, pair, tol)
    return ok, residual
