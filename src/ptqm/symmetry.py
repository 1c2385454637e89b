"""Parity and time-reversal pairs and the PT-symmetry test.

A time-reversal operator is stored as a plain matrix T with the
conjugation applied at call time (v maps to T conj(v)), never as a
composed dense object: antilinearity cannot be captured by a matrix
alone. The combined action is v -> (P T) conj(v).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, ValidationError
from .linalg import (_EPS, _require_positive, _screened, as_square, as_vector, norm_within,
                     operator_norm)


_IDENTITIES = ("parity_involution", "time_reversal_involution", "commutation", "pt_involution")


def _defects(p: np.ndarray, t: np.ndarray, pt: np.ndarray) -> np.ndarray:
    """The defects of the four identities, in the order of _IDENTITIES."""
    eye = np.eye(p.shape[0])
    defects = np.empty((4,) + p.shape, dtype=pt.dtype)
    np.subtract(p @ p, eye, out=defects[0])
    np.subtract(t @ np.conj(t), eye, out=defects[1])
    np.subtract(pt, t @ np.conj(p), out=defects[2])
    np.subtract(pt @ np.conj(pt), eye, out=defects[3])
    return defects


def _cleared_in_real(p: np.ndarray, t: np.ndarray, pt: np.ndarray, val_tol: float) -> bool:
    """Whether the Frobenius screen of linalg.norm_within clears the four
    defects of a pair with no imaginary part, computed from the real parts.

    Each defect holds one product X Y of two of P, T and PT, whose real
    and complex evaluations both lie within gamma_2n |X| |Y| of the exact
    one (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    sec. 3.5): so a real and a complex defect differ by at most about
    2 n eps s^2 in 2-norm, s the largest Frobenius norm of P, T and PT.
    The real screen runs only where 10 n eps s^2 <= val_tol. A defect it
    clears, ||D||_F <= val_tol / 2, then has a complex counterpart of
    2-norm at most about val_tol / 2 + val_tol / 5, so the complex gate
    accepts every pair this one does.
    """
    real = np.array([p.real, t.real, pt.real])
    room = 10 * p.shape[0] * _EPS * max(np.vdot(m, m) for m in real)
    return room <= val_tol and bool(_screened(_defects(*real), np.asarray(val_tol)).all())


def _residuals(defects: np.ndarray) -> dict:
    """The 2-norm of each defect, by identity."""
    return dict(zip(_IDENTITIES, operator_norm(defects).tolist()))


@dataclass(frozen=True)
class PTPair:
    """A validated (parity, time-reversal) pair.

    parity satisfies P^2 = I, time_reversal satisfies T conj(T) = I,
    and the two commute in the antilinear sense P T = T conj(P). pt
    caches the product P @ T; the antilinear involution it defines is
    v -> pt conj(v). residuals is the 2-norm of each defining identity's
    defect, computed on first access.
    """

    parity: np.ndarray
    time_reversal: np.ndarray
    pt: np.ndarray
    val_tol: float

    @property
    def dim(self) -> int:
        return self.parity.shape[0]

    @cached_property
    def residuals(self) -> dict:
        return _residuals(_defects(self.parity, self.time_reversal, self.pt))


def validate_pt_pair(p, t, val_tol: float = 1e-10) -> PTPair:
    """Check the defining algebra of a (P, T) pair.

    Verified identities: P^2 = I, T conj(T) = I, P T = T conj(P), and
    (PT) conj(PT) = I. Raises a validation error naming every violated
    identity; the error carries the full residual table.

    The gate is ||D||_2 <= val_tol for every defect D. When P and T have
    no imaginary part, the defects are first computed in real arithmetic
    and held to the Frobenius screen of linalg.norm_within, with room for
    the rounding by which they can differ from the complex ones
    (_cleared_in_real); a pair that screen clears is accepted. Any other
    pair falls back to the complex defects, decided by norm_within,
    whose exact 2-norms are taken only when some defect fails its
    Frobenius screen, and the error is worded from those exact norms.
    So the decision, the message and the residuals are those of the
    complex gate, and pt is the complex product P @ T either way.
    """
    p = as_square(p, "P")
    t = as_square(t, "T")
    if p.shape != t.shape:
        raise DimensionError(f"P and T dimensions differ: {p.shape} vs {t.shape}")
    _require_positive(val_tol=val_tol)

    pt = p @ t
    for a in (p, t, pt):
        a.setflags(write=False)
    if not (p.imag.any() or t.imag.any()) and _cleared_in_real(p, t, pt, val_tol):
        return PTPair(parity=p, time_reversal=t, pt=pt, val_tol=val_tol)
    defects = _defects(p, t, pt)
    ok = norm_within(defects, val_tol)
    if not ok.all():
        residuals = _residuals(defects)
        table = ", ".join(f"{name}: {residuals[name]:.3e}"
                          for name, good in zip(_IDENTITIES, ok) if not good)
        err = ValidationError(f"PT pair identities violated ({table})")
        err.residuals = residuals
        raise err
    return PTPair(parity=p, time_reversal=t, pt=pt, val_tol=val_tol)


def apply_antilinear(pair: PTPair, v) -> np.ndarray:
    """Apply the antilinear PT operator: v -> (P T) conj(v)."""
    w = as_vector(v, "v")
    if w.shape[0] != pair.dim:
        raise DimensionError(f"vector dimension {w.shape[0]} does not match pair dimension {pair.dim}")
    return pair.pt @ np.conj(w)


def _pt_defect(h: np.ndarray, pt: np.ndarray) -> np.ndarray:
    """H PT - PT conj(H), whose 2-norm is the PT residual of H."""
    return h @ pt - pt @ np.conj(h)


def _pt_test(h, pair: PTPair, tol: float) -> tuple[np.ndarray, bool, float]:
    """(H, ok, ||H||_2) of the PT-symmetry test of is_pt_symmetric.

    H comes back validated as a square matrix of the pair's dimension,
    with its 2-norm, so that a caller going on to decompose H needs no
    second SVD of it. The residual gate is screened (linalg.norm_within);
    a caller that reports the residual takes its exact 2-norm.
    """
    _require_positive(tol=tol)
    m = as_square(h, "H")
    if m.shape[0] != pair.dim:
        raise DimensionError(f"H dimension {m.shape[0]} does not match pair dimension {pair.dim}")
    h_norm = float(np.linalg.svd(m, compute_uv=False)[0])
    return m, norm_within(_pt_defect(m, pair.pt), tol * max(1.0, h_norm)), h_norm


def is_pt_symmetric(h, pair: PTPair, tol: float = 1e-10) -> tuple[bool, float]:
    """Test H (PT) = (PT) conj(H) and report the residual.

    Returns (ok, residual) with ok true iff the residual, the exact
    2-norm ||H PT - PT conj(H)||_2, is within tol * max(1, ||H||_2).
    """
    m, ok, _ = _pt_test(h, pair, tol)
    return ok, operator_norm(_pt_defect(m, pair.pt))
