"""The 2x2 PT-symmetric model family H = [[r e^{i theta}, s], [s, r e^{-i theta}]].

Parity is the swap matrix and time reversal is plain conjugation. The
discriminant s^2 - r^2 sin^2(theta) separates the unbroken regime
(two real simple eigenvalues) from the broken one (a conjugate pair),
with a non-diagonalizable critical boundary in between.

In the unbroken regime the eigenvector geometry is parametrized by
sin(alpha) = (r/s) sin(theta). The raw eigenstates have eta-norm
cos(alpha), so the eta-normalized basis is E = raw / sqrt(cos(alpha)),
and every quadratic quantity below carries the 1/cos(alpha) that
diverges at the critical point alpha = pi/2. The eta-norm equals
cos(theta) only when r = s, where the two angles coincide; the
cos(alpha) value is what the constructed metric reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import (
    COMPLEX_PAIR,
    REAL_JORDAN,
    REAL_SIMPLE,
    BlockDescriptor,
    CanonicalDecomposition,
    SpectralClass,
    _classify_blocks,
    _decomposition,
)
from .errors import (
    BrokenRegimeError,
    CriticalPointError,
    NumericalError,
    ValidationError,
)
from .metric import MetricOperator, build_metric
from .symmetry import PTPair, validate_pt_pair


@dataclass(frozen=True)
class BenderParams:
    r: float
    s: float
    theta: float

    def __post_init__(self):
        if not all(np.isfinite([self.r, self.s, self.theta])):
            raise ValidationError("parameters must be finite")
        if self.r < 0:
            raise ValidationError("r must be nonnegative")
        if self.r == 0 and self.s == 0:
            raise ValidationError("r and s cannot both vanish")
        if not (-np.pi < self.theta <= np.pi):
            raise ValidationError("theta must lie in (-pi, pi]")


@dataclass(frozen=True)
class BenderEigensystem:
    params: BenderParams
    alpha: float
    E_plus_raw: np.ndarray
    E_minus_raw: np.ndarray
    E_plus: np.ndarray
    E_minus: np.ndarray
    eigenvalues: tuple
    eta: MetricOperator
    decomposition: CanonicalDecomposition


@dataclass(frozen=True)
class StokesVector:
    S0: float
    S1: float
    S2: float
    S3: float


def bender_hamiltonian(p: BenderParams) -> tuple[np.ndarray, PTPair]:
    """The model Hamiltonian with its (swap, conjugation) PT pair."""
    h = np.array([
        [p.r * np.exp(1j * p.theta), p.s],
        [p.s, p.r * np.exp(-1j * p.theta)],
    ])
    pair = validate_pt_pair(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
    return h, pair


def bender_classify(p: BenderParams, tol: float = 1e-8) -> SpectralClass:
    """Closed-form classification by the discriminant s^2 - r^2 sin^2(theta).

    Within +-tol of zero the Hamiltonian is declared non-diagonalizable
    unless r sin(theta) also vanishes there, in which case it is a
    degenerate but diagonalizable (hence unbroken) point.
    """
    rs = p.r * np.sin(p.theta)
    disc = p.s ** 2 - rs ** 2
    a = p.r * np.cos(p.theta)
    tol_abs = tol * max(1.0, p.r ** 2, p.s ** 2)
    if disc > tol_abs:
        gap = float(np.sqrt(disc))
        blocks = (
            BlockDescriptor(REAL_SIMPLE, complex(a - gap), 1),
            BlockDescriptor(REAL_SIMPLE, complex(a + gap), 1),
        )
    elif disc < -tol_abs:
        blocks = (BlockDescriptor(COMPLEX_PAIR, complex(a, np.sqrt(-disc)), 1),)
    elif abs(rs) <= np.sqrt(tol_abs):
        blocks = (
            BlockDescriptor(REAL_SIMPLE, complex(a), 1),
            BlockDescriptor(REAL_SIMPLE, complex(a), 1),
        )
    else:
        blocks = (BlockDescriptor(REAL_JORDAN, complex(a), 2),)
    return _classify_blocks(blocks)


def bender_eigensystem(p: BenderParams, crit_tol: float = 1e-6) -> BenderEigensystem:
    """Closed-form eigensystem in the unbroken regime.

    alpha = arcsin(r sin(theta) / s) on the principal branch; raw
    eigenstates follow the fixed (alpha/2)-phase form, eta-normalized
    ones divide by sqrt(cos(alpha)). The metric comes from the
    canonical decomposition assembled from the normalized eigenvectors
    with signs (+1, +1).
    """
    if p.s == 0:
        raise ValidationError("eigensystem requires s != 0")
    x = p.r * np.sin(p.theta) / p.s
    if abs(x) > 1.0 + 1e-14:
        raise BrokenRegimeError(
            f"|r sin(theta)/s| = {abs(x):.6f} > 1: eigenstates leave the real-alpha form")
    alpha = float(np.arcsin(np.clip(x, -1.0, 1.0)))
    ca = np.cos(alpha)
    if ca <= crit_tol:
        raise CriticalPointError(
            f"cos(alpha) = {ca:.3e} at or below crit_tol; normalization diverges")

    ep = np.exp(1j * alpha / 2.0)
    em = np.exp(-1j * alpha / 2.0)
    e_plus_raw = np.array([ep, em]) / np.sqrt(2.0)
    e_minus_raw = np.array([1j * em, -1j * ep]) / np.sqrt(2.0)
    e_plus = e_plus_raw / np.sqrt(ca)
    e_minus = e_minus_raw / np.sqrt(ca)

    h, pair = bender_hamiltonian(p)
    lam_plus = p.r * np.cos(p.theta) + p.s * ca
    lam_minus = p.r * np.cos(p.theta) - p.s * ca
    scale = max(1.0, abs(p.r) + abs(p.s))
    for lam, vec in ((lam_plus, e_plus_raw), (lam_minus, e_minus_raw)):
        defect = float(np.linalg.norm(h @ vec - lam * vec))
        if defect > 1e-12 * scale:
            raise NumericalError(f"eigen-residual {defect:.3e} for eigenvalue {lam:.6f}")

    # canonical column order is ascending eigenvalue
    if lam_minus < lam_plus:
        cols, lams = [e_minus, e_plus], [lam_minus, lam_plus]
    else:
        cols, lams = [e_plus, e_minus], [lam_plus, lam_minus]
    blocks = (
        BlockDescriptor(REAL_SIMPLE, complex(lams[0]), 1),
        BlockDescriptor(REAL_SIMPLE, complex(lams[1]), 1),
    )
    decomp = _decomposition(h, float(np.linalg.norm(h, 2)), pair, np.column_stack(cols), blocks)
    eta = build_metric(decomp)
    return BenderEigensystem(
        params=p,
        alpha=alpha,
        E_plus_raw=e_plus_raw,
        E_minus_raw=e_minus_raw,
        E_plus=e_plus,
        E_minus=e_minus,
        eigenvalues=(float(lam_plus), float(lam_minus)),
        eta=eta,
        decomposition=decomp,
    )


def _check_alpha(alpha: float, crit_tol: float) -> float:
    if not np.isfinite(alpha):
        raise ValidationError("alpha must be finite")
    ca = float(np.cos(alpha))
    if ca <= crit_tol:
        raise CriticalPointError(
            f"cos(alpha) = {ca:.3e} at or below crit_tol; coefficients diverge")
    return ca


def expansion_coefficients(x: complex, y: complex, alpha: float,
                           crit_tol: float = 1e-6) -> tuple[complex, complex]:
    """Coefficients of (x, y) in the eta-normalized eigenbasis.

    c1 = sqrt(2 cos a) (x e^{ia/2} + y e^{-ia/2}) / (e^{ia} + e^{-ia})
    c2 = -i sqrt(2 cos a) (x e^{-ia/2} - y e^{ia/2}) / (e^{ia} + e^{-ia})
    """
    ca = _check_alpha(alpha, crit_tol)
    x = complex(x)
    y = complex(y)
    ep = np.exp(1j * alpha / 2.0)
    em = np.exp(-1j * alpha / 2.0)
    den = 2.0 * ca  # e^{i a} + e^{-i a}
    root = np.sqrt(2.0 * ca)
    c1 = root * (x * ep + y * em) / den
    c2 = -1j * root * (x * em - y * ep) / den
    return complex(c1), complex(c2)


def s0_eta(x: complex, y: complex, alpha: float, crit_tol: float = 1e-6) -> float:
    """|c1|^2 + |c2|^2 in closed form:
    (|x|^2 + |y|^2 + i (x conj(y) - y conj(x)) sin a) / cos a."""
    ca = _check_alpha(alpha, crit_tol)
    x = complex(x)
    y = complex(y)
    cross = 1j * (x * np.conj(y) - y * np.conj(x)) * np.sin(alpha)
    return float(((abs(x) ** 2 + abs(y) ** 2) + cross.real) / ca)


def stokes_vector(ex: complex, ey: complex) -> StokesVector:
    """The four quadratic field parameters.

    S3 = i (Ex conj(Ey) - Ey conj(Ex)), so that (1, i)/sqrt(2) gives
    S3 = +1. Scalar inputs always satisfy S0^2 = S1^2 + S2^2 + S3^2.
    """
    ex = complex(ex)
    ey = complex(ey)
    if not all(np.isfinite([ex.real, ex.imag, ey.real, ey.imag])):
        raise ValidationError("field components must be finite")
    s0 = abs(ex) ** 2 + abs(ey) ** 2
    s1 = abs(ex) ** 2 - abs(ey) ** 2
    s2 = (ex * np.conj(ey) + ey * np.conj(ex)).real
    s3 = (1j * (ex * np.conj(ey) - ey * np.conj(ex))).real
    return StokesVector(S0=float(s0), S1=float(s1), S2=float(s2), S3=float(s3))


@dataclass(frozen=True)
class SweepRow:
    theta: float
    classification: str
    alpha: float | None
    s0: float | None
    s0_cos_alpha: float | None
    overlap: float | None
    error: str | None


def critical_sweep(r: float, s: float, theta_grid, probe=(1.0, 0.0),
                   crit_tol: float = 1e-6, tol: float = 1e-8) -> list[SweepRow]:
    """Tabulate classification, alpha, S0, S0 cos(alpha), and the raw
    eigenvector overlap along a theta grid.

    Rows are ordered by theta. Failures are recorded in-row (error
    column) rather than raised: 'broken_regime' where alpha leaves the
    real branch, 'critical_point' where the normalization diverges.
    The overlap |<E+_raw, E-_raw>| equals |sin(alpha)| and tends to 1
    at the critical point, where the eigenvectors coalesce.
    """
    if s == 0:
        raise ValidationError("sweep requires s != 0")
    x_probe, y_probe = complex(probe[0]), complex(probe[1])
    rows = []
    for theta in sorted(float(t) for t in np.asarray(theta_grid, dtype=float)):
        p = BenderParams(r=r, s=s, theta=theta)
        cls = bender_classify(p, tol)
        if cls.unbroken:
            label = "Unbroken"
        else:
            label = cls.detail[0].kind
        ratio = r * np.sin(theta) / s
        if abs(ratio) > 1.0:
            rows.append(SweepRow(theta, label, None, None, None, None, "broken_regime"))
            continue
        alpha = float(np.arcsin(ratio))
        overlap = float(abs(np.sin(alpha)))
        ca = float(np.cos(alpha))
        if ca <= crit_tol:
            rows.append(SweepRow(theta, label, alpha, None, None, overlap,
                                 "critical_point"))
            continue
        s0 = s0_eta(x_probe, y_probe, alpha, crit_tol)
        rows.append(SweepRow(theta, label, alpha, s0, s0 * ca, overlap, None))
    return rows
