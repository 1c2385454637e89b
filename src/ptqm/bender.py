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

The discriminant, alpha and S0 formulas are elementwise helpers: the
scalar functions evaluate them at one point, critical_sweep on a grid.

Each function imports the decomposition modules (canonical, metric,
symmetry) where it calls them, so that critical_sweep, which reads only
the block tags and the tolerance check of ptqm.errors, loads none. The
Stokes parameters of a field are ptqm.stokes, which needs no
numpy.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (COMPLEX_PAIR, REAL_JORDAN, REAL_SIMPLE, BrokenRegimeError, CriticalPointError,
                     NumericalError, ValidationError, _require_positive)

if TYPE_CHECKING:
    from .canonical import CanonicalDecomposition, SpectralClass
    from .metric import MetricOperator
    from .symmetry import PTPair


@contextmanager
def _float_range(what: str):
    """Raise NumericalError where a closed form leaves the float range: Python
    float powers raise OverflowError there, numpy FloatingPointError here."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (OverflowError, FloatingPointError) as exc:
        raise NumericalError(f"{what} out of the floating-point range") from exc


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


def bender_hamiltonian(p: BenderParams) -> tuple[np.ndarray, PTPair]:
    """The model Hamiltonian with its (swap, conjugation) PT pair."""
    from .symmetry import validate_pt_pair

    h = np.array([[p.r * np.exp(1j * p.theta), p.s], [p.s, p.r * np.exp(-1j * p.theta)]])
    pair = validate_pt_pair(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
    return h, pair


def _discriminant(r, s, theta):
    """r sin(theta) and s^2 - (r sin(theta))^2, elementwise; float_power squares
    as a scalar ** does (array ** 2 multiplies, at times a last bit apart)."""
    rs = r * np.sin(theta)
    return rs, s ** 2 - np.float_power(rs, 2)


def _check_tol(tol) -> None:
    if not tol >= 0:
        raise ValidationError(f"tol must be >= 0, got {float(tol)!r}")


def _regime(r, s, rs, disc, tol):
    """0 above the band tol * max(1, r^2, s^2) (two real eigenvalues),
    1 below it (a conjugate pair); inside it 2 where |r sin(theta)| is
    within the band's root (degenerate but diagonalizable), else 3."""
    band = tol * max(1.0, r ** 2, s ** 2)
    inside = abs(rs) <= np.sqrt(band)
    return np.select([disc > band, disc < -band, inside], [0, 1, 2], 3)


def bender_classify(p: BenderParams, tol: float = 1e-8) -> SpectralClass:
    """Closed-form classification by the discriminant s^2 - r^2 sin^2(theta).

    Within +-tol of zero the Hamiltonian is declared non-diagonalizable
    unless r sin(theta) also vanishes there, in which case it is a
    degenerate but diagonalizable (hence unbroken) point. tol must be
    nonnegative.
    """
    from .canonical import BlockDescriptor, _classify_blocks

    _check_tol(tol)
    with _float_range("the discriminant"):
        rs, disc = _discriminant(p.r, p.s, p.theta)
        a = p.r * np.cos(p.theta)
        regime = _regime(p.r, p.s, rs, disc, tol)
    if regime == 1:
        blocks = (BlockDescriptor(COMPLEX_PAIR, complex(a, np.sqrt(-disc)), 1),)
    elif regime == 3:
        blocks = (BlockDescriptor(REAL_JORDAN, complex(a), 2),)
    else:  # two real eigenvalues, equal at a degenerate point
        lams = (a, a) if regime == 2 else (a - np.sqrt(disc), a + np.sqrt(disc))
        blocks = tuple(BlockDescriptor(REAL_SIMPLE, complex(lam), 1) for lam in lams)
    return _classify_blocks(blocks)


def _alpha_branch(r, s, theta):
    """x = r sin(theta) / s, whether |x| passes 1 by more than rounding
    at the critical point (the broken regime), and alpha = arcsin(x)
    with x clipped onto the branch; elementwise. A ratio past the float
    range is infinite, and so broken, in every numpy error state."""
    with np.errstate(over="ignore"):
        x = r * np.sin(theta) / s
    return x, abs(x) > 1.0 + 1e-14, np.arcsin(np.clip(x, -1.0, 1.0))


def _alpha(p: BenderParams) -> float:
    """arcsin(r sin(theta) / s) for s != 0."""
    x, broken, alpha = _alpha_branch(p.r, p.s, p.theta)
    if broken:
        raise BrokenRegimeError(
            f"|r sin(theta)/s| = {abs(x):.6f} > 1: eigenstates leave the real-alpha form")
    return float(alpha)


def bender_eigensystem(p: BenderParams, crit_tol: float = 1e-6) -> BenderEigensystem:
    """Closed-form eigensystem in the unbroken regime.

    alpha = arcsin(r sin(theta) / s) on the principal branch; raw
    eigenstates follow the fixed (alpha/2)-phase form, eta-normalized
    ones divide by sqrt(cos(alpha)). The metric comes from the
    canonical decomposition assembled from the normalized eigenvectors
    with signs (+1, +1).
    """
    from .canonical import BlockDescriptor, CanonicalDecomposition
    from .metric import build_metric

    if p.s == 0:
        raise ValidationError("eigensystem requires s != 0")
    _require_positive(crit_tol=crit_tol)
    alpha = _alpha(p)
    ca = np.cos(alpha)
    if ca <= crit_tol:
        raise CriticalPointError(
            f"cos(alpha) = {ca:.3e} at or below crit_tol; normalization diverges")

    ep, em = np.exp(1j * alpha / 2.0), np.exp(-1j * alpha / 2.0)
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
    blocks = tuple(BlockDescriptor(REAL_SIMPLE, complex(lam), 1) for lam in lams)
    decomp = CanonicalDecomposition(h, float(np.linalg.norm(h, 2)), pair.pt, np.column_stack(cols),
                                    blocks)
    return BenderEigensystem(params=p, alpha=alpha, E_plus_raw=e_plus_raw,
                             E_minus_raw=e_minus_raw, E_plus=e_plus, E_minus=e_minus,
                             eigenvalues=(float(lam_plus), float(lam_minus)),
                             eta=build_metric(decomp), decomposition=decomp)


def _check_alpha(alpha: float, crit_tol: float) -> float:
    if not np.isfinite(alpha):
        raise ValidationError("alpha must be finite")
    _require_positive(crit_tol=crit_tol)
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
    x, y = complex(x), complex(y)
    ep = np.exp(1j * alpha / 2.0)
    em = np.exp(-1j * alpha / 2.0)
    den = 2.0 * ca  # e^{i a} + e^{-i a}
    root = np.sqrt(2.0 * ca)
    c1 = root * (x * ep + y * em) / den
    c2 = -1j * root * (x * em - y * ep) / den
    return complex(c1), complex(c2)


def _s0(x: complex, y: complex, alpha, ca):
    """(|x|^2 + |y|^2 + i (x conj(y) - y conj(x)) sin a) / cos a, elementwise
    over alpha and its cosine ca."""
    with _float_range("S0"):
        cross = 1j * (x * np.conj(y) - y * np.conj(x)) * np.sin(alpha)
        # numpy, not Python floats, so that an overflowing sum or quotient raises
        return (np.add(abs(x) ** 2, abs(y) ** 2) + cross.real) / ca


def s0_eta(x: complex, y: complex, alpha: float, crit_tol: float = 1e-6) -> float:
    """|c1|^2 + |c2|^2 of (x, y), in the closed form of _s0."""
    ca = _check_alpha(alpha, crit_tol)
    return float(_s0(complex(x), complex(y), alpha, ca))


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
    column) as the kind of bender_eigensystem's error: 'broken_regime'
    where alpha leaves the real branch, 'critical_point' where the
    normalization diverges.
    The overlap |<E+_raw, E-_raw>| equals |sin(alpha)| and tends to 1
    at the critical point, where the eigenvectors coalesce.
    The grid is evaluated as arrays. An invalid theta or an overflow
    raises what the first row meeting one raises on its own. tol must be
    nonnegative, as for bender_classify.
    """
    if s == 0:
        raise ValidationError("sweep requires s != 0")
    _require_positive(crit_tol=crit_tol)
    _check_tol(tol)
    x_probe, y_probe = complex(probe[0]), complex(probe[1])
    grid = np.asarray(theta_grid, dtype=float)
    if grid.ndim != 1:
        raise ValidationError("theta grid must be one-dimensional")
    thetas = sorted(grid.tolist())  # Python's stable order, NaN and -0.0 included
    if not thetas:
        return []
    BenderParams(r=r, s=s, theta=thetas[0])  # r and s are checked at the first row
    theta = np.array(thetas)
    with _float_range("the discriminant"):  # where r^2 or s^2, which bound every row's, overflow
        with np.errstate(over="ignore", invalid="ignore"):  # failing rows are found below
            rs, disc = _discriminant(r, s, theta)
            _, broken, alpha = _alpha_branch(r, s, theta)
            ca, overlap = np.cos(alpha), abs(np.sin(alpha))
        regime = _regime(r, s, rs, disc, tol).tolist()
    reached = ~broken & ~(ca <= crit_tol)
    s0 = np.zeros_like(theta)
    valid = (-np.pi < theta) & (theta <= np.pi)
    stop = theta.size if valid.all() else int(np.argmin(valid))
    run = np.flatnonzero(reached[:stop])  # S0 up to the first invalid theta,
    if run.size:
        s0[run] = _s0(x_probe, y_probe, alpha[run], ca[run])
    if stop < theta.size:  # which then raises as on its own
        BenderParams(r=r, s=s, theta=thetas[stop])
    labels = ("Unbroken", COMPLEX_PAIR, "Unbroken", REAL_JORDAN)  # by regime
    return [SweepRow(t, labels[k], None, None, None, None, BrokenRegimeError.kind) if b
            else SweepRow(t, labels[k], a, v, v * c, o, None) if ok
            else SweepRow(t, labels[k], a, None, None, o, CriticalPointError.kind)
            for t, k, b, ok, a, o, v, c in zip(thetas, regime, *(
                col.tolist() for col in (broken, reached, alpha, overlap, s0, ca)))]
