"""Unitary dilation of scaled unbroken evolution.

In the unbroken regime U(t) = Psi e^{-it Lambda} Psi^-1 is uniformly
bounded by ||Psi|| ||Psi^-1||, so a fixed c below the reciprocal bound
makes every c U(t) a strict contraction. A contraction extends to a
unitary on twice the dimensions via its defect operators,

    V = [[c U,            D_L],
         [D_R,     -c U^dag]],

with D_L = sqrt(I - c^2 U U^dag) and D_R = sqrt(I - c^2 U^dag U).
Both come from one singular value decomposition c U = W Sigma X^dag
as W (I - Sigma^2)^1/2 W^dag and X (I - Sigma^2)^1/2 X^dag, the Halmos
completion (Sz.-Nagy & Foias, Harmonic Analysis of Operators on Hilbert
Space, ch. I); the Gram matrices I - c^2 U U^dag are never formed.
Applying V to a state supported on the first block and post-selecting
that block reproduces the normalized PT evolution with success
probability c^2 Tr[U rho U^dag]. The dilation is built for every
time point of a grid at once, as one stack of V(t); no joint
time-independent generator on the large space is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalDecomposition, pt_canonical_form
from .dynamics import TimeGrid, _grid_chunks, _matching_density, default_grid, propagator_stack
from .errors import (
    BrokenSymmetryError,
    DegeneratePostSelectionError,
    PreconditionError,
    ValidationError,
)
from .linalg import as_square, as_square_stack, dagger, first_index, hermitian_root
from .symmetry import PTPair

DEFAULT_SLACK = 0.99


def uniform_bound(decomp: CanonicalDecomposition, slack: float = DEFAULT_SLACK) -> float:
    """c = slack / (||Psi|| ||Psi^-1||), valid for all real t.

    Requires an unbroken decomposition: with complex eigenvalues or a
    Jordan block the propagator norm is unbounded in t and no uniform
    c exists.
    """
    if not decomp.spectral_class.unbroken:
        raise BrokenSymmetryError("uniform bound requires an unbroken Hamiltonian")
    if not 0 < slack < 1:
        raise ValidationError("slack must lie in (0, 1)")
    return float(slack / decomp.condition_number)


@dataclass(frozen=True)
class DilationResult:
    c: float
    V: np.ndarray
    unitarity_residual: float
    contraction_margin: float


def halmos_dilation(u, c: float) -> DilationResult:
    """Two-block unitary completion of the contraction c U.

    One SVD c U = W Sigma X^dag gives both defect operators,
    D_L = W (I - Sigma^2)^1/2 W^dag and D_R = X (I - Sigma^2)^1/2 X^dag,
    and the contraction margin 1 - sigma_max^2, the smallest eigenvalue
    of I - c^2 U^dag U (Sz.-Nagy & Foias, Harmonic Analysis of Operators
    on Hilbert Space, ch. I). A margin below -1e-10 raises
    PreconditionError; one between that and the positive semidefinite
    floor of hermitian_root raises NotPositiveSemidefiniteError.

    A stack of matrices, shape (..., d, d), gives a stack of V with one
    unitarity residual and one contraction margin per matrix; a failed
    contraction check then carries the stack position of the first
    failure as the error's index attribute.
    """
    u = as_square_stack(u, "U")
    if not 0 < c <= 1:
        raise ValidationError("c must lie in (0, 1]")
    d = u.shape[-1]
    cu = c * u
    w, sigma, xh = np.linalg.svd(cu)
    # numpy returns sigma in descending order, so gap ascends: gap[..., 0] = 1 - sigma_max^2
    gap = 1.0 - sigma * sigma
    margin = gap[..., 0]
    bad = first_index(margin < -1e-10)
    if bad is not None:
        err = PreconditionError(
            f"c U is not a contraction (eigenvalue {np.ravel(margin)[bad]:.6e} "
            f"of I - c^2 U^dag U)")
        err.index = bad
        raise err
    d_l = hermitian_root(gap, w)
    d_r = hermitian_root(gap, dagger(xh))
    v = np.block([[cu, d_l], [d_r, -dagger(cu)]])
    # V^dag V - I is Hermitian, so its 2-norm is its largest |eigenvalue|
    residual = np.max(np.abs(np.linalg.eigvalsh(dagger(v) @ v - np.eye(2 * d))), axis=-1)
    if u.ndim == 2:
        margin, residual = float(margin), float(residual)
    return DilationResult(c=float(c), V=v, unitarity_residual=residual,
                          contraction_margin=margin)


@dataclass(frozen=True)
class EmbeddingReport:
    c: float
    times: np.ndarray
    max_deviation: float
    success_probabilities: np.ndarray
    unitarity_residuals: np.ndarray


def embedded_evolution_check(h, pair: PTPair, rho, grid: TimeGrid | None = None,
                             slack: float = DEFAULT_SLACK, *,
                             val_tol: float = 1e-10,
                             decomp: CanonicalDecomposition | None = None) -> EmbeddingReport:
    """Compare post-selected dilated evolution with the direct route.

    For each grid time the dilation V(t) acts on rho padded to twice
    the dimensions; the top block is post-selected and normalized, and
    its trace distance to U(t) rho U(t)^dag / Tr[...] is recorded. The
    success probability c^2 Tr[U rho U^dag] is reported per time.

    U(t) comes from the canonical decomposition of H (computed here
    unless decomp is given), and every check runs on the stacked grid
    at once; a failed contraction or post-selection check names the
    first t where it fails. val_tol bounds the validation of rho.
    """
    h = as_square(h, "H")
    rho = _matching_density(rho, h, val_tol)
    if decomp is None:
        decomp = pt_canonical_form(h, pair)
    c = uniform_bound(decomp, slack)
    grid = grid if grid is not None else default_grid()

    d = h.shape[0]
    times = grid.times
    deviations = np.empty(len(times))
    probs = np.empty(len(times))
    residuals = np.empty(len(times))
    big = np.zeros((2 * d, 2 * d), dtype=complex)
    big[:d, :d] = rho
    for chunk in _grid_chunks(len(times), 2 * d):
        t = times[chunk]
        u = propagator_stack(decomp, t)
        try:
            dil = halmos_dilation(u, c)
        except PreconditionError as exc:
            raise PreconditionError(f"{exc} at t = {t[exc.index]:.6f}") from exc
        residuals[chunk] = dil.unitarity_residual

        top = (dil.V @ big @ dagger(dil.V))[:, :d, :d]
        prob = np.trace(top, axis1=1, axis2=2).real
        low = first_index(prob < 1e-12)
        if low is not None:
            raise DegeneratePostSelectionError(
                f"success probability {prob[low]:.3e} at t = {t[low]:.6f}")
        probs[chunk] = prob

        direct = u @ rho @ dagger(u)
        direct = direct / np.trace(direct, axis1=1, axis2=2).real[:, None, None]
        delta = top / prob[:, None, None] - direct
        # the trace norm of the Hermitian delta is the sum of its |eigenvalues|
        deviations[chunk] = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(delta)), axis=-1)

    return EmbeddingReport(
        c=c,
        times=times,
        max_deviation=float(np.max(deviations)),
        success_probabilities=probs,
        unitarity_residuals=residuals,
    )
