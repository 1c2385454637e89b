"""Unitary dilation of scaled unbroken evolution.

In the unbroken regime U(t) = Psi e^{-it Lambda} Psi^-1 is uniformly
bounded by ||Psi|| ||Psi^-1||, so a fixed c below the reciprocal bound
makes every c U(t) a strict contraction. A contraction extends to a
unitary on twice the dimensions via its defect operators,

    V = [[c U,            D_L],
         [D_R,     -c U^dag]],

with D_L = sqrt(I - c^2 U U^dag) and D_R = sqrt(I - c^2 U^dag U).
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
from .linalg import as_square, as_square_stack, dagger, first_index, operator_norm, psd_square_root
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
    sing = np.linalg.svd(decomp.Psi, compute_uv=False)
    return float(slack * sing[-1] / sing[0])


@dataclass(frozen=True)
class DilationResult:
    c: float
    V: np.ndarray
    unitarity_residual: float
    contraction_margin: float


def halmos_dilation(u, c: float) -> DilationResult:
    """Two-block unitary completion of the contraction c U.

    A stack of matrices, shape (..., d, d), gives a stack of V with one
    unitarity residual and one contraction margin per matrix; a failed
    contraction check then carries the stack position of the first
    failure as the error's index attribute.
    """
    u = as_square_stack(u, "U")
    if not 0 < c <= 1:
        raise ValidationError("c must lie in (0, 1]")
    d = u.shape[-1]
    eye = np.eye(d)
    gram_r = eye - c * c * (dagger(u) @ u)
    gram_l = eye - c * c * (u @ dagger(u))
    min_eig = np.linalg.eigvalsh(gram_r)[..., 0]
    bad = first_index(min_eig < -1e-10)
    if bad is not None:
        err = PreconditionError(
            f"c U is not a contraction (eigenvalue {np.ravel(min_eig)[bad]:.6e} "
            f"of I - c^2 U^dag U)")
        err.index = bad
        raise err
    d_l = psd_square_root(gram_l)
    d_r = psd_square_root(gram_r)
    v = np.block([[c * u, d_l], [d_r, -c * dagger(u)]])
    residual = operator_norm(dagger(v) @ v - np.eye(2 * d))
    if u.ndim == 2:
        min_eig = float(min_eig)
    return DilationResult(c=float(c), V=v, unitarity_residual=residual,
                          contraction_margin=min_eig)


@dataclass(frozen=True)
class EmbeddingReport:
    c: float
    times: np.ndarray
    max_deviation: float
    success_probabilities: np.ndarray
    unitarity_residuals: np.ndarray


def embedded_evolution_check(h, pair: PTPair, rho, grid: TimeGrid | None = None,
                             slack: float = DEFAULT_SLACK, *,
                             decomp: CanonicalDecomposition | None = None) -> EmbeddingReport:
    """Compare post-selected dilated evolution with the direct route.

    For each grid time the dilation V(t) acts on rho padded to twice
    the dimensions; the top block is post-selected and normalized, and
    its trace distance to U(t) rho U(t)^dag / Tr[...] is recorded. The
    success probability c^2 Tr[U rho U^dag] is reported per time.

    U(t) comes from the canonical decomposition of H (computed here
    unless decomp is given), and every check runs on the stacked grid
    at once; a failed contraction or post-selection check names the
    first t where it fails.
    """
    h = as_square(h, "H")
    rho = _matching_density(rho, h)
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
    for chunk in _grid_chunks(len(times), d):
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
        deviations[chunk] = 0.5 * np.sum(np.linalg.svd(delta, compute_uv=False), axis=-1)

    return EmbeddingReport(
        c=c,
        times=times,
        max_deviation=float(np.max(deviations)),
        success_probabilities=probs,
        unitarity_residuals=residuals,
    )
