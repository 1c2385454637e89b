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
Space, ch. I); halmos_dilation never forms the Gram matrices.
Applying V to a state supported on the first block and post-selecting
that block reproduces the normalized PT evolution with success
probability c^2 Tr[U rho U^dag].

The embedded check gates every point of a time grid on the contraction
margin 1 - sigma_max^2 of c U(t), read as the smallest eigenvalue of
I - c^2 U^dag U by the rule of the free-operation check, and builds V
once, with halmos_dilation, at the first point of smallest margin: the
defect operators are square roots of it, so that is where V loses
unitarity first. Anything computed in the frames of the SVD itself
would hold to rounding at every point whatever the SVD returned. No
joint time-independent generator on the large space is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalDecomposition
from .dynamics import (TimeGrid, _contraction_gaps, _grid_chunks, _matching_density,
                       _own_decomposition, default_grid, propagator_stack)
from .errors import (
    BrokenSymmetryError,
    DegeneratePostSelectionError,
    PreconditionError,
    ValidationError,
)
from .linalg import (_fixed_product, as_square, dagger, first_index, hermitian_root,
                     require_psd_floor)
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


def _require_contraction(margins: np.ndarray, times: np.ndarray | None = None) -> None:
    """Raise PreconditionError for the first contraction margin, the
    smallest eigenvalue of I - c^2 U^dag U, below -1e-10, naming its t
    when times are given."""
    bad = first_index(margins < -1e-10)
    if bad is not None:
        at = "" if times is None else f" at t = {float(times[bad])!r}"
        raise PreconditionError(f"c U is not a contraction (eigenvalue {margins[bad]:.6e} "
                                f"of I - c^2 U^dag U){at}")


def halmos_dilation(u, c: float) -> DilationResult:
    """Two-block unitary completion of the contraction c U.

    One SVD c U = W Sigma X^dag gives both defect operators,
    D_L = W (I - Sigma^2)^1/2 W^dag and D_R = X (I - Sigma^2)^1/2 X^dag,
    and the contraction margin 1 - sigma_max^2, the smallest eigenvalue
    of I - c^2 U^dag U (Sz.-Nagy & Foias, Harmonic Analysis of Operators
    on Hilbert Space, ch. I). A margin below -1e-10 raises
    PreconditionError; one between that and the positive semidefinite
    floor of hermitian_root raises NotPositiveSemidefiniteError.
    """
    u = as_square(u, "U")
    if not 0 < c <= 1:
        raise ValidationError("c must lie in (0, 1]")
    d = u.shape[0]
    cu = c * u
    w, sigma, xh = np.linalg.svd(cu)
    gap = 1.0 - sigma * sigma  # ascending, as sigma descends
    _require_contraction(gap[:1])
    d_l = hermitian_root(gap, w)
    d_r = hermitian_root(gap, dagger(xh))
    v = np.block([[cu, d_l], [d_r, -dagger(cu)]])
    # V^dag V - I is Hermitian, so its 2-norm is its largest |eigenvalue|
    residual = np.max(np.abs(np.linalg.eigvalsh(dagger(v) @ v - np.eye(2 * d))))
    return DilationResult(c=float(c), V=v, unitarity_residual=float(residual),
                          contraction_margin=float(gap[0]))


@dataclass(frozen=True)
class EmbeddingReport:
    """What embedded_evolution_check measured.

    c is the contraction factor. success_probabilities[k] is
    p = Tr[c U rho (c U)^dag] at times[k]. The dilation V is built once,
    at checked_time: the first grid point of smallest contraction margin,
    the smallest eigenvalue of I - c^2 U^dag U. There
    unitarity_residual is the larger of ||V^dag V - I||_2 and the
    conservation defect |Tr V (rho + 0) V^dag - Tr rho|, and max_deviation
    is the trace distance between the post-selected block of
    V (rho + 0) V^dag, over its trace, and c U rho (c U)^dag / p.
    """

    c: float
    times: np.ndarray
    max_deviation: float
    success_probabilities: np.ndarray
    unitarity_residual: float
    checked_time: float


def embedded_evolution_check(h, pair: PTPair, rho, grid: TimeGrid | None = None,
                             slack: float = DEFAULT_SLACK, *,
                             val_tol: float = 1e-10,
                             decomp: CanonicalDecomposition | None = None) -> EmbeddingReport:
    """Compare post-selected dilated evolution with the direct route.

    Every grid time is gated on the margin of c U(t), with the
    contraction gate and positive semidefinite floor of halmos_dilation,
    and gives the success probability p(t). halmos_dilation then builds
    V at the grid time of the smallest margin (module docstring), where
    EmbeddingReport's residual and deviation are measured.

    U(t) comes from the canonical decomposition of H, and the grid is
    evaluated in stacked chunks; a failed contraction or post-selection
    check names the first t where it fails. The decomposition of H is
    computed here at the default tolerances unless decomp is given,
    which must then be the decomposition of this H (ValidationError
    otherwise). val_tol bounds the validation of rho.
    """
    h = as_square(h, "H")
    rho = _matching_density(rho, h, val_tol)
    decomp = _own_decomposition(h, pair, decomp)
    c = uniform_bound(decomp, slack)
    grid = grid if grid is not None else default_grid()

    d = h.shape[0]
    times = grid.times
    probs = np.empty(len(times))
    margins = np.empty(len(times))
    for chunk in _grid_chunks(len(times), d):
        t = times[chunk]
        u = propagator_stack(decomp, t)
        gaps = _contraction_gaps(u, c, t)
        _require_contraction(gaps[:, 0], t)
        require_psd_floor(gaps)

        cu = c * u
        direct = _fixed_product(cu, rho) @ dagger(cu)
        prob = np.trace(direct, axis1=1, axis2=2).real
        low = first_index(prob < 1e-12)
        if low is not None:
            raise DegeneratePostSelectionError(
                f"success probability {prob[low]:.3e} at t = {float(t[low])!r}")
        probs[chunk] = prob
        margins[chunk] = gaps[:, 0]

    checked = int(np.argmin(margins))
    u = propagator_stack(decomp, times[checked:checked + 1])[0]
    dil = halmos_dilation(u, c)
    column = dil.V[:, :d]  # V (rho + 0) V^dag = V[:, :d] rho V[:, :d]^dag
    dilated = column @ rho @ dagger(column)
    post = dilated[:d, :d]
    cu = c * u
    delta = post / np.trace(post).real - cu @ rho @ dagger(cu) / probs[checked]
    # delta is Hermitian, so its trace norm is the sum of its |eigenvalues|
    deviation = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(delta))))
    conservation = abs(float(np.trace(dilated).real - np.trace(rho).real))
    return EmbeddingReport(
        c=c,
        times=times,
        max_deviation=deviation,
        success_probabilities=probs,
        unitarity_residual=max(dil.unitarity_residual, conservation),
        checked_time=float(times[checked]),
    )
