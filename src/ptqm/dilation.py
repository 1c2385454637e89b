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
probability c^2 Tr[U rho U^dag].

The same SVD factors the dilation as V = diag(W, X) M(Sigma)
diag(X^dag, W^dag), where M(Sigma) is the direct sum of the real 2x2
blocks [[s, (1 - s^2)^1/2], [(1 - s^2)^1/2, -s]] (Halmos 1950; Paige &
Wei, Linear Algebra Appl. 208/209, 1994). V is unitary exactly when W
and X are, the post-selected block is W Sigma X^dag rho X Sigma W^dag,
and the failure branch carries Tr[(I - Sigma^2) X^dag rho X]. The
embedded check therefore works in these d-dimensional frames, one SVD
of c U(t) per time point for a whole grid at once, and builds no V;
halmos_dilation builds V explicitly. No joint time-independent
generator on the large space is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalDecomposition
from .dynamics import (TimeGrid, _grid_chunks, _matching_density, _own_decomposition,
                       default_grid, propagator_stack)
from .errors import (
    BrokenSymmetryError,
    DegeneratePostSelectionError,
    PreconditionError,
    ValidationError,
)
from .linalg import (_fixed_product, _max_last, as_square, as_square_stack, dagger,
                     first_index, hermitian_root, require_psd_floor)
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


def _contraction_gap(sigma: np.ndarray) -> np.ndarray:
    """1 - sigma^2 for singular values sigma, shape (..., d), in
    descending order, so the gap ascends and gap[..., 0] is the
    contraction margin. The first matrix of a stack whose margin lies
    below -1e-10 raises PreconditionError with its stack position as the
    error's index attribute."""
    gap = 1.0 - sigma * sigma
    margin = gap[..., 0]
    bad = first_index(margin < -1e-10)
    if bad is not None:
        err = PreconditionError(
            f"c U is not a contraction (eigenvalue {np.ravel(margin)[bad]:.6e} "
            f"of I - c^2 U^dag U)")
        err.index = bad
        raise err
    return gap


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
    gap = _contraction_gap(sigma)
    margin = gap[..., 0]
    d_l = hermitian_root(gap, w)
    d_r = hermitian_root(gap, dagger(xh))
    v = np.block([[cu, d_l], [d_r, -dagger(cu)]])
    # V^dag V - I is Hermitian, so its 2-norm is its largest |eigenvalue|
    residual = np.max(np.abs(np.linalg.eigvalsh(dagger(v) @ v - np.eye(2 * d))), axis=-1)
    if u.ndim == 2:
        margin, residual = float(margin), float(residual)
    return DilationResult(c=float(c), V=v, unitarity_residual=residual,
                          contraction_margin=margin)


def _max_trace_distance(delta: np.ndarray, best: float) -> float:
    """The larger of best and the largest 0.5 ||delta_k||_1 over a stack
    of Hermitian delta_k, each the sum of the |eigenvalues| of eigvalsh,
    which is computed only where that sum can exceed the best found.

    eigvalsh reads the real diagonal and the strict lower triangle; with
    F the Frobenius norm of the Hermitian matrix they define, its trace
    norm lies in [F, sqrt(d) F]. The point of largest F is evaluated
    first, then every point whose upper bound, widened for rounding,
    reaches the best value so far. Each value is computed as on the
    whole stack, so the maximum is the same float.
    """
    d = delta.shape[-1]
    diagonal = np.diagonal(delta, axis1=-2, axis2=-1).real
    lower = np.tril(delta, -1)
    frobenius = np.sqrt(np.sum(diagonal * diagonal, axis=-1) + 2.0 * np.sum(
        lower.real * lower.real + lower.imag * lower.imag, axis=(-2, -1)))
    # squares that underflow take at most d * 1e-153 off F
    upper = 0.5 * np.sqrt(d) * (frobenius * (1.0 + 1e-8) + d * 1e-153)

    def exact(points):
        return np.max(0.5 * np.sum(np.abs(np.linalg.eigvalsh(delta[points])), axis=-1))

    first = int(np.argmax(frobenius))
    best = max(best, float(exact([first])))
    rest = np.flatnonzero(~(upper < best))
    rest = rest[rest != first]
    return max(best, float(exact(rest))) if rest.size else best


@dataclass(frozen=True)
class EmbeddingReport:
    """What embedded_evolution_check measured on its grid.

    c is the contraction factor. success_probabilities[k] is
    p = Tr[c U rho (c U)^dag] at times[k]. max_deviation is the largest
    trace distance, over the grid, between the post-selected state the
    dilation yields, W Sigma X^dag rho X Sigma W^dag over its trace with
    c U = W Sigma X^dag, and c U rho (c U)^dag / p. unitarity_residuals[k]
    is the largest of ||W^dag W - I||_2 and ||X^dag X - I||_2, zero
    exactly when the dilation is unitary, and the conservation defect
    |p + Tr[(I - Sigma^2) X^dag rho X] - Tr rho| of the two post-selection
    branches.
    """

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

    For each grid time one SVD c U(t) = W Sigma X^dag gives the Halmos
    dilation in its d-dimensional frames (module docstring): the state
    post-selected from V(t) (rho + 0) V(t)^dag, normalized, is compared
    in trace distance with c U rho (c U)^dag normalized, the frames are
    checked for orthonormality, and the two post-selection branches for
    conservation of Tr rho; EmbeddingReport names each quantity. The
    contraction gate and the positive semidefinite floor of the gap
    1 - Sigma^2 are those of halmos_dilation.

    U(t) comes from the canonical decomposition of H, and every check
    runs on the stacked grid at once; a failed contraction or
    post-selection check names the first t where it fails. The
    decomposition of H is computed here at the default tolerances unless
    decomp is given, which must then be the decomposition of this H
    (ValidationError otherwise). val_tol bounds the validation of rho.
    """
    h = as_square(h, "H")
    rho = _matching_density(rho, h, val_tol)
    decomp = _own_decomposition(h, pair, decomp)
    c = uniform_bound(decomp, slack)
    grid = grid if grid is not None else default_grid()

    d = h.shape[0]
    times = grid.times
    mass = np.trace(rho).real
    max_deviation = 0.0
    probs = np.empty(len(times))
    residuals = np.empty(len(times))
    for chunk in _grid_chunks(len(times), d):
        t = times[chunk]
        cu = c * propagator_stack(decomp, t)
        w, sigma, xh = np.linalg.svd(cu)
        try:
            gap = _contraction_gap(sigma)
        except PreconditionError as exc:
            raise PreconditionError(f"{exc} at t = {t[exc.index]:.6f}") from exc
        require_psd_floor(gap)

        direct = _fixed_product(cu, rho) @ dagger(cu)
        prob = np.trace(direct, axis1=1, axis2=2).real
        low = first_index(prob < 1e-12)
        if low is not None:
            raise DegeneratePostSelectionError(
                f"success probability {prob[low]:.3e} at t = {t[low]:.6f}")
        probs[chunk] = prob

        inner = _fixed_product(xh, rho) @ dagger(xh)  # X^dag rho X
        ws = w * sigma[:, None, :]
        post = ws @ inner @ dagger(ws)
        post /= np.trace(post, axis1=1, axis2=2).real[:, None, None]
        # each matrix below is Hermitian, so its 2-norm is its largest
        # |eigenvalue| and its trace norm the sum of them
        max_deviation = _max_trace_distance(post - direct / prob[:, None, None], max_deviation)
        grams = np.concatenate([dagger(w) @ w, xh @ dagger(xh)]) - np.eye(d)
        frame = _max_last(np.abs(np.linalg.eigvalsh(grams))).reshape(2, -1).max(axis=0)
        fail = np.sum(gap * np.diagonal(inner, axis1=1, axis2=2).real, axis=-1)
        residuals[chunk] = np.maximum(frame, np.abs(prob + fail - mass))

    return EmbeddingReport(
        c=c,
        times=times,
        max_deviation=max_deviation,
        success_probabilities=probs,
        unitarity_residuals=residuals,
    )
