"""Superposition and coherence resource checks.

The free states of a fixed basis {c_i} (normalized, linearly
independent, not necessarily orthogonal) are the convex mixtures
rho = sum_i p_i |c_i><c_i|. Because the basis is a full linearly
independent set, the coefficient matrix R = C^-1 rho (C^-1)^dag is
unique, so freeness is exactly "R is diagonal with nonnegative
diagonal": no feasibility search is needed.

Incoherent states are the special case of an orthonormal basis. A
Kraus operator is free when it maps every basis ray onto a basis ray
(or annihilates it); checking the generators suffices because free
states are their convex hull.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalDecomposition, pt_canonical_form
from .dynamics import (TimeGrid, _grid_chunks, _require_finite, default_grid, propagator_stack,
                       validate_density)
from .errors import (
    BrokenSymmetryError,
    DimensionError,
    PreconditionError,
    ValidationError,
)
from .linalg import as_square, as_square_stack, as_vector, congruence_solve, dagger, operator_norm
from .symmetry import PTPair

# free_basis: smallest singular value of an independent unit-vector basis
LIN_TOL = 1e-10


@dataclass(frozen=True)
class FreeBasis:
    """d normalized, linearly independent vectors in dimension d."""

    vectors: tuple

    @property
    def dim(self) -> int:
        return self.vectors[0].shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return np.column_stack(self.vectors)


def free_basis(vectors) -> FreeBasis:
    """Validate and normalize a candidate basis.

    The assembled column matrix must have smallest singular value above
    LIN_TOL; vectors are rescaled to unit Euclidean norm.
    """
    vecs = [as_vector(v, f"basis vector {i}") for i, v in enumerate(vectors)]
    d = vecs[0].shape[0]
    if any(v.shape[0] != d for v in vecs):
        raise DimensionError("basis vectors have mixed dimensions")
    if len(vecs) != d:
        raise ValidationError(f"need {d} basis vectors for dimension {d}, got {len(vecs)}")
    vecs = [v / np.linalg.norm(v) for v in vecs]
    c = np.column_stack(vecs)
    smin = float(np.linalg.svd(c, compute_uv=False)[-1])
    if smin <= LIN_TOL:
        raise ValidationError(
            f"basis is linearly dependent (smallest singular value {smin:.3e})")
    return FreeBasis(vectors=tuple(vecs))


@dataclass(frozen=True)
class FreeDecomposition:
    """Weights of the diagonal part of R and the off-diagonal defect."""

    weights: tuple
    residual: float


def is_superposition_free(rho, basis: FreeBasis,
                          tol: float = 1e-9) -> tuple[bool, FreeDecomposition]:
    """Test rho = sum_i p_i |c_i><c_i| via the dual-frame coefficients.

    Free iff every off-diagonal of R is within tol and every diagonal
    is above -tol; the diagonals are returned as the weights.
    """
    rho = validate_density(rho)
    if rho.shape[0] != basis.dim:
        raise DimensionError("rho dimension does not match the basis")
    r = congruence_solve(basis.matrix, rho, "basis matrix")
    off = r - np.diag(np.diag(r))
    residual = float(np.max(np.abs(off))) if off.size else 0.0
    weights = np.real(np.diag(r))
    ok = residual <= tol and bool(np.min(weights) >= -tol)
    return ok, FreeDecomposition(weights=tuple(float(w) for w in weights),
                                 residual=residual)


def is_incoherent(rho, orthobasis: FreeBasis,
                  tol: float = 1e-9) -> tuple[bool, FreeDecomposition]:
    """Superposition-freeness against an orthonormal basis."""
    c = orthobasis.matrix
    defect = operator_norm(c.conj().T @ c - np.eye(orthobasis.dim))
    if defect > max(tol, 1e-10):
        raise PreconditionError(
            f"basis is not orthonormal (defect {defect:.3e})")
    return is_superposition_free(rho, orthobasis, tol)


def free_kraus_defect(k, basis: FreeBasis, tol: float = 1e-8):
    """Worst-case parallelism defect of K over the basis rays.

    For every basis vector with ||K c_i|| > tol the defect is
    min_j (1 - |<c_j, K c_i>| / ||K c_i||); the maximum over i is
    returned (0 when every image lands on a basis ray). A stack of
    operators, shape (..., d, d), gives one defect per operator.
    """
    k = as_square_stack(k, "K")
    if k.shape[-1] != basis.dim:
        raise DimensionError("K dimension does not match the basis")
    c = basis.matrix
    images = k @ c
    norms = np.linalg.norm(images, axis=-2)
    live = norms > tol
    overlaps = np.abs(c.conj().T @ images) / np.where(live, norms, 1.0)[..., None, :]
    defects = np.where(live, 1.0 - np.max(overlaps, axis=-2), 0.0)
    worst = np.maximum(0.0, np.max(defects, axis=-1))
    return float(worst) if k.ndim == 2 else worst


def is_free_kraus(k, basis: FreeBasis, tol: float = 1e-8) -> bool:
    """True iff K maps every basis ray onto a basis ray or annihilates it."""
    return free_kraus_defect(k, basis, tol) <= tol


@dataclass(frozen=True)
class FreeEvolutionReport:
    ok: bool
    worst_defect: float
    min_contraction_margin: float


def verify_free_evolution(h, pair: PTPair, c: float,
                          grid: TimeGrid | None = None,
                          tol: float = 1e-8, *,
                          decomp: CanonicalDecomposition | None = None) -> FreeEvolutionReport:
    """Check that c U(t) is a free operation of the eigenbasis of H.

    H must be unbroken; its (PT-adapted, unit-norm) eigenvectors form
    the free basis. At every grid point both conditions are checked:
    c U(t) maps basis rays to basis rays, and c^2 U(t)^dag U(t) <= I
    within tol (trace-nonincreasing). The report carries the worst
    parallelism defect and the smallest contraction margin
    min eig(I - c^2 U^dag U) across the grid. Both are computed for the
    stacked grid at once, with U(t) from the canonical decomposition of
    H (computed here unless decomp is given). A c so large that
    c^2 U^dag U overflows raises NumericalError naming the first t
    where it does.
    """
    h = as_square(h, "H")
    if c <= 0:
        raise ValidationError("scale c must be positive")
    if decomp is None:
        decomp = pt_canonical_form(h, pair)
    if not decomp.spectral_class.unbroken:
        raise BrokenSymmetryError(
            "free-operation property requires an unbroken Hamiltonian")
    basis = free_basis([decomp.Psi[:, i] for i in range(decomp.dim)])
    grid = grid if grid is not None else default_grid()

    times = grid.times
    worst = 0.0
    margin = np.inf
    eye = np.eye(h.shape[0])
    for chunk in _grid_chunks(len(times), h.shape[0]):
        u = propagator_stack(decomp, times[chunk])
        with np.errstate(over="ignore", invalid="ignore"):
            ku = c * u
            gram = dagger(ku) @ ku
        _require_finite(gram, times[chunk], "c^2 U^dag U")
        gaps = np.linalg.eigvalsh(eye - gram)[:, 0]
        margin = min(margin, float(np.min(gaps)))
        worst = max(worst, float(np.max(free_kraus_defect(ku, basis, tol))))
    ok = margin >= -tol and worst <= tol
    return FreeEvolutionReport(ok=ok, worst_defect=worst,
                               min_contraction_margin=float(margin))
