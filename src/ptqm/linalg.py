"""Dense complex linear algebra primitives.

All functions accept anything convertible to a complex ndarray and
validate shape and finiteness up front. Dimensions are desk-scale
(d of a few up to a few hundred), so robustness is preferred over
speed throughout.

Jordan structure starts from one eigendecomposition (np.linalg.eig),
whose eigenvalues are clustered. A cluster with a single member is a
simple eigenvalue: its vector is the eigenvector eig returned, and all
such vectors are gated and normalised together, with the same checks
and thresholds a deflated 1x1 block would meet. Only clusters with
more than one member, the exceptional points, are deflated: the span
of the eigenvectors eig returned for the members, which a defective
cluster leaves accurate only to about the square root of its
splitting, is refined by one Newton step on the Sylvester equation of
the invariant subspace (Stewart, SIAM Rev. 15, 1973; Demmel, Computing
38, 1987). Chain construction happens inside the small deflated block.
There the "zero" singular values sit near the cluster diameter while
the structural couplings stay at the scale of the matrix, so rank
decisions remain clean even when the raw eigenvalues of a defective
cluster split at the square-root-of-epsilon scale.

Everything here needs numpy alone; matrix_exponential is scaling and
squaring with the [13/13] Pade approximant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, reduce

import numpy as np

from .errors import (
    MAX_GRID_POINTS,
    DimensionError,
    IllConditionedError,
    NotPositiveSemidefiniteError,
    NumericalError,
    SingularMatrixError,
    ValidationError,
    _require_positive,
)

_EPS = float(np.finfo(float).eps)
# a cluster subspace is conjugation-invariant when the conjugation, restricted
# to it, squares to the identity within this 2-norm distance
_INVOLUTION_TOL = 1e-6
# psd_square_root: Hermiticity gate, and the negative eigenvalues that
# hermitian_root clamps to zero, both relative to max(1, ||A||)
PSD_HERM_TOL = 1e-10
PSD_NEG_FLOOR = 1e-12


def _as_array(a, name: str, ndim: int = 2, stacked: bool = False) -> np.ndarray:
    """Validated complex ndarray copy with ndim axes, or more when stacked."""
    m = np.array(a, dtype=complex)
    if m.ndim != ndim and not (stacked and m.ndim > ndim):
        raise DimensionError(f"{name} must be {ndim}-dimensional, got shape {m.shape}")
    if m.size == 0:
        raise ValidationError(f"{name} is empty")
    if not np.isfinite(m).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def as_square(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a square 2-d complex ndarray copy of the input."""
    m = _as_array(a, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


def as_square_stack(a, name: str = "matrix") -> np.ndarray:
    """as_square for one matrix or a stack of them, shape (..., n, n)."""
    m = _as_array(a, name, stacked=True)
    if m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def first_index(mask: np.ndarray) -> int | None:
    """Flat position of the first true entry of a mask, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Validate and return a 1-d complex ndarray copy of the input."""
    return _as_array(v, name, ndim=1)


def operator_norm(a):
    """Largest singular value of a (not necessarily square) matrix.

    A stack of matrices, shape (..., m, n), gives one value per matrix,
    from one SVD call.
    """
    m = _as_array(a, "A", stacked=True)
    top = np.linalg.svd(m, compute_uv=False)[..., 0]
    return float(top) if m.ndim == 2 else top


def norm_within(d: np.ndarray, bound):
    """Whether ||D||_2 <= bound: a bool for one matrix D, a bool array
    for a stack, shape (..., m, n), with one bound or one per matrix.

    As ||D||_2 <= ||D||_F, a D with ||D / bound||_F^2 <= 1/4 clears the
    bound by a margin that rounding cannot cross, without an SVD; D is
    divided by the bound before squaring, so the squares neither
    overflow nor underflow where they could reach it, and a NaN or
    infinite sum clears nothing. The exact 2-norm decides the rest, so
    every decision is the one operator_norm would give.
    """
    d = np.asarray(d, dtype=complex)
    bounds = np.asarray(bound, dtype=float)
    ok = _screened(d, bounds)
    if not ok.all():
        unclear = ~ok
        ok[unclear] = operator_norm(d[unclear]) <= np.broadcast_to(bounds, ok.shape)[unclear]
    return ok if ok.ndim else bool(ok)


def _screened(d: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """norm_within's Frobenius screen, as a bool array of the stack's
    leading shape (0-d for one matrix): True where it clears D."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        scaled = d * (1.0 / bounds)[..., None, None]
        flat = scaled.view(float).reshape(scaled.shape[:-2] + (-1,))
        return np.array(np.square(flat, out=flat).sum(axis=-1) <= 0.25)


def _within_scale(d: np.ndarray, ref: np.ndarray, tol: float):
    """norm_within(D, tol * max(1, ||R||_2)) as a bool array, 0-d for a
    matrix D and its square reference R, one entry per matrix for stacks.

    As ||R||_2 >= ||R||_F / sqrt(n), D is held first to the lower scale
    max(1, ||R||_F / sqrt(n)), where an R whose Frobenius norm overflows
    counts at scale 1, not at an infinite one: by the Frobenius screen,
    then by the exact ||D||_2. Only a D that fails both meets the exact
    ||R||_2, with the ||D||_2 already taken, so no D takes two SVDs.
    """
    with np.errstate(over="ignore"):
        low = np.linalg.norm(ref, axis=(-2, -1)) / np.sqrt(ref.shape[-1])
    bound = tol * np.maximum(1.0, np.where(low < np.inf, low, 0.0))
    ok = _screened(d, bound)
    if not ok.all():
        unclear = ~ok
        top = operator_norm(d[unclear])
        within = top <= bound[unclear]
        if not within.all():
            within[~within] = top[~within] <= tol * np.maximum(
                1.0, operator_norm(ref[unclear][~within]))
        ok[unclear] = within
    return ok


def matrix_exponential(a, z: complex = 1.0) -> np.ndarray:
    """Return exp(z * A) for square A.

    Scaling and squaring with the [13/13] Pade approximant (Higham,
    SIAM J. Matrix Anal. Appl. 26, 2005): exp(B) = r13(B / 2^s)^(2^s),
    with s chosen from ||B^4||_1^(1/4) and ||B^6||_1^(1/6) (Al-Mohy &
    Higham, SIAM J. Matrix Anal. Appl. 31, 2009), which can be far
    below ||B||_1 for a non-normal B such as an exceptional point, so
    such a B is not over-scaled. The scalar z is folded into the
    argument so that propagators can pass z = -1j * t directly. An
    argument whose norm overflows gives a non-finite result, for the
    caller to name.
    """
    m = as_square(a, "A")
    z = complex(z)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ValidationError("scalar factor z must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        return _pade13_exponential(z * m)


# coefficients of the [13/13] Pade approximant to exp, and the largest
# ||B||_1 for which it is accurate to unit roundoff (Higham 2005, table 2.3)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _pade13_exponential(b: np.ndarray) -> np.ndarray:
    def powers(x):
        x2 = x @ x
        x4 = x2 @ x2
        return x2, x4, x4 @ x2

    b2, b4, b6 = powers(b)
    norm = np.linalg.norm(b, 1)
    eta = np.max([np.linalg.norm(b4, 1) ** 0.25, np.linalg.norm(b6, 1) ** (1 / 6)])
    if not eta <= norm:  # a power overflowed: fall back to ||B||_1
        eta = norm
    if not np.isfinite(eta):
        return np.full_like(b, np.nan)
    s = max(0, int(np.ceil(np.log2(eta / _THETA13)))) if eta > 0 else 0
    if s:
        b = b * 2.0 ** -s
        b2, b4, b6 = powers(b)
    c = _PADE13
    ident = np.eye(b.shape[0])
    u = b @ (b6 @ (c[13] * b6 + c[11] * b4 + c[9] * b2)
             + c[7] * b6 + c[5] * b4 + c[3] * b2 + c[1] * ident)
    v = (b6 @ (c[12] * b6 + c[10] * b4 + c[8] * b2)
         + c[6] * b6 + c[4] * b4 + c[2] * b2 + c[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def psd_square_root(a) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [-PSD_NEG_FLOOR * max(1, ||A||), 0) are clamped to zero
    so that defect operators of near-contractions survive rounding.
    Anything more negative raises. ||A|| is the largest |eigenvalue|
    of the Hermitian part, which the eigendecomposition returns. A
    stack of matrices, shape (..., n, n), is taken matrix by matrix;
    the first to fail a check is the one reported.
    """
    m = as_square_stack(a, "A")
    w, v = np.linalg.eigh(0.5 * (m + dagger(m)))
    scale = np.maximum(1.0, np.max(np.abs(w), axis=-1))
    if not np.all(norm_within(m - dagger(m), PSD_HERM_TOL * scale)):
        raise ValidationError("matrix is not Hermitian within tolerance")
    return hermitian_root(w, v)


def hermitian_root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V sqrt(W) V^dag from eigenvalues w, shape (..., n), in ascending
    order, and orthonormal eigenvectors in the columns of v.

    Eigenvalues in [-PSD_NEG_FLOOR * max(1, max |w|), 0) are clamped to
    zero; the first matrix of a stack with one below that floor raises
    (require_psd_floor). The result is symmetrised as (B + B^dag) / 2.
    """
    require_psd_floor(w)
    b = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ dagger(v)
    return 0.5 * (b + dagger(b))


def require_psd_floor(w: np.ndarray) -> None:
    """Raise NotPositiveSemidefiniteError naming the smallest eigenvalue
    of the first matrix of a stack, eigenvalues w of shape (..., n) in
    ascending order, whose smallest lies below -PSD_NEG_FLOOR * max(1,
    max |w|)."""
    scale = np.maximum(1.0, _max_last(np.abs(w)))
    low = first_index(w[..., 0] < -PSD_NEG_FLOOR * scale)
    if low is not None:
        raise NotPositiveSemidefiniteError(
            f"eigenvalue {w[..., 0].flat[low]:.6e} below the positive semidefinite floor"
        )


@dataclass(frozen=True)
class BlockLayout:
    """Column layout of a Jordan matrix, unit by unit.

    A unit is one Jordan chain, or a conjugate pair of two chains of
    equal length: the chain of lam, then the chain of conj(lam).
    eigenvalues[c] is the eigenvalue of column c. chains lists the
    (offset, length) of every chain and units the (offset, span) of
    every unit, both in column order; paired marks the conjugate-pair
    units.
    """

    eigenvalues: np.ndarray
    chains: tuple
    units: tuple
    paired: tuple

    @classmethod
    def from_units(cls, units) -> "BlockLayout":
        """Layout of (eigenvalue, order, paired) units placed in order."""
        lams: list = []
        chains = []
        spans = []
        paired = []
        for lam, order, pair in units:
            offset = len(lams)
            for z in (lam, lam.conjugate()) if pair else (lam,):
                chains.append((len(lams), order))
                lams.extend([z] * order)
            spans.append((offset, len(lams) - offset))
            paired.append(bool(pair))
        eigenvalues = np.array(lams, dtype=complex)
        eigenvalues.setflags(write=False)
        return cls(eigenvalues, tuple(chains), tuple(spans), tuple(paired))

    @property
    def n_real(self) -> int:
        """Number of units that are not conjugate pairs."""
        return self.paired.count(False)

    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """(J, K): J holds the eigenvalues on its diagonal and a 1 on the
        superdiagonal inside each chain; K swaps the two chains of every
        conjugate-pair unit and fixes every other column."""
        d = self.eigenvalues.shape[0]
        links = np.ones(d - 1)  # column c links to c + 1 unless it ends a chain
        links[[offset + length - 1 for offset, length in self.chains[:-1]]] = 0.0
        # row c of K holds its 1 in column c + shift, the shift of c's chain
        shift = [s for (_, span), pair in zip(self.units, self.paired)
                 for s in ((span // 2, -(span // 2)) if pair else (0,))]
        cols = np.arange(d)
        k = np.zeros((d, d), dtype=complex)
        k[cols, cols + np.repeat(shift, [length for _, length in self.chains])] = 1.0
        return np.diag(self.eigenvalues) + np.diag(links, 1), k

    @cached_property
    def _column_units(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(unit, offset, span): for each column, the index of its unit
        and that unit's offset and span; the metric's S is read off them."""
        offsets, spans = np.array(self.units).T
        unit = np.repeat(np.arange(len(spans)), spans)
        return unit, offsets[unit], spans[unit]


def solve_stack(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """C^-1 X for one X, shape (n, m), or a stack of them, shape (..., n, m).

    The columns of every matrix of the stack become the right-hand sides
    of one system, so C is factorised once; a broadcast np.linalg.solve
    factorises it again for every matrix. Each column is solved exactly
    as it would be alone. np.linalg.LinAlgError propagates when C is
    singular.
    """
    cols = x.transpose(-2, *range(x.ndim - 2), -1)  # the row axis first
    sol = np.linalg.solve(c, cols.reshape(c.shape[0], -1)).reshape(cols.shape)
    return sol.transpose(*range(1, x.ndim - 1), 0, -1)


def _max_last(a: np.ndarray) -> np.ndarray:
    """np.max(a, axis=-1), the same floats, as one np.maximum per entry of a
    short last axis: numpy's reduction would loop over the rows one by one."""
    return reduce(np.maximum, (a[..., j] for j in range(a.shape[-1])))


def _fixed_product(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """X @ M for a stack X, shape (..., n, k), as one product of all its rows with M:
    one BLAS call, not one per matrix, and the same floats at every size tried; a
    fixed left factor does not keep them."""
    return (x.reshape(-1, x.shape[-1]) @ m).reshape(*x.shape[:-1], m.shape[-1])


def congruence_solve(c: np.ndarray, x: np.ndarray, name: str) -> np.ndarray:
    """C^-1 X C^-dag by two stacked solves (solve_stack), for one X or a
    stack of them.

    name is how C is called in the SingularMatrixError raised when C
    is singular.
    """
    try:
        half = solve_stack(c, x)
        return dagger(solve_stack(c, dagger(half)))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"{name} is numerically singular") from exc


@dataclass(frozen=True)
class EigenStructure:
    """Clustered spectrum of a square matrix with Jordan chains.

    chains[i] lists the chains of cluster i, longest first. Each chain
    is a list of vectors running from the eigenvector (bottom) to the
    chain top, scaled so the largest member has unit norm, satisfying
    A v[0] = lam v[0] and A v[j+1] = lam v[j+1] + v[j].
    """

    eigenvalues: tuple
    multiplicities: tuple
    geometric_multiplicities: tuple
    chains: tuple
    residual: float

    def assemble(self) -> tuple[np.ndarray, np.ndarray]:
        """Stack all chains into (Psi, J) with A Psi = Psi J."""
        layout = BlockLayout.from_units(
            (lam, len(chain), False)
            for lam, chains in zip(self.eigenvalues, self.chains) for chain in chains)
        psi = np.column_stack([v for chains in self.chains for chain in chains for v in chain])
        return psi, layout.matrices()[0]


def _clusters(w: np.ndarray, tol_abs: float) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of the spectrum under |wi - wj| <= tol_abs.

    Returns (label, means): label[i] numbers the cluster of w[i] and
    means[k] is the mean of cluster k's members. Clusters are numbered by
    mean (real part, then imaginary part), ties by their smallest member.
    Components come from label propagation on the adjacency array: every
    member takes the smallest label among those linked to it, then that
    label's own label, until none changes; the label left is the
    component's smallest member. The clusters of one size are summed as
    rows of one array, which adds each row as np.mean adds a cluster on
    its own, bit for bit. Every spectrum takes this one path: with no
    pair linked, propagation stops after one step and every mean is a
    sum of one term (a -0.0 part comes back as 0.0, as from np.mean).
    """
    n = len(w)
    # np.hypot, not np.abs: it rounds |wi - wj| as the scalar abs does; a
    # difference past the float range is an infinite distance, linking nothing
    with np.errstate(over="ignore"):
        diff = w[:, None] - w
        near = np.hypot(diff.real, diff.imag) <= tol_abs
    index = np.arange(n)
    root = index
    while True:
        step = np.where(near, root, n).min(axis=1)
        step = step[step]
        if (step == root).all():
            break
        root = step
    component = ((root == index).cumsum() - 1)[root]  # by smallest member
    sizes = np.bincount(component)
    members = component.argsort(kind="stable")
    starts = sizes.cumsum() - sizes
    means = np.empty(len(sizes), dtype=complex)
    # the distinct sizes in ascending order; np.unique would import numpy.ma
    for size in np.bincount(sizes).nonzero()[0].tolist():
        rows = (sizes == size).nonzero()[0]
        means[rows] = w[members[starts[rows, None] + np.arange(size)]].sum(axis=1) / size
    ranked = means.argsort(kind="stable")  # by real part, then imaginary part
    return ranked.argsort()[component], means[ranked]


@dataclass(frozen=True)
class ClusteredSpectrum:
    """Spectrum of a square matrix from one eigendecomposition, clustered.

    w and vectors are the eigenvalues and eigenvectors np.linalg.eig
    returns. label[i] is the cluster of w[i] and means[k] the mean of
    cluster k, as _clusters numbers them. scale is max(1, ||matrix||_2),
    the reference of every absolute threshold.
    """

    matrix: np.ndarray
    scale: float
    w: np.ndarray
    vectors: np.ndarray
    label: np.ndarray
    means: np.ndarray

    @cached_property
    def sizes(self) -> np.ndarray:
        """Number of members of each cluster."""
        return np.bincount(self.label, minlength=len(self.means))


def _clustered_spectrum(a: np.ndarray, scale: float, tol_abs: float) -> ClusteredSpectrum:
    """Eigendecomposition of a, clustered at |wi - wj| <= tol_abs."""
    w, vectors = np.linalg.eig(a)
    return ClusteredSpectrum(a, scale, w, vectors, *_clusters(w, tol_abs))


def _deflate_cluster(spectrum: ClusteredSpectrum, members: np.ndarray, rep: complex,
                     radius: float, zero_floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis q of the invariant subspace of one cluster, and
    the restriction b = q^H A q.

    members indexes the cluster in spectrum.w; radius isolates it around
    rep and zero_floor bounds its residual, both from _cluster_chains.
    The start q is an orthonormal basis of the eigenvectors eig returned
    for the members; with [q, p] unitary, one Newton step solves
    (p^H A p - rep) X - X (q^H A q - rep) = -p^H A q and takes the span
    of q + p X. The second operator is nearly nilpotent, so one inverse
    of the first and m sweeps for an m-member cluster solve it. The
    result must isolate the cluster, every eigenvalue of b within radius
    of rep, with ||A q - q b||_2 <= zero_floor; IllConditionedError
    otherwise. A cluster that holds the whole spectrum takes q = I.
    """
    a = spectrum.matrix
    n, m = a.shape[0], len(members)
    if m == n:
        return np.eye(n, dtype=complex), a
    basis = np.linalg.qr(spectrum.vectors[:, members], mode="complete")[0]
    q, p = basis[:, :m], basis[:, m:]
    aq = a @ q
    nilpotent = q.conj().T @ aq - rep * np.eye(m)
    coupling = p.conj().T @ aq
    unisolated = "refinement did not isolate the eigenvalue cluster"
    try:
        inverse = np.linalg.inv(p.conj().T @ a @ p - rep * np.eye(n - m))
    except np.linalg.LinAlgError as exc:  # the complement holds rep itself
        raise IllConditionedError(unisolated) from exc
    x = np.zeros_like(coupling)
    for _ in range(m):
        x = inverse @ (x @ nilpotent - coupling)
    q = np.linalg.qr(q + p @ x)[0]
    aq = a @ q
    b = q.conj().T @ aq
    if not (np.abs(np.linalg.eigvals(b) - rep) <= radius).all():
        raise IllConditionedError(unisolated)
    if not norm_within(aq - q @ b, zero_floor):
        raise IllConditionedError("refinement left a residual above the cluster's zero floor")
    return q, b


def _orth(a: np.ndarray, rel_tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the column span, rank-truncated by SVD."""
    if a.shape[1] == 0:
        return a
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = int((s > rel_tol * s[0]).sum())
    return u[:, :rank]


def _fixed_under(gmat: np.ndarray, w: np.ndarray, established: np.ndarray) -> np.ndarray:
    """Replace w by a vector fixed under v -> gmat conj(v).

    Every e^{i phi} w + e^{-i phi} G conj(w) is fixed. With a and b the
    parts of w and of G conj(w) outside the established span, the part
    of that vector outside the span has squared norm ||a||^2 + ||b||^2 +
    2 Re(e^{-2 i phi} a^H b), largest at phi = arg(a^H b) / 2; that phi
    is taken, which makes the result independent of the phase of w, and
    the vector is renormalized. Its outside part is then at least as
    long as that of either w + G conj(w) or i (w - G conj(w)).

    No input can make that choice degenerate, so it is not gated: w is a
    unit vector orthogonal to the established span, so ||a|| = 1 and the
    outside part has norm sqrt(||a||^2 + ||b||^2 + 2 |a^H b|) >= 1. On a
    1x1 block (c), _simple_vectors' choice has norm at least
    sqrt(1 + |c|^2) >= sqrt(2) (1 - 5e-7), since |c|^2 is within
    _INVOLUTION_TOL of 1.
    """
    gw = gmat @ np.conj(w)
    a = w - established @ (established.conj().T @ w)
    b = gw - established @ (established.conj().T @ gw)
    phase = np.exp(0.5j * np.angle(np.vdot(a, b)))
    top = phase * w + np.conj(phase) * gw
    return top / np.linalg.norm(top)


def _zero_threshold(top, rank_tol: float, zero_floor, m: int = 1, smax: float = 1.0,
                    k: int = 1):
    """Largest singular value of M^k that counts as zero, for an m x m block
    M with ||M||_2 <= smax whose top singular value of M^k is top."""
    return np.maximum(rank_tol * top, 10.0 * m * zero_floor * smax ** (k - 1))


def _nilpotent_chains(mblock: np.ndarray, rank_tol: float, zero_floor: float,
                      conj_op: np.ndarray | None = None) -> list[list[np.ndarray]]:
    """Jordan chains of a small matrix with all eigenvalues near zero.

    Nullities of increasing powers fix the block orders; chains are
    built longest first, each new top taken from null(M^k) orthogonal
    to null(M^(k-1)) and to the height-k members of taller chains.
    The zero thresholds grow with the power k because perturbing a
    nilpotent N by E moves the zero singular values of N^k by
    O(k ||E|| ||N||^(k-1)); zero_floor plays the role of ||E||.

    When conj_op G is given (an antilinear involution v -> G conj(v)
    commuting with the block), every chain top is chosen fixed under
    it, which makes all chain vectors fixed as well.
    """
    m = mblock.shape[0]
    smax = max(1.0, float(np.linalg.svd(mblock, compute_uv=False)[0]))  # ||M||_2

    nullbases: list[np.ndarray] = [np.zeros((m, 0), dtype=complex)]
    nullities = [0]
    power = np.eye(m, dtype=complex)
    p = 0
    for k in range(1, m + 1):
        power = power @ mblock
        _, s, vh = np.linalg.svd(power)
        tau = _zero_threshold(float(s[0]), rank_tol, zero_floor, m, smax, k)
        nullity = int((s <= tau).sum())
        if nullity < nullities[-1]:
            raise IllConditionedError("nullity sequence is not monotone; "
                                      "cluster structure unresolved at this tolerance")
        nullbases.append(vh.conj().T[:, m - nullity:])
        nullities.append(nullity)
        if nullity == m:
            p = k
            break
    if p == 0:
        raise IllConditionedError("cluster block is not nilpotent at the working tolerance")

    chains_topfirst: list[list[np.ndarray]] = []
    for k in range(p, 0, -1):
        n_k, n_km1 = nullities[k], nullities[k - 1]
        n_kp1 = nullities[k + 1] if k < p else nullities[p]
        newtops = (n_k - n_km1) - (n_kp1 - n_k)
        if newtops == 0:
            continue
        carried = [c[len(c) - k][:, None] for c in chains_topfirst]
        established = _orth(np.concatenate([nullbases[k - 1]] + carried, axis=1))
        for i in range(newtops):
            if i:  # the tops drawn so far at this height join the established span
                established = _orth(np.column_stack([established, chains_topfirst[-1][0]]))
            g = nullbases[k] - established @ (established.conj().T @ nullbases[k])
            uu, ss, _ = np.linalg.svd(g)
            if ss[0] < 1e-6:
                raise IllConditionedError("chain direction collapsed",
                                          residual=float(ss[0]))
            top = uu[:, 0]
            if conj_op is not None:
                top = _fixed_under(conj_op, top, established)
            chain = [top]
            for _ in range(k - 1):
                chain.append(mblock @ chain[-1])
            chains_topfirst.append(chain)

    out = []
    for chain in chains_topfirst:
        bottom_first = chain[::-1]
        scale = max(float(np.linalg.norm(v)) for v in bottom_first)
        out.append([v / scale for v in bottom_first])
    out.sort(key=len, reverse=True)
    if len(out) != nullities[1]:
        raise IllConditionedError("chain count disagrees with the geometric multiplicity")
    return out


def _deflated_chains(spectrum: ClusteredSpectrum, members: np.ndarray, rep: complex,
                     radius: float, zero_floor: float, rank_tol: float,
                     conj_mat: np.ndarray | None = None) -> list[list[np.ndarray]]:
    """Jordan chains of the eigenvalue cluster of spectrum.w[members],
    lifted to the full space.

    rep may differ from the cluster mean (e.g. snapped to the real axis);
    radius isolates the cluster around it and zero_floor is the zero
    threshold of the deflated block, both from _cluster_chains.
    """
    q, b = _deflate_cluster(spectrum, members, rep, radius, zero_floor)
    size = q.shape[1]
    mblock = b - rep * np.eye(size)

    conj_block = None
    if conj_mat is not None:
        conj_block = q.conj().T @ conj_mat @ np.conj(q)
        invol = conj_block @ np.conj(conj_block)
        if not norm_within(invol - np.eye(size), _INVOLUTION_TOL):
            raise IllConditionedError("cluster subspace is not conjugation-invariant")

    chains = _nilpotent_chains(mblock, rank_tol, zero_floor, conj_op=conj_block)
    return [[q @ v for v in chain] for chain in chains]


def _simple_vectors(spectrum: ClusteredSpectrum, members: np.ndarray, reps: np.ndarray,
                    zero_floor: np.ndarray, fixed: np.ndarray, rank_tol: float,
                    conj_mat: np.ndarray | None) -> np.ndarray:
    """Unit eigenvectors of simple clusters, one column per cluster.

    members[k] indexes the one member of cluster k in spectrum.w, reps[k]
    is its representative and zero_floor[k] its zero threshold. Every
    column passes the checks _deflated_chains applies to a 1x1 block,
    with the same thresholds: the nilpotency gate on q^H A q - rep and,
    where fixed[k], invariance under v -> G conj(v) with G = conj_mat.
    Those columns are then made fixed under it: each is multiplied by the
    unit phase of the larger of 1 + c and i(1 - c), where c is the 1x1
    block q^H G conj(q). That agrees with _fixed_under only up to a real
    factor, and only when |c| = 1; the gate above admits |c|^2 within
    _INVOLUTION_TOL of 1.
    """
    q = spectrum.vectors[:, members]
    q = q / np.linalg.norm(q, axis=0)
    offset = np.abs(np.einsum("ij,ij->j", q.conj(), spectrum.matrix @ q) - reps)
    if (offset > _zero_threshold(offset, rank_tol, zero_floor)).any():
        raise IllConditionedError("cluster block is not nilpotent at the working tolerance")

    if fixed.any():
        qf = q[:, fixed]
        qc = qf.conj()
        c = np.einsum("ij,ij->j", qc, conj_mat @ qc)
        if (np.abs(c * np.conj(c) - 1.0) > _INVOLUTION_TOL).any():
            raise IllConditionedError("cluster subspace is not conjugation-invariant")
        # _fixed_under on the 1x1 block (c) takes the phase e^{i arg(c) / 2};
        # for |c| = 1 the larger of 1 + c and i(1 - c) is a real multiple of
        # it, whose sign the normalisation fixes
        plus, minus = 1.0 + c, 1j * (1.0 - c)
        top = np.where(np.abs(plus) >= np.abs(minus), plus, minus)
        q[:, fixed] = qf * (top / np.abs(top))
    return q


def _normalizing_factors(bottoms: np.ndarray, fixed) -> np.ndarray:
    """The scalar that normalises each chain, from its eigenvector (a column of bottoms).

    A chain admits only a global scalar, fixed by the dominant entry z of
    its eigenvector: a phase making z real positive or, for a chain fixed
    under a conjugation, where a complex phase would break fixedness, a
    sign making Re z positive (Im z when Re z vanishes).
    """
    z = bottoms[np.abs(bottoms).argmax(axis=0), np.arange(bottoms.shape[1])]
    size = np.abs(z)
    positive = np.where(np.abs(z.real) >= 1e-12 * size, z.real, z.imag) >= 0
    return np.where(fixed, np.where(positive, 1.0, -1.0), np.conj(z) / size)


def _cluster_chains(spectrum: ClusteredSpectrum, idx: np.ndarray, reps: np.ndarray,
                    rank_tol: float, conj_mat: np.ndarray | None = None) -> list:
    """Normalised Jordan chains of the clusters idx, represented by reps.

    The result holds, for each cluster idx[k], its chains longest first,
    bottom vector first. With conj_mat G, a cluster with a real
    representative gets chains fixed under v -> G conj(v), normalised by
    sign; every other chain is normalised by phase (_normalizing_factors).

    Every cluster must be separable from the rest of the spectrum:
    external > 2 internal + 16 eps scale, where internal is the largest
    distance of a member from reps[k] and external the smallest distance
    of a non-member (inf when there is none). Its zero floor, internal +
    64 eps scale, bounds what counts as zero in its block. Simple
    clusters take their vectors from the eigendecomposition, all in one
    batch (_simple_vectors). Only clusters with more than one member are
    deflated, each from its own eigenvectors (_deflate_cluster).
    """
    fixed = (reps.imag == 0.0) & (conj_mat is not None)
    out: list = [None] * len(idx)
    # chain vectors and powers of a defective block scale like ||A||^k: at
    # ||A|| near 1e155 they leave the float range
    try:
        with np.errstate(over="raise", invalid="raise"):
            member = spectrum.label == idx[:, None]
            dist = np.abs(spectrum.w - reps[:, None])
            internal = dist.max(axis=1, where=member, initial=0.0)
            external = dist.min(axis=1, where=~member, initial=np.inf)
            if (external <= 2.0 * internal + 16.0 * _EPS * spectrum.scale).any():
                raise IllConditionedError("eigenvalue clusters are not separable")
            zero_floor = internal + 64.0 * _EPS * spectrum.scale

            simple = member.sum(axis=1) == 1
            if simple.any():
                signed = fixed[simple]
                q = _simple_vectors(spectrum, member[simple].argmax(axis=1), reps[simple],
                                    zero_floor[simple], signed, rank_tol, conj_mat)
                q = q * _normalizing_factors(q, signed)
                for k, col in zip(simple.nonzero()[0].tolist(), q.T):
                    out[k] = [[col]]

            for k in (~simple).nonzero()[0].tolist():
                radius = (0.5 * (internal[k] + external[k]) if np.isfinite(external[k])
                          else internal[k] + 1.0)
                chains = _deflated_chains(spectrum, member[k].nonzero()[0], reps[k], radius,
                                          zero_floor[k], rank_tol, conj_mat if fixed[k] else None)
                factors = _normalizing_factors(np.array([c[0] for c in chains]).T, fixed[k])
                out[k] = [[f * v for v in chain] for f, chain in zip(factors, chains)]
    except FloatingPointError as exc:
        raise NumericalError("Jordan chain construction overflowed the floating-point range") from exc
    return out


def eigen_decompose(a, cluster_tol: float = 1e-8, rank_tol: float = 1e-10) -> EigenStructure:
    """Cluster the spectrum of A and build generalized eigenvector chains.

    Eigenvalues closer than cluster_tol * max(1, ||A||) are merged into
    one cluster represented by their mean. Jordan structure is
    discontinuous, so this tolerance is a structural decision: callers
    probing deliberately defective matrices built by similarity
    transforms should widen it to cover the eigenvalue splitting such
    constructions produce.
    """
    m = as_square(a, "A")
    _require_positive(cluster_tol=cluster_tol, rank_tol=rank_tol)
    scale = max(1.0, float(np.linalg.norm(m, 2)))
    spectrum = _clustered_spectrum(m, scale, cluster_tol * scale)
    eigenvalues = spectrum.means.tolist()
    chains = _cluster_chains(spectrum, np.arange(len(eigenvalues)), spectrum.means, rank_tol)

    structure = EigenStructure(
        eigenvalues=tuple(eigenvalues),
        multiplicities=tuple(spectrum.sizes.tolist()),
        geometric_multiplicities=tuple(len(c) for c in chains),
        chains=tuple(tuple(tuple(chain) for chain in c) for c in chains),
        residual=np.nan,
    )
    psi, j = structure.assemble()
    return replace(structure, residual=float(np.linalg.norm(m @ psi - psi @ j, 2)))
