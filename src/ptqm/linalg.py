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
more than one member, the exceptional points, are deflated. The matrix
is then reduced to complex Schur form once, and each such cluster is
moved to the leading diagonal block by reordering that form with
LAPACK ztrsen (Bai & Demmel 1993), which separates the cluster's
invariant subspace without factoring the matrix again. Chain
construction happens inside the small deflated block. There the "zero"
singular values sit near the cluster diameter while the structural
couplings stay at the scale of the matrix, so rank decisions remain
clean even when the raw eigenvalues of a defective cluster split at
the square-root-of-epsilon scale.

scipy is imported inside the three functions that call it (the Schur
form, ztrsen and matrix_exponential), not at module level: importing
it dominates the start-up of a command-line call, and most calls need
neither a multi-member cluster nor an exponential.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionError,
    IllConditionedError,
    NotPositiveSemidefiniteError,
    NumericalError,
    SingularMatrixError,
    ValidationError,
)

_EPS = float(np.finfo(float).eps)
# a cluster subspace is conjugation-invariant when the conjugation, restricted
# to it, squares to the identity within this 2-norm distance
_INVOLUTION_TOL = 1e-6
# a conjugation-fixed chain top keeps at least this norm outside the span
# already established, or the choice has degenerated
_FIXED_TOP_FLOOR = 0.5
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
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-d complex ndarray copy of the input."""
    return _as_array(a, name)


def as_square(a, name: str = "matrix") -> np.ndarray:
    m = as_matrix(a, name)
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
    """Position of the first true entry of a 1-d or 0-d mask, or None."""
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


def matrix_exponential(a, z: complex = 1.0) -> np.ndarray:
    """Return exp(z * A) for square A.

    Evaluation uses scaling-and-squaring with a Pade approximant; the
    scalar z is folded into the argument so that propagators can pass
    z = -1j * t directly.
    """
    m = as_square(a, "A")
    z = complex(z)
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise ValidationError("scalar factor z must be finite")
    import scipy.linalg as sla

    return sla.expm(z * m)


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
    if np.any(operator_norm(m - dagger(m)) > PSD_HERM_TOL * scale):
        raise ValidationError("matrix is not Hermitian within tolerance")
    return hermitian_root(w, v)


def hermitian_root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V sqrt(W) V^dag from eigenvalues w, shape (..., n), in ascending
    order, and orthonormal eigenvectors in the columns of v.

    Eigenvalues in [-PSD_NEG_FLOOR * max(1, max |w|), 0) are clamped to
    zero; the first matrix of a stack with one below that floor raises.
    The result is symmetrised as (B + B^dag) / 2.
    """
    scale = np.maximum(1.0, np.max(np.abs(w), axis=-1))
    low = first_index(w[..., 0] < -PSD_NEG_FLOOR * scale)
    if low is not None:
        raise NotPositiveSemidefiniteError(
            f"eigenvalue {w[..., 0].flat[low]:.6e} below the positive semidefinite floor"
        )
    b = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ dagger(v)
    return 0.5 * (b + dagger(b))


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
            for z in (lam, np.conj(lam)) if pair else (lam,):
                chains.append((len(lams), order))
                lams.extend([z] * order)
            spans.append((offset, len(lams) - offset))
            paired.append(bool(pair))
        return cls(np.array(lams, dtype=complex), tuple(chains), tuple(spans), tuple(paired))

    @property
    def n_real(self) -> int:
        """Number of units that are not conjugate pairs."""
        return self.paired.count(False)

    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """(J, K): J holds the eigenvalues on its diagonal and a 1 on the
        superdiagonal inside each chain; K swaps the two chains of every
        conjugate-pair unit and fixes every other column."""
        d = self.eigenvalues.shape[0]
        nilpotent = np.zeros((d, d))
        for offset, length in self.chains:
            rows = np.arange(offset, offset + length - 1)
            nilpotent[rows, rows + 1] = 1.0
        k = np.zeros((d, d), dtype=complex)
        for (offset, span), pair in zip(self.units, self.paired):
            cols = np.arange(offset, offset + span)
            k[cols, np.roll(cols, span // 2) if pair else cols] = 1.0
        return np.diag(self.eigenvalues) + nilpotent, k


def solve_stack(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """C^-1 X for one X, shape (n, m), or a stack of them, shape (..., n, m).

    The columns of every matrix of the stack become the right-hand sides
    of one system, so C is factorised once; a broadcast np.linalg.solve
    factorises it again for every matrix. Each column is solved exactly
    as it would be alone. np.linalg.LinAlgError propagates when C is
    singular.
    """
    cols = np.moveaxis(x, -2, 0)
    sol = np.linalg.solve(c, cols.reshape(c.shape[0], -1))
    return np.moveaxis(sol.reshape(cols.shape), 0, -2)


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


def _clusters(w: np.ndarray, tol_abs: float) -> tuple[list[np.ndarray], np.ndarray]:
    """Connected components of the spectrum under |wi - wj| <= tol_abs.

    Returns the member indices of every cluster and the cluster means,
    ordered by mean (real part, then imaginary part). Pairs are swept in
    order of real part: |wi - wj| is at least the real-part gap, so only
    pairs whose real parts lie within tol_abs of each other can be linked.
    """
    n = len(w)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    order = np.argsort(w.real, kind="stable")
    re = w.real[order]
    for a in range(n):
        i = order[a]
        for b in range(a + 1, n):
            if re[b] - re[a] > tol_abs:
                break
            j = order[b]
            if abs(w[i] - w[j]) <= tol_abs:
                parent[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    found = [np.array(g) for g in groups.values()]
    means = [w[g].mean() for g in found]
    ranked = sorted(range(len(found)), key=lambda k: (means[k].real, means[k].imag))
    return [found[k] for k in ranked], np.array([means[k] for k in ranked], dtype=complex)


@dataclass(frozen=True)
class ClusteredSpectrum:
    """Spectrum of a square matrix from one eigendecomposition, clustered.

    w and vectors are the eigenvalues and eigenvectors np.linalg.eig
    returns. groups[i] indexes the members of cluster i in w and
    means[i] is their mean, in the order of _clusters. scale is
    max(1, ||matrix||_2), the reference of every absolute threshold.
    """

    matrix: np.ndarray
    scale: float
    w: np.ndarray
    vectors: np.ndarray
    groups: list
    means: np.ndarray


def _clustered_spectrum(a: np.ndarray, scale: float, tol_abs: float) -> ClusteredSpectrum:
    """Eigendecomposition of a, clustered at |wi - wj| <= tol_abs."""
    w, vectors = np.linalg.eig(a)
    groups, means = _clusters(w, tol_abs)
    return ClusteredSpectrum(a, scale, w, vectors, groups, means)


def _schur_form(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form (T, Z) of a, with a = Z T Z^dag.

    Computed at most once per decomposition, and only when a cluster
    has more than one member; _deflate_cluster reorders it for each
    such cluster. Simple clusters take their vectors from the
    eigendecomposition instead.
    """
    import scipy.linalg as sla

    return sla.schur(a, output="complex")


def _deflate_cluster(schur: tuple[np.ndarray, np.ndarray], lam: complex, radius: float):
    """Schur basis of the invariant subspace of eigenvalues near lam.

    schur is the pair (T, Z) from _schur_form. ztrsen reorders it so
    the diagonal entries within radius of lam lead, leaving T and Z
    themselves untouched; this is the reordering step a sorted Schur
    decomposition performs after its factorisation. It runs once per
    multi-member cluster. Returns (q, b, sdim) with a @ q = q @ b to
    machine precision, where q has orthonormal columns and b is the
    upper-triangular restriction.
    """
    from scipy.linalg import lapack

    t, z = schur
    select = np.abs(np.diag(t) - lam) <= radius
    ts, zs, _, sdim, _, _, info = lapack.ztrsen(select, t, z, job="N")
    sdim = int(sdim)
    if info != 0 or not np.all(np.abs(np.diag(ts)[:sdim] - lam) <= radius):
        raise IllConditionedError(
            "Schur reordering could not isolate the eigenvalue cluster")
    return zs[:, :sdim], ts[:sdim, :sdim], sdim


def _orth(a: np.ndarray, rel_tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the column span, rank-truncated by SVD."""
    if a.shape[1] == 0:
        return a
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > rel_tol * s[0])) if s.size else 0
    return u[:, :rank]


def _fixed_under(gmat: np.ndarray, w: np.ndarray, established: np.ndarray) -> np.ndarray:
    """Replace w by a vector fixed under v -> gmat conj(v).

    Of the two symmetrizations w + G conj(w) and i(w - G conj(w)), at
    least one keeps a component outside the established span whenever w
    itself does; the larger one is chosen and renormalized.
    """
    cands = [w + gmat @ np.conj(w), 1j * (w - gmat @ np.conj(w))]

    def outside(u):
        return float(np.linalg.norm(u - established @ (established.conj().T @ u)))

    best = max(cands, key=outside)
    if outside(best) < _FIXED_TOP_FLOOR:
        raise IllConditionedError("conjugation-fixed chain top degenerated")
    return best / np.linalg.norm(best)


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
    smax = max(1.0, float(np.linalg.norm(mblock, 2)))

    nullbases: list[np.ndarray] = [np.zeros((m, 0), dtype=complex)]
    nullities = [0]
    power = np.eye(m, dtype=complex)
    p = 0
    for k in range(1, m + 1):
        power = power @ mblock
        _, s, vh = np.linalg.svd(power)
        tau = _zero_threshold(float(s[0]), rank_tol, zero_floor, m, smax, k)
        nullity = int(np.sum(s <= tau))
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
        established = _orth(np.hstack([nullbases[k - 1]] + carried))
        for _ in range(newtops):
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
            established = _orth(np.hstack([established, chain[0][:, None]]))

    out = []
    for chain in chains_topfirst:
        bottom_first = chain[::-1]
        scale = max(float(np.linalg.norm(v)) for v in bottom_first)
        out.append([v / scale for v in bottom_first])
    out.sort(key=len, reverse=True)
    if len(out) != nullities[1]:
        raise IllConditionedError("chain count disagrees with the geometric multiplicity")
    return out


def _deflated_chains(schur: tuple[np.ndarray, np.ndarray], size: int, rep: complex,
                     radius: float, zero_floor: float, rank_tol: float,
                     conj_mat: np.ndarray | None = None) -> list[list[np.ndarray]]:
    """Jordan chains of one eigenvalue cluster of size members, lifted to the full space.

    schur is the Schur form (T, Z) of the matrix from _schur_form. rep
    may differ from the cluster mean (e.g. snapped to the real axis);
    radius isolates the cluster around it and zero_floor is the zero
    threshold of the deflated block, both from _cluster_chains.
    """
    q, b, sdim = _deflate_cluster(schur, rep, radius)
    if sdim != size:
        raise IllConditionedError(
            f"Schur selection returned {sdim} eigenvalues for a cluster of {size}")

    mblock = b - rep * np.eye(sdim)

    conj_block = None
    if conj_mat is not None:
        conj_block = q.conj().T @ conj_mat @ np.conj(q)
        invol = conj_block @ np.conj(conj_block)
        if np.linalg.norm(invol - np.eye(sdim), 2) > _INVOLUTION_TOL:
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
    Those columns are then made fixed under it as _fixed_under does.
    """
    q = spectrum.vectors[:, members]
    q = q / np.linalg.norm(q, axis=0)
    offset = np.abs(np.einsum("ij,ij->j", q.conj(), spectrum.matrix @ q) - reps)
    if np.any(offset > _zero_threshold(offset, rank_tol, zero_floor)):
        raise IllConditionedError("cluster block is not nilpotent at the working tolerance")

    if np.any(fixed):
        qf = q[:, fixed]
        c = np.einsum("ij,ij->j", qf.conj(), conj_mat @ qf.conj())
        if np.any(np.abs(c * np.conj(c) - 1.0) > _INVOLUTION_TOL):
            raise IllConditionedError("cluster subspace is not conjugation-invariant")
        # _fixed_under on the 1x1 block (c): the larger of 1 + c and i(1 - c)
        plus, minus = 1.0 + c, 1j * (1.0 - c)
        top = np.where(np.abs(plus) >= np.abs(minus), plus, minus)
        if np.any(np.abs(top) < _FIXED_TOP_FLOOR):
            raise IllConditionedError("conjugation-fixed chain top degenerated")
        q[:, fixed] = qf * (top / np.abs(top))
    return q


def _normalizing_factors(bottoms: np.ndarray, fixed) -> np.ndarray:
    """The scalar that normalises each chain, from its eigenvector (a column of bottoms).

    A chain admits only a global scalar, fixed by the dominant entry z of
    its eigenvector: a phase making z real positive or, for a chain fixed
    under a conjugation, where a complex phase would break fixedness, a
    sign making Re z positive (Im z when Re z vanishes).
    """
    z = bottoms[np.argmax(np.abs(bottoms), axis=0), np.arange(bottoms.shape[1])]
    positive = np.where(np.abs(z.real) >= 1e-12 * np.abs(z), z.real, z.imag) >= 0
    return np.where(fixed, np.where(positive, 1.0, -1.0), np.conj(z) / np.abs(z))


def _cluster_margins(spectrum: ClusteredSpectrum, idx: np.ndarray, reps: np.ndarray):
    """(internal, external) distances of each cluster idx[k] from reps[k].

    internal is the largest distance of a member, external the smallest
    distance of a non-member (inf when there is none).
    """
    label = np.empty(len(spectrum.w), dtype=int)
    label[np.concatenate(spectrum.groups)] = np.repeat(
        np.arange(len(spectrum.groups)), [len(g) for g in spectrum.groups])
    member = label[None, :] == idx[:, None]
    dist = np.abs(spectrum.w[None, :] - reps[:, None])
    return (np.max(dist, axis=1, where=member, initial=0.0),
            np.min(dist, axis=1, where=~member, initial=np.inf))


def _cluster_chains(spectrum: ClusteredSpectrum, wanted, rank_tol: float,
                    conj_mat: np.ndarray | None = None) -> list:
    """Normalised Jordan chains of the wanted clusters.

    wanted lists (cluster index, representative) pairs; the result
    holds the chains of each, longest first, bottom vector first. With
    conj_mat G, a cluster with a real representative gets chains fixed
    under v -> G conj(v), normalised by sign; every other chain is
    normalised by phase (_normalizing_factors).

    Every cluster must be separable from the rest of the spectrum:
    external > 2 internal + 16 eps scale (_cluster_margins). Its zero
    floor, internal + 64 eps scale, bounds what counts as zero in its
    block. Simple clusters take their vectors from the eigendecomposition,
    all in one batch (_simple_vectors). Only clusters with more than one
    member are deflated from the Schur form, which is computed on the
    first of them.
    """
    idx = np.array([i for i, _ in wanted])
    reps = np.array([rep for _, rep in wanted], dtype=complex)
    fixed = (reps.imag == 0.0) & (conj_mat is not None)
    out: list = [None] * len(wanted)
    # chain vectors and powers of a defective block scale like ||A||^k: at
    # ||A|| near 1e155 they leave the float range
    try:
        with np.errstate(over="raise", invalid="raise"):
            internal, external = _cluster_margins(spectrum, idx, reps)
            if np.any(external <= 2.0 * internal + 16.0 * _EPS * spectrum.scale):
                raise IllConditionedError("eigenvalue clusters are not separable")
            zero_floor = internal + 64.0 * _EPS * spectrum.scale

            simple = np.flatnonzero([len(spectrum.groups[i]) == 1 for i in idx])
            if simple.size:
                members = np.concatenate([spectrum.groups[i] for i in idx[simple]])
                q = _simple_vectors(spectrum, members, reps[simple], zero_floor[simple],
                                    fixed[simple], rank_tol, conj_mat)
                q = q * _normalizing_factors(q, fixed[simple])
                for k, col in zip(simple, q.T):
                    out[k] = [[col]]

            schur = None
            for k, i in enumerate(idx):
                if out[k] is not None:
                    continue
                if schur is None:
                    schur = _schur_form(spectrum.matrix)
                radius = (0.5 * (internal[k] + external[k]) if np.isfinite(external[k])
                          else internal[k] + 1.0)
                chains = _deflated_chains(schur, len(spectrum.groups[i]), reps[k], radius,
                                          zero_floor[k], rank_tol,
                                          conj_mat if fixed[k] else None)
                factors = _normalizing_factors(np.column_stack([c[0] for c in chains]), fixed[k])
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
    if cluster_tol <= 0 or rank_tol <= 0:
        raise ValidationError("tolerances must be positive")
    scale = max(1.0, float(np.linalg.norm(m, 2)))
    spectrum = _clustered_spectrum(m, scale, cluster_tol * scale)
    eigenvalues = [complex(z) for z in spectrum.means]
    chains = _cluster_chains(spectrum, list(enumerate(eigenvalues)), rank_tol)

    structure = EigenStructure(
        eigenvalues=tuple(eigenvalues),
        multiplicities=tuple(len(g) for g in spectrum.groups),
        geometric_multiplicities=tuple(len(c) for c in chains),
        chains=tuple(tuple(tuple(chain) for chain in c) for c in chains),
        residual=np.nan,
    )
    psi, j = structure.assemble()
    return replace(structure, residual=float(np.linalg.norm(m @ psi - psi @ j, 2)))
