"""Dense complex linear algebra primitives.

All functions accept anything convertible to a complex ndarray and
validate shape and finiteness up front. Dimensions are desk-scale
(d of a few up to a few hundred), so robustness is preferred over
speed throughout.

Jordan structure is computed by Schur deflation. The matrix is
reduced to complex Schur form once per decomposition; each eigenvalue
cluster is then moved to the leading diagonal block by reordering that
form with LAPACK ztrsen (Bai & Demmel 1993), which separates the
cluster's invariant subspace without factoring the matrix again. Chain
construction happens inside the small deflated block. There the "zero"
singular values sit near the cluster diameter while the structural
couplings stay at the scale of the matrix, so rank decisions remain
clean even when the raw eigenvalues of a defective cluster split at
the square-root-of-epsilon scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .errors import (
    DimensionError,
    IllConditionedError,
    NotPositiveSemidefiniteError,
    SingularMatrixError,
    ValidationError,
)

_EPS = float(np.finfo(float).eps)


def _as_array(a, name: str, stacked: bool) -> np.ndarray:
    m = np.array(a, dtype=complex)
    if m.ndim != 2 and not (stacked and m.ndim > 2):
        raise DimensionError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if m.size == 0:
        raise ValidationError(f"{name} is empty")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-d complex ndarray copy of the input."""
    return _as_array(a, name, stacked=False)


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
    w = np.array(v, dtype=complex)
    if w.ndim != 1:
        raise DimensionError(f"{name} must be 1-dimensional, got shape {w.shape}")
    if w.size == 0:
        raise ValidationError(f"{name} is empty")
    if not np.all(np.isfinite(w.real)) or not np.all(np.isfinite(w.imag)):
        raise ValidationError(f"{name} contains non-finite entries")
    return w


def operator_norm(a):
    """Largest singular value of a (not necessarily square) matrix.

    A stack of matrices, shape (..., m, n), gives one value per matrix.
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
    return sla.expm(z * m)


def psd_square_root(a, herm_tol: float = 1e-10, neg_floor: float = 1e-12) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [-neg_floor * max(1, ||A||), 0) are clamped to zero
    so that defect operators of near-contractions survive rounding.
    Anything more negative raises. ||A|| is the largest |eigenvalue|
    of the Hermitian part, which the eigendecomposition returns. A
    stack of matrices, shape (..., n, n), is taken matrix by matrix;
    the first to fail a check is the one reported.
    """
    m = as_square_stack(a, "A")
    w, v = np.linalg.eigh(0.5 * (m + dagger(m)))
    scale = np.maximum(1.0, np.max(np.abs(w), axis=-1))
    if np.any(operator_norm(m - dagger(m)) > herm_tol * scale):
        raise ValidationError("matrix is not Hermitian within tolerance")
    low = first_index(w[..., 0] < -neg_floor * scale)
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


def congruence_solve(c: np.ndarray, x: np.ndarray, name: str) -> np.ndarray:
    """C^-1 X C^-dag by two linear solves, for one X or a stack of them.

    name is how C is called in the SingularMatrixError raised when C
    is singular.
    """
    try:
        half = np.linalg.solve(c, x)
        return dagger(np.linalg.solve(c, dagger(half)))
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


def _cluster_indices(w: np.ndarray, tol_abs: float) -> list[np.ndarray]:
    """Connected components of the spectrum under |wi - wj| <= tol_abs.

    Pairs are swept in order of real part: |wi - wj| is at least the
    real-part gap, so only pairs whose real parts lie within tol_abs of
    each other can be linked.
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
    out = [np.array(g) for g in groups.values()]
    out.sort(key=lambda g: (w[g].mean().real, w[g].mean().imag))
    return out


def _schur_form(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form (T, Z) of a, with a = Z T Z^dag.

    Computed once per decomposition; _deflate_cluster reorders it for
    each cluster.
    """
    return sla.schur(a, output="complex")


def _deflate_cluster(schur: tuple[np.ndarray, np.ndarray], lam: complex, radius: float):
    """Schur basis of the invariant subspace of eigenvalues near lam.

    schur is the pair (T, Z) from _schur_form. ztrsen reorders it so
    the diagonal entries within radius of lam lead, leaving T and Z
    themselves untouched; this is the reordering step a sorted Schur
    decomposition performs after its factorisation. Returns (q, b, sdim)
    with a @ q = q @ b to machine precision, where q has orthonormal
    columns and b is the upper-triangular restriction.
    """
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
    if outside(best) < 0.5:
        raise IllConditionedError("conjugation-fixed chain top degenerated")
    return best / np.linalg.norm(best)


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
    if m == 1:
        # a simple eigenvalue: one chain of length one, gated like the SVD path below
        s0 = abs(mblock[0, 0])
        if s0 > max(rank_tol * s0, 10.0 * zero_floor):
            raise IllConditionedError("cluster block is not nilpotent at the working tolerance")
        top = np.ones(1, dtype=complex)
        if conj_op is not None:
            top = _fixed_under(conj_op, top, np.zeros((1, 0), dtype=complex))
        return [[top]]

    smax = max(1.0, float(np.linalg.norm(mblock, 2)))

    nullbases: list[np.ndarray] = [np.zeros((m, 0), dtype=complex)]
    nullities = [0]
    power = np.eye(m, dtype=complex)
    p = 0
    for k in range(1, m + 1):
        power = power @ mblock
        _, s, vh = np.linalg.svd(power)
        tau = max(rank_tol * float(s[0]), 10.0 * m * zero_floor * smax ** (k - 1))
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


def _cluster_chains(schur: tuple[np.ndarray, np.ndarray], w: np.ndarray, idx: np.ndarray,
                    rep: complex, rank_tol: float, scale: float,
                    conj_mat: np.ndarray | None = None) -> list[list[np.ndarray]]:
    """Jordan chains of one eigenvalue cluster, lifted to the full space.

    schur is the Schur form (T, Z) of the matrix from _schur_form. rep
    may differ from the cluster mean (e.g. snapped to the real
    axis); the deflation radius and the zero floor account for the
    spread of the members around it.
    """
    internal = float(np.max(np.abs(w[idx] - rep)))
    others = np.delete(w, idx)
    if others.size:
        external = float(np.min(np.abs(others - rep)))
        if external <= 2.0 * internal + 16.0 * _EPS * scale:
            raise IllConditionedError("eigenvalue clusters are not separable")
        radius = 0.5 * (internal + external)
    else:
        radius = internal + 1.0

    q, b, sdim = _deflate_cluster(schur, rep, radius)
    if sdim != len(idx):
        raise IllConditionedError(
            f"Schur selection returned {sdim} eigenvalues for a cluster of {len(idx)}")

    mblock = b - rep * np.eye(sdim)
    zero_floor = internal + 64.0 * _EPS * scale

    conj_block = None
    if conj_mat is not None:
        conj_block = q.conj().T @ conj_mat @ np.conj(q)
        invol = conj_block @ np.conj(conj_block)
        if np.linalg.norm(invol - np.eye(sdim), 2) > 1e-6:
            raise IllConditionedError("cluster subspace is not conjugation-invariant")

    chains = _nilpotent_chains(mblock, rank_tol, zero_floor, conj_op=conj_block)
    return [[q @ v for v in chain] for chain in chains]


def _phase_normalize(chain: list[np.ndarray]) -> list[np.ndarray]:
    """Rotate a whole chain so the dominant entry of its eigenvector is
    real positive. Chains admit only a global scalar, so the bottom
    vector fixes the phase for every member."""
    bottom = chain[0]
    z = bottom[int(np.argmax(np.abs(bottom)))]
    phase = np.conj(z) / abs(z)
    return [phase * v for v in chain]


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
    w = np.linalg.eigvals(m)
    groups = _cluster_indices(w, cluster_tol * scale)
    schur = _schur_form(m)

    eigenvalues = []
    mults = []
    geoms = []
    all_chains = []
    for g in groups:
        rep = complex(w[g].mean())
        chains = _cluster_chains(schur, w, g, rep, rank_tol, scale)
        chains = [_phase_normalize(c) for c in chains]
        eigenvalues.append(rep)
        mults.append(int(len(g)))
        geoms.append(len(chains))
        all_chains.append(tuple(tuple(c) for c in chains))

    structure = EigenStructure(
        eigenvalues=tuple(eigenvalues),
        multiplicities=tuple(mults),
        geometric_multiplicities=tuple(geoms),
        chains=tuple(all_chains),
        residual=np.nan,
    )
    psi, j = structure.assemble()
    return replace(structure, residual=float(np.linalg.norm(m @ psi - psi @ j, 2)))
