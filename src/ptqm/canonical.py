"""Structured canonical form of a PT-symmetric Hamiltonian.

A PT-symmetric H is similar to a Jordan matrix J whose blocks come in
complex-conjugate pairs plus real blocks, via a basis Psi that the
antilinear PT operator maps onto itself: PT conj(Psi) = Psi K, where K
swaps the members of each conjugate pair and fixes the real columns.
Real-eigenvalue chains are therefore built from PT-fixed vectors, and
each conjugate partner chain is the exact PT image of its mate rather
than an independently computed one: that enforces the K structure
exactly and halves the numerical error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import IllConditionedError, NotPTSymmetricError, ValidationError
from .linalg import _cluster_chains, _cluster_indices, _phase_normalize, _schur_form, as_square
from .symmetry import PTPair, is_pt_symmetric

_EPS = float(np.finfo(float).eps)

REAL_SIMPLE = "RealSimple"
REAL_JORDAN = "RealJordan"
COMPLEX_PAIR = "ComplexConjugatePair"


@dataclass(frozen=True)
class BlockDescriptor:
    """One canonical block unit.

    For a ComplexConjugatePair the eigenvalue is the Im > 0 member and
    the unit spans 2 * order columns; real blocks span order columns.
    """

    kind: str
    eigenvalue: complex
    order: int


@dataclass(frozen=True)
class SpectralClass:
    """Unbroken iff every block is RealSimple; Broken otherwise."""

    tag: str
    detail: tuple

    @property
    def unbroken(self) -> bool:
        return self.tag == "Unbroken"


@dataclass(frozen=True)
class CanonicalDecomposition:
    """(Psi, J, K) with Psi^-1 H Psi = J and PT conj(Psi) = Psi K.

    blocks lists the units in the column order of Psi: conjugate pairs
    first (ascending Re, the Im > 0 member leading inside each pair),
    then real blocks ascending by eigenvalue then order. K is exact
    (0/1 entries). residuals holds the similarity and K-relation
    defects; warning is set when the structure was decided inside the
    clustering tolerance band or Psi is badly conditioned.
    """

    hamiltonian: np.ndarray
    Psi: np.ndarray
    J: np.ndarray
    K: np.ndarray
    blocks: tuple
    spectral_class: SpectralClass
    residuals: dict
    condition_number: float
    warning: str | None

    @property
    def dim(self) -> int:
        return self.Psi.shape[0]


def _sign_normalize(chain: list[np.ndarray]) -> list[np.ndarray]:
    """Flip a whole chain by -1 if needed so the dominant entry of its
    eigenvector has positive real part (positive imaginary part when
    the real part vanishes). Complex phases would break PT-fixedness,
    so only the sign is free here."""
    bottom = chain[0]
    z = bottom[int(np.argmax(np.abs(bottom)))]
    if abs(z.real) >= 1e-12 * abs(z):
        s = 1.0 if z.real >= 0 else -1.0
    else:
        s = 1.0 if z.imag >= 0 else -1.0
    return [s * v for v in chain]


def _classify_blocks(blocks: tuple) -> SpectralClass:
    tag = "Unbroken" if all(b.kind == REAL_SIMPLE for b in blocks) else "Broken"
    return SpectralClass(tag=tag, detail=blocks)


def _analyze(h: np.ndarray, pair: PTPair, tol: float, cluster_tol: float,
             rank_tol: float, build_basis: bool):
    """Cluster, snap, pair conjugates, and construct chains.

    Returns (pair_units, real_units, diam_flag) where pair_units are
    (lam, plus_chains, minus_chains) and real_units are (lam, chains);
    chain vectors are only populated when build_basis is true.
    """
    scale = max(1.0, float(np.linalg.norm(h, 2)))
    w = np.linalg.eigvals(h)
    tol_abs = cluster_tol * scale
    groups = _cluster_indices(w, tol_abs)
    schur = _schur_form(h)

    reps = []
    for g in groups:
        rep = complex(w[g].mean())
        if abs(rep.imag) <= tol * scale:
            rep = complex(rep.real)
        reps.append(rep)

    in_band = any(
        np.max(np.abs(w[g] - reps[i])) > 0.1 * tol_abs for i, g in enumerate(groups)
    )

    conj_mat = pair.pt if build_basis else None
    pair_units = []
    real_units = []
    used = set()
    for gi, g in enumerate(groups):
        if gi in used:
            continue
        rep = reps[gi]
        if rep.imag == 0.0:
            used.add(gi)
            chains = _cluster_chains(schur, w, g, rep, rank_tol, scale, conj_mat=conj_mat)
            if build_basis:
                chains = [_sign_normalize(c) for c in chains]
            for chain in chains:
                real_units.append((rep.real, chain))
            continue

        # complex cluster: locate the conjugate partner and build the
        # minus chains as PT images of the plus chains
        target = np.conj(rep)
        partner = None
        for gj in range(len(groups)):
            if gj != gi and gj not in used and abs(reps[gj] - target) <= 2 * tol_abs:
                partner = gj
                break
        if partner is None:
            raise IllConditionedError(
                f"eigenvalue {rep:.6e} has no conjugate partner cluster")
        if len(groups[partner]) != len(g):
            raise IllConditionedError(
                "conjugate clusters have different algebraic multiplicities")
        used.update((gi, partner))

        plus_gi, plus_rep = (gi, rep) if rep.imag > 0 else (partner, reps[partner])
        plus_chains = _cluster_chains(schur, w, groups[plus_gi], plus_rep, rank_tol, scale)
        if build_basis:
            plus_chains = [_phase_normalize(c) for c in plus_chains]
            minus_chains = [[pair.pt @ np.conj(v) for v in chain] for chain in plus_chains]
        else:
            minus_chains = [[None] * len(c) for c in plus_chains]
        for cp, cm in zip(plus_chains, minus_chains):
            pair_units.append((complex(plus_rep), cp, cm))

    pair_units.sort(key=lambda u: (u[0].real, u[0].imag, len(u[1])))
    real_units.sort(key=lambda u: (u[0], len(u[1])))
    return pair_units, real_units, in_band


def _block_descriptors(pair_units, real_units) -> tuple:
    blocks = []
    for lam, cp, _ in pair_units:
        blocks.append(BlockDescriptor(COMPLEX_PAIR, lam, len(cp)))
    for lam, chain in real_units:
        kind = REAL_SIMPLE if len(chain) == 1 else REAL_JORDAN
        blocks.append(BlockDescriptor(kind, complex(lam), len(chain)))
    return tuple(blocks)


def classify_spectrum(h, pair: PTPair, tol: float = 1e-8, *,
                      cluster_tol: float | None = None,
                      rank_tol: float = 1e-10) -> SpectralClass:
    """Classify the spectrum as Unbroken or Broken with block detail.

    Eigenvalues with |Im| <= tol * max(1, ||H||) are snapped to the
    real axis before classification.
    """
    h = as_square(h, "H")
    ok, residual = is_pt_symmetric(h, pair, tol)
    if not ok:
        raise NotPTSymmetricError(
            f"H is not PT-symmetric (residual {residual:.6e})")
    cluster_tol = tol if cluster_tol is None else cluster_tol
    pair_units, real_units, _ = _analyze(h, pair, tol, cluster_tol, rank_tol,
                                         build_basis=False)
    return _classify_blocks(_block_descriptors(pair_units, real_units))


def pt_canonical_form(h, pair: PTPair, tol: float = 1e-8, *,
                      cluster_tol: float | None = None,
                      rank_tol: float = 1e-10,
                      can_tol: float = 1e-8) -> CanonicalDecomposition:
    """Compute (Psi, J, K) and the block structure of a PT-symmetric H.

    Raises when H is not PT-symmetric at tol, or when the constructed
    basis fails the similarity or K-relation residual bounds at
    can_tol (the achieved residual is attached to the error).
    """
    h = as_square(h, "H")
    if h.shape[0] != pair.dim:
        raise ValidationError(
            f"H dimension {h.shape[0]} does not match pair dimension {pair.dim}")
    ok, residual = is_pt_symmetric(h, pair, tol)
    if not ok:
        raise NotPTSymmetricError(
            f"H is not PT-symmetric (residual {residual:.6e})")
    cluster_tol = tol if cluster_tol is None else cluster_tol

    pair_units, real_units, in_band = _analyze(h, pair, tol, cluster_tol, rank_tol,
                                               build_basis=True)
    blocks = _block_descriptors(pair_units, real_units)

    cols = []
    jblocks = []
    kblocks = []
    for lam, cp, cm in pair_units:
        n = len(cp)
        cols.extend(cp)
        cols.extend(cm)
        jn = lam * np.eye(n, dtype=complex) + np.diag(np.ones(n - 1), 1)
        jblocks.append(sla.block_diag(jn, np.conj(jn)))
        kblocks.append(np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(n)))
    for lam, chain in real_units:
        n = len(chain)
        cols.extend(chain)
        jblocks.append(lam * np.eye(n, dtype=complex) + np.diag(np.ones(n - 1), 1))
        kblocks.append(np.eye(n))

    psi = np.column_stack(cols)
    j = sla.block_diag(*jblocks).astype(complex)
    k = sla.block_diag(*kblocks).astype(complex)

    sing = np.linalg.svd(psi, compute_uv=False)
    cond = float(sing[0] / sing[-1]) if sing[-1] > 0 else np.inf

    h_scale = max(1.0, float(np.linalg.norm(h, 2)))
    psi_scale = max(1.0, float(sing[0]))
    sim_res = float(np.linalg.norm(np.linalg.solve(psi, h @ psi) - j, 2))
    krel_res = float(np.linalg.norm(pair.pt @ np.conj(psi) - psi @ k, 2))
    if sim_res > can_tol * h_scale or krel_res > can_tol * psi_scale:
        raise IllConditionedError(
            f"canonical residuals exceed tolerance (similarity {sim_res:.3e}, "
            f"K-relation {krel_res:.3e})", residual=max(sim_res, krel_res))

    warning = None
    if in_band:
        warning = ("eigenvalue cluster diameter lies within the clustering "
                   "tolerance band; the Jordan structure is tolerance-dependent")
    elif cond > 1e8:
        warning = f"Psi condition number {cond:.3e}; results may lose accuracy"

    return CanonicalDecomposition(
        hamiltonian=h,
        Psi=psi,
        J=j,
        K=k,
        blocks=blocks,
        spectral_class=_classify_blocks(blocks),
        residuals={"similarity": sim_res, "k_relation": krel_res},
        condition_number=cond,
        warning=warning,
    )
