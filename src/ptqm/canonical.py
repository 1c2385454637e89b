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

from .errors import IllConditionedError, NotPTSymmetricError
from .linalg import BlockLayout, _cluster_chains, _clustered_spectrum, first_index
from .symmetry import PTPair, _pt_test


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
    then real blocks ascending by eigenvalue then order. layout is the
    column layout of those units, from which J and K are built; K is
    exact (0/1 entries). h_norm is ||H||_2, computed once here for every
    later scale. pt_residual is ||H PT - PT conj(H)||_2 from the
    PT-symmetry test, None where no test ran. residuals holds the
    similarity and K-relation defects; warning is set when the structure
    was decided inside the clustering tolerance band or Psi is badly
    conditioned.
    """

    hamiltonian: np.ndarray
    h_norm: float
    pt_residual: float | None
    Psi: np.ndarray
    J: np.ndarray
    K: np.ndarray
    blocks: tuple
    layout: BlockLayout
    spectral_class: SpectralClass
    residuals: dict
    condition_number: float
    warning: str | None

    @property
    def dim(self) -> int:
        return self.Psi.shape[0]


def _classify_blocks(blocks: tuple) -> SpectralClass:
    tag = "Unbroken" if all(b.kind == REAL_SIMPLE for b in blocks) else "Broken"
    return SpectralClass(tag=tag, detail=blocks)


def _analyze(h: np.ndarray, h_norm: float, pair: PTPair, tol: float,
             cluster_tol: float, rank_tol: float):
    """Cluster, snap, pair conjugates, and construct chains.

    h_norm is ||H||_2. Returns (pair_units, real_units, in_band) where
    pair_units are (lam, plus_chain) with Im lam > 0 and real_units are
    (lam, chain); every chain passes the same gates whether or not the
    caller keeps its vectors. in_band says a cluster was decided inside
    the clustering tolerance band.
    """
    scale = max(1.0, h_norm)
    tol_abs = cluster_tol * scale
    spectrum = _clustered_spectrum(h, scale, tol_abs)
    groups = spectrum.groups
    means = spectrum.means
    reps = np.where(np.abs(means.imag) <= tol * scale, means.real, means)

    spread = np.abs(spectrum.w[np.concatenate(groups)]
                    - np.repeat(reps, [len(g) for g in groups]))
    in_band = bool(np.max(spread) > 0.1 * tol_abs)

    # real clusters and the Im > 0 member of each conjugate pair; the
    # minus chains are the PT images of the plus chains
    wanted = []
    used = np.zeros(len(groups), dtype=bool)
    for gi, rep in enumerate(reps):
        if used[gi]:
            continue
        used[gi] = True
        if rep.imag == 0.0:
            wanted.append((gi, complex(rep)))
            continue
        partner = first_index(~used & (np.abs(reps - np.conj(rep)) <= 2 * tol_abs))
        if partner is None:
            raise IllConditionedError(
                f"eigenvalue {complex(rep):.6e} has no conjugate partner cluster")
        if len(groups[partner]) != len(groups[gi]):
            raise IllConditionedError(
                "conjugate clusters have different algebraic multiplicities")
        used[partner] = True
        plus = gi if rep.imag > 0 else partner
        wanted.append((plus, complex(reps[plus])))

    pair_units = []
    real_units = []
    for (_, rep), chains in zip(wanted, _cluster_chains(spectrum, wanted, rank_tol,
                                                        conj_mat=pair.pt)):
        for chain in chains:
            if rep.imag == 0.0:
                real_units.append((rep.real, chain))
            else:
                pair_units.append((rep, chain))

    pair_units.sort(key=lambda u: (u[0].real, u[0].imag, len(u[1])))
    real_units.sort(key=lambda u: (u[0], len(u[1])))
    return pair_units, real_units, in_band


def _block_descriptors(pair_units, real_units) -> tuple:
    blocks = []
    for lam, cp in pair_units:
        blocks.append(BlockDescriptor(COMPLEX_PAIR, lam, len(cp)))
    for lam, chain in real_units:
        kind = REAL_SIMPLE if len(chain) == 1 else REAL_JORDAN
        blocks.append(BlockDescriptor(kind, complex(lam), len(chain)))
    return tuple(blocks)


def _pt_hamiltonian(h, pair: PTPair, tol: float) -> tuple[np.ndarray, float, float]:
    """H validated against the pair, ||H||_2 and the PT residual; raises
    unless H is PT-symmetric at tol."""
    h, ok, residual, h_norm = _pt_test(h, pair, tol)
    if not ok:
        raise NotPTSymmetricError(
            f"H is not PT-symmetric (residual {residual:.6e})")
    return h, h_norm, residual


def classify_spectrum(h, pair: PTPair, tol: float = 1e-8, *,
                      cluster_tol: float | None = None,
                      rank_tol: float = 1e-10) -> SpectralClass:
    """Classify the spectrum as Unbroken or Broken with block detail.

    Eigenvalues with |Im| <= tol * max(1, ||H||) are snapped to the
    real axis before classification. The chains are built and gated as
    for pt_canonical_form; only the basis is not assembled.
    """
    h, h_norm, _ = _pt_hamiltonian(h, pair, tol)
    cluster_tol = tol if cluster_tol is None else cluster_tol
    pair_units, real_units, _ = _analyze(h, h_norm, pair, tol, cluster_tol, rank_tol)
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
    h, h_norm, pt_residual = _pt_hamiltonian(h, pair, tol)
    cluster_tol = tol if cluster_tol is None else cluster_tol
    pair_units, real_units, in_band = _analyze(h, h_norm, pair, tol, cluster_tol, rank_tol)
    blocks = _block_descriptors(pair_units, real_units)

    cols = []
    for _, cp in pair_units:
        cols.extend(cp)
        cols.extend(pair.pt @ np.conj(v) for v in cp)
    for _, chain in real_units:
        cols.extend(chain)
    return _decomposition(h, h_norm, pair, np.column_stack(cols), blocks, can_tol, in_band,
                          pt_residual)


def _decomposition(h: np.ndarray, h_norm: float, pair: PTPair, psi: np.ndarray,
                   blocks: tuple, can_tol: float = 1e-8, in_band: bool = False,
                   pt_residual: float | None = None) -> CanonicalDecomposition:
    """CanonicalDecomposition of H in the basis psi, whose columns follow blocks.

    J and K are built from the block layout. Raises when the similarity
    or K-relation residual exceeds can_tol; in_band says the structure
    was decided inside the clustering tolerance band. pt_residual is the
    residual of a PT-symmetry test already run on H, if any.
    """
    layout = BlockLayout.from_units((b.eigenvalue, b.order, b.kind == COMPLEX_PAIR)
                                    for b in blocks)
    j, k = layout.matrices()

    # the singular values of Psi and the 2-norms of both defects, in one SVD call
    sing = np.linalg.svd(np.stack([psi, np.linalg.solve(psi, h @ psi) - j,
                                   pair.pt @ np.conj(psi) - psi @ k]), compute_uv=False)
    cond = float(sing[0, 0] / sing[0, -1]) if sing[0, -1] > 0 else np.inf
    sim_res, krel_res = float(sing[1, 0]), float(sing[2, 0])

    h_scale = max(1.0, h_norm)
    psi_scale = max(1.0, float(sing[0, 0]))
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
        h_norm=h_norm,
        pt_residual=pt_residual,
        Psi=psi,
        J=j,
        K=k,
        blocks=blocks,
        layout=layout,
        spectral_class=_classify_blocks(blocks),
        residuals={"similarity": sim_res, "k_relation": krel_res},
        condition_number=cond,
        warning=warning,
    )
