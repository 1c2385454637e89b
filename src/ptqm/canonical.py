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
from functools import cached_property

import numpy as np

from .errors import (COMPLEX_PAIR, REAL_JORDAN, REAL_SIMPLE, IllConditionedError,
                     NotPTSymmetricError, _require_positive)
from .linalg import (BlockLayout, _cluster_chains, _clustered_spectrum, first_index, norm_within,
                     operator_norm)
from .symmetry import PTPair, _pt_defect, _pt_test


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
    then real blocks ascending by eigenvalue then order. blocks is the
    one record of the structure: layout (their column layout),
    spectral_class, J and K are read off it. J and K are rebuilt from
    layout on every read, as the residual gate does; K is exact (0/1
    entries). pt is the P T and can_tol the residual tolerance the
    decomposition was built with. h_norm is ||H||_2, computed once here
    for every later scale. warning is set when the structure was
    decided inside the clustering tolerance band or Psi is badly
    conditioned.

    The residual gates are screened (linalg.norm_within), so the exact
    residuals are computed on first access: pt_residual is
    ||H PT - PT conj(H)||_2, None unless pt_tested (H passed the
    PT-symmetry test); residuals holds the 2-norms of the similarity and
    K-relation defects.
    """

    hamiltonian: np.ndarray
    h_norm: float
    pt: np.ndarray
    Psi: np.ndarray
    blocks: tuple
    condition_number: float
    warning: str | None
    pt_tested: bool
    can_tol: float

    @property
    def dim(self) -> int:
        return self.Psi.shape[0]

    @cached_property
    def layout(self) -> BlockLayout:
        return BlockLayout.from_units((b.eigenvalue, b.order, b.kind == COMPLEX_PAIR)
                                      for b in self.blocks)

    @cached_property
    def spectral_class(self) -> SpectralClass:
        return _classify_blocks(self.blocks)

    @property
    def J(self) -> np.ndarray:
        return self.layout.matrices()[0]

    @property
    def K(self) -> np.ndarray:
        return self.layout.matrices()[1]

    @cached_property
    def pt_residual(self) -> float | None:
        return operator_norm(_pt_defect(self.hamiltonian, self.pt)) if self.pt_tested else None

    @cached_property
    def residuals(self) -> dict:
        return dict(zip(("similarity", "k_relation"),
                        operator_norm(_canonical_defects(self)).tolist()))


def _classify_blocks(blocks: tuple) -> SpectralClass:
    tag = "Unbroken" if all(b.kind == REAL_SIMPLE for b in blocks) else "Broken"
    return SpectralClass(tag=tag, detail=blocks)


def _analyze(h, pair: PTPair, tol: float, cluster_tol: float | None, rank_tol: float):
    """PT-test H, then cluster, snap, pair conjugates, and construct chains.

    Raises unless H is PT-symmetric at tol, naming the exact residual;
    cluster_tol None means tol. Returns (h, h_norm, units, in_band): H
    validated, its 2-norm, the units as (BlockDescriptor, chain) in the
    column order of Psi, and whether a cluster was decided inside the
    clustering tolerance band. A pair unit holds the chain of its Im > 0
    member, whose PT image is the chain of its mate. Every chain passes
    the same gates whether or not the caller keeps its vectors.
    """
    cluster_tol = tol if cluster_tol is None else cluster_tol
    _require_positive(tol=tol, cluster_tol=cluster_tol, rank_tol=rank_tol)
    h, ok, h_norm = _pt_test(h, pair, tol)
    if not ok:
        residual = operator_norm(_pt_defect(h, pair.pt))
        raise NotPTSymmetricError(f"H is not PT-symmetric (residual {residual:.6e})")
    scale = max(1.0, h_norm)
    tol_abs = cluster_tol * scale
    spectrum = _clustered_spectrum(h, scale, tol_abs)
    means = spectrum.means
    reps = np.where(np.abs(means.imag) <= tol * scale, means.real, means)

    spread = np.abs(spectrum.w - reps[spectrum.label])
    in_band = bool(spread.max() > 0.1 * tol_abs)

    # real clusters and the Im > 0 member of each conjugate pair; the
    # minus chains are the PT images of the plus chains
    wanted = []
    used = np.zeros(len(means), dtype=bool)
    for gi, rep in enumerate(reps.tolist()):
        if used[gi]:
            continue
        used[gi] = True
        if rep.imag == 0.0:
            wanted.append(gi)
            continue
        partner = first_index(~used & (np.abs(reps - rep.conjugate()) <= 2 * tol_abs))
        if partner is None:
            raise IllConditionedError(
                f"eigenvalue {rep:.6e} has no conjugate partner cluster")
        if spectrum.sizes[partner] != spectrum.sizes[gi]:
            raise IllConditionedError(
                "conjugate clusters have different algebraic multiplicities")
        used[partner] = True
        wanted.append(gi if rep.imag > 0 else partner)

    idx = np.array(wanted)
    wanted_reps = reps[idx]
    units = []
    for rep, chains in zip(wanted_reps.tolist(), _cluster_chains(spectrum, idx, wanted_reps,
                                                                 rank_tol, conj_mat=pair.pt)):
        for chain in chains:
            if rep.imag != 0.0:
                block = BlockDescriptor(COMPLEX_PAIR, rep, len(chain))
            else:
                kind = REAL_SIMPLE if len(chain) == 1 else REAL_JORDAN
                block = BlockDescriptor(kind, complex(rep.real), len(chain))
            units.append((block, chain))
    # conjugate pairs first, then real units, each ascending by (Re, Im, order)
    units.sort(key=lambda u: (u[0].kind != COMPLEX_PAIR, u[0].eigenvalue.real,
                              u[0].eigenvalue.imag, u[0].order))
    return h, h_norm, units, in_band


def classify_spectrum(h, pair: PTPair, tol: float = 1e-8, *,
                      cluster_tol: float | None = None,
                      rank_tol: float = 1e-10) -> SpectralClass:
    """Classify the spectrum as Unbroken or Broken with block detail.

    Eigenvalues with |Im| <= tol * max(1, ||H||) are snapped to the
    real axis before classification. The chains are built and gated as
    for pt_canonical_form; only the basis is not assembled. Its one SVD
    is that of H: the PT residual gate is screened (linalg.norm_within).
    """
    units = _analyze(h, pair, tol, cluster_tol, rank_tol)[2]
    return _classify_blocks(tuple(block for block, _ in units))


def pt_canonical_form(h, pair: PTPair, tol: float = 1e-8, *,
                      cluster_tol: float | None = None,
                      rank_tol: float = 1e-10,
                      can_tol: float = 1e-8) -> CanonicalDecomposition:
    """Compute (Psi, J, K) and the block structure of a PT-symmetric H.

    Raises when H is not PT-symmetric at tol, or when the constructed
    basis fails the similarity or K-relation residual bounds at
    can_tol (the achieved residual is attached to the error).
    """
    _require_positive(can_tol=can_tol)
    h, h_norm, units, in_band = _analyze(h, pair, tol, cluster_tol, rank_tol)
    cols = []
    for block, chain in units:
        cols.extend(chain)
        if block.kind == COMPLEX_PAIR:
            cols.extend(pair.pt @ np.conj(v) for v in chain)
    blocks = tuple(block for block, _ in units)
    return _decomposition(h, h_norm, pair, np.array(cols).T.copy(), blocks, can_tol, in_band,
                          pt_tested=True)


def _canonical_defects(decomp: CanonicalDecomposition) -> np.ndarray:
    """The similarity defect Psi^-1 H Psi - J and the K-relation defect
    PT conj(Psi) - Psi K, stacked, with J and K built once from the layout."""
    (j, k), psi = decomp.layout.matrices(), decomp.Psi
    return np.stack([np.linalg.solve(psi, decomp.hamiltonian @ psi) - j,
                     decomp.pt @ np.conj(psi) - psi @ k])


def _decomposition(h: np.ndarray, h_norm: float, pair: PTPair, psi: np.ndarray,
                   blocks: tuple, can_tol: float = 1e-8, in_band: bool = False,
                   pt_tested: bool = False) -> CanonicalDecomposition:
    """CanonicalDecomposition of H in the basis psi, whose columns follow blocks.

    Raises when the similarity or K-relation residual exceeds can_tol,
    naming both exact residuals; in_band says the structure was decided
    inside the clustering tolerance band. pt_tested says H passed a
    PT-symmetry test.
    """
    sing = np.linalg.svd(psi, compute_uv=False)
    cond = float(sing[0] / sing[-1]) if sing[-1] > 0 else np.inf
    warning = None
    if in_band:
        warning = ("eigenvalue cluster diameter lies within the clustering "
                   "tolerance band; the Jordan structure is tolerance-dependent")
    elif cond > 1e8:
        warning = f"Psi condition number {cond:.3e}; results may lose accuracy"

    for a in (h, pair.pt, psi):
        a.setflags(write=False)
    decomp = CanonicalDecomposition(hamiltonian=h, h_norm=h_norm, pt=pair.pt, Psi=psi,
                                    blocks=blocks, condition_number=cond, warning=warning,
                                    pt_tested=pt_tested, can_tol=can_tol)
    _residual_gate(decomp, float(sing[0]))
    return decomp


def _residual_gate(decomp: CanonicalDecomposition, psi_norm: float) -> None:
    """Raise IllConditionedError, naming both exact residuals, unless the
    similarity defect is within can_tol * max(1, ||H||_2) and the
    K-relation defect within can_tol * max(1, psi_norm), at the can_tol
    decomp was built with; psi_norm is ||Psi||_2."""
    defects = _canonical_defects(decomp)
    bounds = np.array([decomp.can_tol * max(1.0, decomp.h_norm),
                       decomp.can_tol * max(1.0, psi_norm)])
    if not norm_within(defects, bounds).all():
        sim_res, krel_res = operator_norm(defects).tolist()
        raise IllConditionedError(
            f"canonical residuals exceed tolerance (similarity {sim_res:.3e}, "
            f"K-relation {krel_res:.3e})", residual=max(sim_res, krel_res))
