"""Random PT-symmetric instances for tests and property suites.

A valid instance is built backwards from the canonical form: draw a
block structure (J0, K0), then a basis Psi0 whose columns follow the
K0 conjugation pattern for the chosen PT pair (PT conj(Psi0) = Psi0 K0),
and set H = Psi0 J0 Psi0^-1. The construction is exact because the
block matrices satisfy J0 K0 = K0 conj(J0): real blocks are real, and
the swap blocks exchange a conjugate pair.

Eigenvalues are kept at least 0.5 apart between clusters and the
basis is resampled until its condition number is at most 20, so the
instances stay comfortably inside the default tolerances. Imaginary
parts of broken pairs stay in [0.3, 0.6]: over a [0, 10] horizon the
coefficient growth e^{2 Im(lam) t} then stays within double range.
"""

from __future__ import annotations

import numpy as np

from .linalg import BlockLayout
from .symmetry import PTPair, apply_antilinear, validate_pt_pair


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-ish unitary via QR with positive diagonal phase fix."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pt_pair(rng: np.random.Generator, d: int, kind: str | None = None) -> PTPair:
    """A valid (P, T) pair of one of several shapes.

    trivial: P = T = I. swap: P is the reversal permutation, T = I.
    real_involution: P = V S V^-1 with real V and diagonal signs S,
    T = I. householder_t: P = I and T a real reflection I - 2 u u^T.
    """
    kinds = ("trivial", "swap", "real_involution", "householder_t")
    if kind is None:
        kind = kinds[rng.integers(len(kinds))]
    eye = np.eye(d)
    if kind == "trivial":
        p, t = eye, eye
    elif kind == "swap":
        p, t = np.fliplr(eye), eye
    elif kind == "real_involution":
        while True:
            v = rng.normal(size=(d, d))
            sv = np.linalg.svd(v, compute_uv=False)
            if sv[0] / sv[-1] <= 10.0:
                break
        signs = np.diag(rng.choice([-1.0, 1.0], size=d))
        p = v @ signs @ np.linalg.inv(v)
        t = eye
    elif kind == "householder_t":
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        p = eye
        t = eye - 2.0 * np.outer(u, u)
    else:
        raise ValueError(f"unknown pair kind: {kind}")
    return validate_pt_pair(p, t, 1e-8)


def _spaced_values(rng: np.random.Generator, count: int, lo=-3.0, hi=3.0,
                   gap=0.75, jitter=0.1):
    """count reals with pairwise separation at least gap - 2 * jitter."""
    slots = np.arange(lo, hi + 1e-9, gap)
    picks = rng.choice(len(slots), size=count, replace=False)
    return slots[picks] + rng.uniform(-jitter, jitter, size=count)


def _block_structure(rng: np.random.Generator, d: int, kind: str):
    """List of ('pair', n, lam) / ('real', n, lam) units covering d."""
    if kind == "mixed":
        kind = ("unbroken", "complex", "ep")[rng.integers(3)]
    units = []
    if kind == "unbroken":
        for lam in _spaced_values(rng, d):
            units.append(("real", 1, complex(lam)))
    elif kind == "complex":
        if d < 2:
            raise ValueError("complex pair needs d >= 2")
        n_pairs = 1 + (d >= 5 and rng.random() < 0.3)
        n_real = d - 2 * n_pairs
        vals = _spaced_values(rng, n_pairs + n_real)
        # Im capped at 0.5: over t <= 10 the conserved combinations are
        # eps kappa^2 e^{2 Im t} cancellations, and this keeps that
        # product a few times below 1e-8 for kappa <= 12 bases
        for i in range(n_pairs):
            units.append(("pair", 1, complex(vals[i], rng.uniform(0.3, 0.5))))
        for lam in vals[n_pairs:]:
            units.append(("real", 1, complex(lam)))
    elif kind == "ep":
        if d < 2:
            raise ValueError("Jordan block needs d >= 2")
        vals = _spaced_values(rng, d - 1)
        units.append(("real", 2, complex(vals[0])))
        for lam in vals[1:]:
            units.append(("real", 1, complex(lam)))
    else:
        raise ValueError(f"unknown instance kind: {kind}")
    return units, kind


def _random_adapted_basis(rng: np.random.Generator, pair: PTPair, units,
                          max_cond=12.0) -> np.ndarray:
    """Basis columns following the K conjugation pattern: fixed vectors
    for real units, (a, PT conj(a)) column pairs for pair units."""
    d = pair.dim
    for _ in range(200):
        cols = []
        for shape, n, _ in units:
            if shape == "pair":
                a = rng.normal(size=(d, n)) + 1j * rng.normal(size=(d, n))
                b = np.column_stack([apply_antilinear(pair, a[:, i]) for i in range(n)])
                cols.extend([a, b])
            else:
                w = rng.normal(size=(d, n)) + 1j * rng.normal(size=(d, n))
                fixed = np.column_stack(
                    [w[:, i] + apply_antilinear(pair, w[:, i]) for i in range(n)])
                cols.append(fixed)
        psi = np.hstack(cols)
        norms = np.linalg.norm(psi, axis=0)
        if np.min(norms) < 1e-6:
            continue
        psi = psi / norms
        sv = np.linalg.svd(psi, compute_uv=False)
        if sv[0] / sv[-1] <= max_cond:
            return psi
    raise RuntimeError("failed to draw a well-conditioned adapted basis")


def random_instance(rng: np.random.Generator, d: int, kind: str = "mixed",
                    pair_kind: str | None = None) -> dict:
    """A random PT-symmetric Hamiltonian with known ground truth.

    Returns a dict with h, pair, j0, k0, psi0, and the drawn kind
    ('unbroken', 'complex', or 'ep').
    """
    pair = random_pt_pair(rng, d, pair_kind)
    units, drawn = _block_structure(rng, d, kind)
    j0, k0 = BlockLayout.from_units((lam, n, shape == "pair") for shape, n, lam in units).matrices()
    psi0 = _random_adapted_basis(rng, pair, units)
    h = np.linalg.solve(psi0.T, (psi0 @ j0).T).T
    return {"h": h, "pair": pair, "j0": j0, "k0": k0, "psi0": psi0, "kind": drawn}


def random_density(rng: np.random.Generator, d: int, pure: bool = False) -> np.ndarray:
    if pure:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        return np.outer(v, np.conj(v))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_free_basis(rng: np.random.Generator, d: int, min_sv=0.2):
    from .superposition import free_basis

    while True:
        c = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        c = c / np.linalg.norm(c, axis=0)
        if np.linalg.svd(c, compute_uv=False)[-1] >= min_sv:
            return free_basis([c[:, i] for i in range(d)])


def random_free_kraus(rng: np.random.Generator, basis, zero_prob=0.2) -> np.ndarray:
    """K mapping each basis ray onto a (possibly annihilated) basis ray."""
    d = basis.dim
    perm = rng.permutation(d)
    scales = rng.uniform(0.2, 1.0, size=d) * np.exp(2j * np.pi * rng.random(d))
    scales[rng.random(d) < zero_prob] = 0.0
    m = np.zeros((d, d), dtype=complex)
    for i in range(d):
        m[perm[i], i] = scales[i]
    c = basis.matrix
    return np.linalg.solve(c.T, (c @ m).T).T


def random_free_state(rng: np.random.Generator, basis) -> np.ndarray:
    weights = rng.dirichlet(np.ones(basis.dim))
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    for w, v in zip(weights, basis.vectors):
        rho += w * np.outer(v, np.conj(v))
    return rho
