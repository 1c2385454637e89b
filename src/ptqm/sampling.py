"""Random PT-symmetric instances for tests and property suites.

A valid instance is built backwards from the canonical form: draw a
block structure (J0, K0), then a basis Psi0 whose columns follow the
K0 conjugation pattern for the chosen PT pair (PT conj(Psi0) = Psi0 K0),
and set H = Psi0 J0 Psi0^-1. The construction is exact because the
block matrices satisfy J0 K0 = K0 conj(J0): real blocks are real, and
the swap blocks exchange a conjugate pair.

No draw is rejected, so every sampler returns at every dimension.
Eigenvalues sit on centred slots 0.75 apart with jitter 0.1, and the
basis has condition number below 12 by construction (_adapted_basis).
Imaginary parts of broken pairs stay in [0.3, 0.5]: over a [0, 10]
horizon the coefficient growth e^{2 Im(lam) t} stays in double range.
"""

from __future__ import annotations

import numpy as np

from .linalg import BlockLayout
from .symmetry import PTPair, validate_pt_pair


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-ish unitary via QR with positive diagonal phase fix."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    return np.linalg.qr(rng.normal(size=(d, d)))[0]


def _bounded(rng: np.random.Generator, frame, d: int, cond: float) -> np.ndarray:
    """frame D frame with D diagonal in [1, cond]: singular values in [1, cond]."""
    return frame(rng, d) * rng.uniform(1.0, cond, size=d) @ frame(rng, d)


def random_pt_pair(rng: np.random.Generator, d: int, kind: str | None = None) -> PTPair:
    """A valid (P, T) pair of one of several shapes.

    trivial: P = T = I. swap: P is the reversal permutation, T = I.
    real_involution: P = V S V^-1 with real V, cond(V) <= 2, and
    diagonal signs S, T = I. householder_t: P = I and T a real
    reflection I - 2 u u^T.
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
        v = _bounded(rng, _orthogonal, d, 2.0)
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


def _spaced_values(rng: np.random.Generator, count: int, gap=0.75, jitter=0.1):
    """count reals on centred slots, pairwise at least gap - 2 * jitter apart."""
    slots = (np.arange(count) - 0.5 * (count - 1)) * gap
    return rng.permutation(slots) + rng.uniform(-jitter, jitter, size=count)


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
        vals = _spaced_values(rng, d - n_pairs)
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


def _fixed_frame(pt: np.ndarray) -> np.ndarray:
    """Real-orthonormal columns spanning the vectors fixed by v -> pt conj(v):
    the null space of that map minus I, written on (Re v, Im v)."""
    d = pt.shape[0]
    a, b = pt.real, pt.imag
    real_map = np.block([[a, b], [b, -a]]) - np.eye(2 * d)
    frame = np.linalg.svd(real_map)[2][d:].T
    return frame[:d] + 1j * frame[d:]


def _adapted_basis(rng: np.random.Generator, pair: PTPair, layout: BlockLayout) -> np.ndarray:
    """Psi0 = M X Q following the K pattern of layout: the columns of M X
    (M from _fixed_frame, X real with singular values in [1, 3]) are
    PT-fixed, and Q turns the chains f, g of each pair unit into
    a = (f + i g) / sqrt(2) and PT conj(a). M is unitary when PT is, so
    cond(Psi0) <= 3; for real_involution pairs cond(M) <= 2 + sqrt(3)."""
    psi = _fixed_frame(pair.pt) @ _bounded(rng, _orthogonal, pair.dim, 3.0)
    for (offset, span), paired in zip(layout.units, layout.paired):
        if paired:
            f, g = np.split(psi[:, offset:offset + span], 2, axis=1)
            psi[:, offset:offset + span] = np.hstack([f + 1j * g, f - 1j * g]) / np.sqrt(2.0)
    return psi


def random_instance(rng: np.random.Generator, d: int, kind: str = "mixed",
                    pair_kind: str | None = None) -> dict:
    """A random PT-symmetric Hamiltonian with known ground truth.

    Returns a dict with h, pair, j0, k0, psi0, and the drawn kind
    ('unbroken', 'complex', or 'ep').
    """
    pair = random_pt_pair(rng, d, pair_kind)
    units, drawn = _block_structure(rng, d, kind)
    layout = BlockLayout.from_units((lam, n, shape == "pair") for shape, n, lam in units)
    j0, k0 = layout.matrices()
    psi0 = _adapted_basis(rng, pair, layout)
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
    """Free basis with smallest singular value at least min_sv: U1 D U2, D in
    [1, 1/min_sv], has singular values >= 1 and column norms <= 1/min_sv."""
    from .superposition import free_basis

    return free_basis(list(_bounded(rng, random_unitary, d, 1.0 / min_sv).T))


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
