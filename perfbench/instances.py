"""Seeded PT-symmetric instances with known ground truth, built with numpy only.

The library's own samplers are deliberately not used: their spaced
eigenvalue slots run out at d >= 10, their rejection loops stall at
d >= 16, and any later fix to them would silently change the inputs
this benchmark measures.

Construction. Every (P, T) pair used here has a real symmetric
orthogonal product G = P T, so G = W diag(sigma) W^T with W real
orthogonal and sigma = +-1. The vectors fixed by v -> G conj(v) are
exactly M y for real y, with the unitary M = W diag(phi), phi_i = 1 where
sigma_i = +1 and i where sigma_i = -1. A PT-adapted basis is then

    Psi0 = M (O1 D O2) Q,

with O1, O2 real orthogonal, D a diagonal bounded in [1, COND], and Q
unitary: identity on real columns and [[1, 1], [i, -i]] / sqrt(2) on the
two columns (a, PT conj(a)) of each conjugate pair. The condition number
of Psi0 is that of D, at most COND, at every dimension, and no draw is
ever rejected. H = Psi0 J0 Psi0^-1 for the planted Jordan matrix J0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COND = 3.0
GAP = 0.6  # eigenvalue spacing between clusters
JITTER = 0.1
IM_RANGE = (0.3, 0.5)  # imaginary parts of broken pairs; keeps e^{2 Im t} small on [0, 10]
PAIR_SHAPES = ("trivial", "swap", "householder_t")
CLASSES = ("unbroken", "complex", "ep")


@dataclass(frozen=True)
class Instance:
    """A PT-symmetric H, its (P, T) pair and the planted block structure.

    blocks lists (kind, eigenvalue, order) in the library's canonical
    order: conjugate pairs first (Im > 0 member, ascending Re), then
    real blocks ascending by eigenvalue then order. kind uses the
    library's tags.
    """

    kind: str
    pair_shape: str
    h: np.ndarray
    p: np.ndarray
    t: np.ndarray
    blocks: tuple
    rho: np.ndarray

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    @property
    def unbroken(self) -> bool:
        return self.kind == "unbroken"

    @property
    def cluster_tol(self) -> float | None:
        """EP instances need a wider clustering band than the default:
        a Jordan block's eigenvalues split at the sqrt(eps) scale."""
        return 1e-6 if self.kind == "ep" else None


def _orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def pt_pair(rng: np.random.Generator, d: int, shape: str) -> tuple[np.ndarray, np.ndarray]:
    eye = np.eye(d)
    if shape == "trivial":
        return eye, eye.copy()
    if shape == "swap":
        return np.fliplr(eye), eye
    if shape == "householder_t":
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        return eye, eye - 2.0 * np.outer(u, u)
    raise ValueError(f"unknown pair shape: {shape}")


def _fixed_frame(g: np.ndarray) -> np.ndarray:
    """Unitary M whose real span is the fixed set of v -> g conj(v)."""
    sigma, w = np.linalg.eigh(0.5 * (g + g.T))
    phase = np.where(sigma > 0, 1.0 + 0.0j, 1.0j)
    return w * phase


def _spaced(rng: np.random.Generator, count: int) -> np.ndarray:
    """count reals, pairwise at least GAP - 2 JITTER apart, centred on 0."""
    slots = (np.arange(count) - 0.5 * (count - 1)) * GAP
    return rng.permutation(slots) + rng.uniform(-JITTER, JITTER, size=count)


def _units(rng: np.random.Generator, d: int, kind: str) -> list:
    """('pair'|'real', order, eigenvalue) units covering dimension d."""
    if kind == "unbroken":
        return [("real", 1, complex(v)) for v in _spaced(rng, d)]
    if kind == "complex":
        n_pairs = max(1, d // 8)
        vals = _spaced(rng, d - n_pairs)
        ims = rng.uniform(*IM_RANGE, size=n_pairs)
        units = [("pair", 1, complex(vals[i], ims[i])) for i in range(n_pairs)]
        return units + [("real", 1, complex(v)) for v in vals[n_pairs:]]
    if kind == "ep":
        vals = _spaced(rng, d - 1)
        return [("real", 2, complex(vals[0]))] + [("real", 1, complex(v)) for v in vals[1:]]
    raise ValueError(f"unknown class: {kind}")


def _jordan(lam: complex, n: int) -> np.ndarray:
    return lam * np.eye(n, dtype=complex) + np.diag(np.ones(n - 1), 1)


def _planted(units: list) -> tuple[np.ndarray, np.ndarray]:
    """J0 and the column-pairing matrix Q for the given unit list."""
    d = sum(2 * n if shape == "pair" else n for shape, n, _ in units)
    j0 = np.zeros((d, d), dtype=complex)
    q = np.zeros((d, d), dtype=complex)
    off = 0
    for shape, n, lam in units:
        if shape == "pair":
            j0[off:off + n, off:off + n] = _jordan(lam, n)
            j0[off + n:off + 2 * n, off + n:off + 2 * n] = _jordan(np.conj(lam), n)
            for i in range(n):
                a, b = off + i, off + n + i
                q[a, a], q[a, b] = 1.0, 1.0
                q[b, a], q[b, b] = 1.0j, -1.0j
            q[off:off + 2 * n, off:off + 2 * n] /= np.sqrt(2.0)
            off += 2 * n
        else:
            j0[off:off + n, off:off + n] = _jordan(lam, n)
            q[off:off + n, off:off + n] = np.eye(n)
            off += n
    return j0, q


def _blocks(units: list) -> tuple:
    pairs = sorted(((lam, n) for shape, n, lam in units if shape == "pair"),
                   key=lambda u: (u[0].real, u[0].imag, u[1]))
    reals = sorted(((lam.real, n) for shape, n, lam in units if shape == "real"))
    out = [("ComplexConjugatePair", complex(lam), n) for lam, n in pairs]
    out += [("RealSimple" if n == 1 else "RealJordan", complex(lam), n) for lam, n in reals]
    return tuple(out)


def density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)


def instance(rng: np.random.Generator, d: int, kind: str, pair_shape: str) -> Instance:
    """One PT-symmetric H of class kind ('unbroken', 'complex', 'ep')."""
    if d < 2:
        raise ValueError("instances need d >= 2")
    p, t = pt_pair(rng, d, pair_shape)
    units = _units(rng, d, kind)
    j0, q = _planted(units)
    x = _orthogonal(rng, d) * rng.uniform(1.0, COND, size=d) @ _orthogonal(rng, d)
    psi0 = _fixed_frame(p @ t) @ x @ q
    h = np.linalg.solve(psi0.T, (psi0 @ j0).T).T
    return Instance(kind=kind, pair_shape=pair_shape, h=h, p=p, t=t,
                    blocks=_blocks(units), rho=density(rng, d))


def malformed_json(rng: np.random.Generator) -> str:
    """A matrix file cut off mid-document: not valid JSON."""
    n = int(rng.integers(3, 12))
    return '{"dim": 2, "rows": [[[1.0, 0.0], [0.' + "5" * n


def non_pt(rng: np.random.Generator, inst: Instance) -> np.ndarray:
    """inst.h plus a perturbation that breaks H (PT) = (PT) conj(H)."""
    d = inst.dim
    e = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    g = inst.p @ inst.t
    anti = e - g @ np.conj(e) @ g  # odd part under the PT conjugation
    return inst.h + 0.1 * anti / np.linalg.norm(anti, 2)
