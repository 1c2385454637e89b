"""Output checks. Each returns None when the result is correct and a
one-line reason otherwise; a reason counts the operation as failed.

Every bound is the library's own: the canonical-form residual gates of
pt_canonical_form (can_tol = 1e-8), the intertwining bound of
build_metric (met_tol = 1e-8), and the 1e-8 drift and deviation levels
the acceptance tests hold invariants and dilation to.
"""

from __future__ import annotations

import numpy as np

CAN_TOL = 1e-8
MET_TOL = 1e-8
DRIFT_TOL = 1e-8
DEVIATION_TOL = 1e-8
EIG_TOL = 1e-6  # planted versus computed eigenvalue, relative to max(1, |lam|)


def _norm2(a) -> float:
    return float(np.linalg.norm(a, 2))


def blocks(got, planted) -> str | None:
    """Block kinds, orders and eigenvalues against the planted structure."""
    got = tuple(got)
    if len(got) != len(planted):
        return f"{len(got)} blocks, planted {len(planted)}"
    for b, (kind, lam, order) in zip(got, planted):
        if b.kind != kind or b.order != order:
            return f"block {b.kind}/{b.order}, planted {kind}/{order}"
        if abs(b.eigenvalue - lam) > EIG_TOL * max(1.0, abs(lam)):
            return f"eigenvalue {b.eigenvalue:.6g}, planted {lam:.6g}"
    return None


def spectral_class(cls, inst) -> str | None:
    tag = "Unbroken" if inst.unbroken else "Broken"
    if cls.tag != tag:
        return f"class {cls.tag}, planted {tag}"
    return blocks(cls.detail, inst.blocks)


def canonical(dec, inst, pt: np.ndarray) -> str | None:
    h_scale = max(1.0, _norm2(inst.h))
    psi = dec.Psi
    psi_scale = max(1.0, _norm2(psi))
    sim = _norm2(np.linalg.solve(psi, inst.h @ psi) - dec.J)
    krel = _norm2(pt @ np.conj(psi) - psi @ dec.K)
    if not sim <= CAN_TOL * h_scale:
        return f"similarity residual {sim:.3e}"
    if not krel <= CAN_TOL * psi_scale:
        return f"K-relation residual {krel:.3e}"
    return spectral_class(dec.spectral_class, inst)


def metric(met, h: np.ndarray, unbroken: bool) -> str | None:
    eta = met.eta
    defect = _norm2(h.conj().T @ eta - eta @ h)
    if not defect <= MET_TOL * _norm2(eta) * max(1.0, _norm2(h)):
        return f"intertwining defect {defect:.3e}"
    if bool(met.positive_definite) != unbroken:
        return f"positive_definite {met.positive_definite} on an unbroken={unbroken} H"
    return None


def invariants(report) -> str | None:
    drift = report.drift["eta_trace"]
    if not drift <= DRIFT_TOL:
        return f"eta_trace drift {drift:.3e}"
    return None


def dilation(report) -> str | None:
    if not report.max_deviation <= DEVIATION_TOL:
        return f"dilation deviation {report.max_deviation:.3e}"
    return None


def free_evolution(report) -> str | None:
    return None if report.ok else f"free-check failed (defect {report.worst_defect:.3e})"


def discriminant_label(r: float, s: float, theta: float) -> str | None:
    """The class the two-level discriminant s^2 - r^2 sin^2(theta) gives,
    or None inside the band where the library's tolerance decides."""
    disc = s * s - (r * np.sin(theta)) ** 2
    if abs(disc) <= 1e-6 * max(1.0, r * r, s * s):
        return None
    return "Unbroken" if disc > 0 else "ComplexConjugatePair"


def sweep_rows(rows, r: float, s: float) -> str | None:
    thetas = [row[0] for row in rows]
    if thetas != sorted(thetas):
        return "sweep rows are not ordered by theta"
    for theta, label in rows:
        want = discriminant_label(r, s, theta)
        if want is not None and label != want:
            return f"theta {theta:.6f}: class {label}, discriminant says {want}"
    return None
