"""Every reported residual is the exact 2-norm of its defect, and every
residual gate decides as the exact 2-norm does.

The PT-pair, PT-symmetry, similarity, K-relation, intertwining and
density Hermiticity and positivity gates each compare a 2-norm with a
bound. A defect planted just either side of each bound must be
accepted below it and rejected above it, with an error that names the
exact value. The values reported on a decomposition and a metric
(pt_residual, residuals, defect, h_norm, condition_number) must equal,
bit for bit, the 2-norm of the expression that defines them.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from ptqm.canonical import CanonicalDecomposition, classify_spectrum, pt_canonical_form
from ptqm.dynamics import validate_density
from ptqm.errors import (IllConditionedError, InvalidDensityError, NotPTSymmetricError,
                         NumericalError, ValidationError)
from ptqm.linalg import operator_norm
from ptqm.matio import load_matrix_file
from ptqm.metric import build_metric, verify_metric
from ptqm.sampling import random_instance
from ptqm.symmetry import is_pt_symmetric, validate_pt_pair

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
# a defect planted at bound * (1 + side * NEAR): rejected above, accepted below
NEAR = 1e-9


def _golden(name: str):
    h, p, t = (load_matrix_file(str(INPUTS / f"{m}_{name}.json")) for m in "hpt")
    return h, validate_pt_pair(p, t), 1e-6 if name.startswith("ep") else None


def _random(d: int, kind: str):
    inst = random_instance(np.random.default_rng(1000 + d), d, kind)
    return inst["h"], inst["pair"], 1e-6 if kind == "ep" else None


def _pt_defect(h, pt):
    return h @ pt - pt @ np.conj(h)


def _assert_exact_reads(h, pair, cluster_tol):
    dec = pt_canonical_form(h, pair, cluster_tol=cluster_tol)
    met = build_metric(dec)
    psi = dec.Psi
    assert dec.pt_residual == operator_norm(_pt_defect(dec.hamiltonian, pair.pt))
    assert dec.residuals == {
        "similarity": operator_norm(np.linalg.solve(psi, dec.hamiltonian @ psi) - dec.J),
        "k_relation": operator_norm(pair.pt @ np.conj(psi) - psi @ dec.K),
    }
    assert met.defect == verify_metric(h, met.eta)
    assert dec.h_norm == operator_norm(h)
    sing = np.linalg.svd(psi, compute_uv=False)
    assert dec.condition_number == float(sing[0] / sing[-1])
    assert is_pt_symmetric(h, pair, 1e-8) == (True, dec.pt_residual)


@pytest.mark.parametrize("name", [f"{kind}{d}" for kind in ("unbroken", "complex", "ep")
                                  for d in (2, 4)])
def test_reads_are_exact_norms_on_golden_inputs(name):
    _assert_exact_reads(*_golden(name))


@pytest.mark.parametrize("kind", ["unbroken", "complex", "ep"])
@pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 32, 64])
def test_reads_are_exact_norms_on_random_instances(d, kind):
    _assert_exact_reads(*_random(d, kind))


@pytest.mark.parametrize("side", [-1, 1])
def test_pair_gate_at_the_bound(side):
    p = np.diag([1.0 + 1e-4, 1.0])
    t = np.eye(2)
    pt = p @ t
    exact = [operator_norm(p @ p - np.eye(2)), operator_norm(t @ np.conj(t) - np.eye(2)),
             operator_norm(pt - t @ np.conj(p)), operator_norm(pt @ np.conj(pt) - np.eye(2))]
    val_tol = exact[0] / (1 + side * NEAR)
    if side < 0:
        assert validate_pt_pair(p, t, val_tol).residuals["parity_involution"] == exact[0]
        return
    with pytest.raises(ValidationError) as info:
        validate_pt_pair(p, t, val_tol)
    assert str(info.value) == (f"PT pair identities violated (parity_involution: {exact[0]:.3e}, "
                               f"pt_involution: {exact[3]:.3e})")
    assert list(info.value.residuals.values()) == exact


@pytest.mark.parametrize("scale", [1.0, 1e-170, 1e200])
@pytest.mark.parametrize("side", [-1, 1])
def test_pt_gate_at_the_bound(side, scale):
    """The bound sits near ||D||_2 at every scale, so that D / bound is of
    order one: unscaled squares of D would underflow or overflow. The
    clustering keeps its default tolerance, 1e-8, whatever tol is."""
    h = scale * np.array([[0.3, 0.2 + 1e-4], [0.2, 0.3]])
    pair = validate_pt_pair(SWAP, np.eye(2))
    residual = operator_norm(_pt_defect(h, SWAP))
    tol = residual / ((1 + side * NEAR) * max(1.0, operator_norm(h)))
    assert is_pt_symmetric(h, pair, tol) == (side < 0, residual)
    if side < 0:
        assert classify_spectrum(h, pair, tol, cluster_tol=1e-8).unbroken
        return
    with pytest.raises(NotPTSymmetricError) as info:
        classify_spectrum(h, pair, tol, cluster_tol=1e-8)
    assert str(info.value) == f"H is not PT-symmetric (residual {residual:.6e})"


def _planted_basis(kind: str):
    """H, its pair, its decomposition, and a basis Psi of norm below 1
    with one planted rank-1 defect: kind 'similarity' moves the first column
    along the second eigenvector, which keeps PT conj(Psi) = Psi K;
    'k_relation' moves it along its own eigenvector by a vector PT
    negates, which keeps Psi^-1 H Psi = J."""
    h = np.array([[0.3, 0.2], [0.2, 0.3]])
    pair = validate_pt_pair(SWAP, np.eye(2))
    dec = pt_canonical_form(h, pair)
    psi = 0.5 * dec.Psi
    step = np.array([1.0, 1.0]) if kind == "similarity" else np.array([1.0, -1.0])
    psi[:, 0] += 1e-4 * step
    return h, pair, dec, psi


@pytest.mark.parametrize("kind", ["similarity", "k_relation"])
@pytest.mark.parametrize("side", [-1, 1])
def test_canonical_gates_at_the_bound(side, kind):
    h, pair, dec, psi = _planted_basis(kind)
    sim = operator_norm(np.linalg.solve(psi, h @ psi) - dec.J)
    krel = operator_norm(SWAP @ np.conj(psi) - psi @ dec.K)
    planted, other = (sim, krel) if kind == "similarity" else (krel, sim)
    can_tol = planted / (1 + side * NEAR)
    assert other < 1e-6 * can_tol and np.linalg.svd(psi, compute_uv=False)[0] < 1.0
    build = lambda: CanonicalDecomposition(h, operator_norm(h), pair.pt, psi, dec.blocks,
                                           can_tol=can_tol)
    if side < 0:
        assert build().residuals == {"similarity": sim, "k_relation": krel}
        return
    with pytest.raises(IllConditionedError) as info:
        build()
    assert str(info.value) == (f"canonical residuals exceed tolerance (similarity {sim:.3e}, "
                               f"K-relation {krel:.3e})")
    assert info.value.residual == max(sim, krel)


@pytest.mark.parametrize("side", [-1, 1])
def test_metric_gate_at_the_bound(side):
    """The planted H passes the residual gate of a record built at
    can_tol 1e-3, not at the default one."""
    h = np.array([[0.3, 0.2], [0.2, 0.3]])
    dec = pt_canonical_form(h, validate_pt_pair(SWAP, np.eye(2)), can_tol=1e-3)
    eta = build_metric(dec).eta
    planted = h + 1e-4 * np.outer([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(IllConditionedError, match="^canonical residuals exceed tolerance"):
        dataclasses.replace(dec, hamiltonian=planted, can_tol=1e-8)
    moved = dataclasses.replace(dec, hamiltonian=planted)
    defect = verify_metric(moved.hamiltonian, eta)
    eta_norm = float(np.max(np.abs(np.linalg.eigvalsh(eta))))
    met_tol = defect / ((1 + side * NEAR) * eta_norm * max(1.0, dec.h_norm))
    if side < 0:
        assert build_metric(moved, met_tol=met_tol).defect == defect
        return
    with pytest.raises(NumericalError) as info:
        build_metric(moved, met_tol=met_tol)
    assert str(info.value) == f"intertwining defect {defect:.6e} exceeds tolerance"


@pytest.mark.parametrize("side", [-1, 1])
@pytest.mark.parametrize("diagonal", [(0.5, 0.5), (2.0, -1.0)])
def test_density_hermiticity_gate_at_the_bound(side, diagonal):
    """With diagonal (2, -1), ||rho||_2 exceeds the Frobenius lower bound
    of the screen, so the exact scale decides."""
    rho = np.diag(diagonal).astype(complex) + 1e-4 * np.outer([1.0, 0.0], [0.0, 1.0])
    defect = operator_norm(rho - rho.conj().T)
    tol = defect / ((1 + side * NEAR) * max(1.0, operator_norm(rho)))
    if side > 0:
        message = "density matrix is not Hermitian"
    elif min(diagonal) < 0:
        message = "density matrix is not positive semidefinite"
    else:
        np.testing.assert_array_equal(validate_density(rho, tol), 0.5 * (rho + rho.conj().T))
        return
    with pytest.raises(InvalidDensityError, match=f"^{message}$"):
        validate_density(rho, tol)


@pytest.mark.parametrize("side", [-1, 1])
def test_density_positivity_gate_at_the_bound(side):
    """The scale max(1, ||rho||_2) = 1 + 1e-3 is exact, not screened."""
    rho = np.diag([1.0 + 1e-3, -1e-3]).astype(complex)
    tol = 1e-3 / ((1 + side * NEAR) * operator_norm(rho))
    if side < 0:
        assert np.array_equal(validate_density(rho, tol), rho)
        return
    with pytest.raises(InvalidDensityError, match="^density matrix is not positive semidefinite$"):
        validate_density(rho, tol)


@pytest.mark.parametrize("scale", [1e-170, 1e200])
def test_edge_scale_hamiltonians_are_decided_as_by_exact_norms(scale):
    """H = [[a, b], [b', conj(a)]] with b' = b (1 + 5e-13), P = swap, T = I:
    PT-symmetric at the default tolerance, with a residual that is not 0."""
    h = scale * np.array([[1.0 + 0.3j, 2.0], [2.000000000001, 1.0 - 0.3j]])
    pair = validate_pt_pair(SWAP, np.eye(2))
    assert classify_spectrum(h, pair).unbroken
    _assert_exact_reads(h, pair, None)
    assert pt_canonical_form(h, pair).pt_residual > 0.0


@pytest.mark.parametrize("scale", [1e-170, 1e200])
def test_density_gates_at_the_edges_of_the_float_range(scale):
    """At 1e200 the Frobenius norm of rho overflows, so it bounds nothing
    and the exact ||rho||_2 decides; at 1e-170 the bound is tol itself."""
    tol = min(1.0, scale) * 1e-3
    with pytest.raises(InvalidDensityError, match="^density matrix is not Hermitian$"):
        validate_density(scale * np.array([[1.0, 1.0], [0.0, 1.0]]), tol)
    with pytest.raises(InvalidDensityError, match="^density matrix is not positive semidefinite$"):
        validate_density(scale * np.diag([1.0, -1e-2]), tol)
