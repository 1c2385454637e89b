"""Residual gates decided by a Frobenius screen, residuals read lazily.

linalg.norm_within decides ||D||_2 <= bound and takes the exact 2-norm
only where ||D / bound||_F^2 > 1/4; every 2-norm gate goes through it.
Through it the PT test, the canonical form and the metric take no SVD
for a residual that only meets a bound, and
CanonicalDecomposition.pt_residual and .residuals and
MetricOperator.defect are computed on first read. The Hermiticity gates
of validate_density and psd_square_root and the orthonormality gate of
is_incoherent take no SVD for a valid input either. A bound relative to
max(1, ||R||_2), as in validate_density and the reconstruction gate of
metric.basis_coefficients, is decided first at the lower scale
max(1, ||R||_F / sqrt(n)) (linalg._within_scale), and an R whose
Frobenius norm overflows is not cleared by an infinite scale. These
tests pin the SVDs that are saved and that overflow case.
"""

import re

import numpy as np
import pytest

from ptqm import metric
from ptqm.canonical import classify_spectrum, pt_canonical_form
from ptqm.dynamics import validate_density
from ptqm.errors import NumericalError
from ptqm.linalg import _within_scale, congruence_solve, operator_norm, psd_square_root
from ptqm.metric import basis_coefficients, build_metric
from ptqm.sampling import random_density, random_instance
from ptqm.superposition import free_basis, is_incoherent


def _random(d: int, kind: str):
    inst = random_instance(np.random.default_rng(1000 + d), d, kind)
    return inst["h"], inst["pair"], None


@pytest.fixture
def svds(monkeypatch):
    """The stack shape of every SVD taken, through np.linalg.svd or a
    2-norm of np.linalg.norm."""
    calls = []
    module = np.linalg._linalg
    svd = module.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a)[:-2])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(module, "svd", counted)
    return calls


def _taken(calls, action):
    start = len(calls)
    action()
    return calls[start:]


@pytest.mark.parametrize("kind", ["unbroken", "complex"])
@pytest.mark.parametrize("d", [16, 64])
def test_residual_norms_are_taken_only_when_read(d, kind, svds):
    """||H||_2 is the one SVD of classify_spectrum, ||H||_2 and sigma(Psi)
    the two of pt_canonical_form, and build_metric takes none; each
    deferred value costs one SVD call on its first read and none after."""
    h, pair, cluster_tol = _random(d, kind)
    one = [()]
    assert _taken(svds, lambda: classify_spectrum(h, pair, cluster_tol=cluster_tol)) == one
    box = {}

    def decompose():
        box["dec"] = pt_canonical_form(h, pair, cluster_tol=cluster_tol)
        box["met"] = build_metric(box["dec"])

    assert _taken(svds, decompose) == [(), ()]
    dec, met = box["dec"], box["met"]
    assert _taken(svds, lambda: dec.pt_residual) == one
    assert _taken(svds, lambda: dec.residuals) == [(2,)]
    assert _taken(svds, lambda: met.defect) == one
    assert _taken(svds, lambda: (dec.pt_residual, dec.residuals, met.defect)) == []


def test_density_checks_take_no_svd_for_a_valid_density(svds):
    g = np.random.default_rng(3).normal(size=(16, 16, 2)) @ np.array([1.0, 1.0j])
    rho = g @ g.conj().T
    assert _taken(svds, lambda: validate_density(rho / np.trace(rho).real)) == []


def test_psd_square_root_takes_no_svd_for_valid_densities(svds):
    rng = np.random.default_rng(4)
    stack = np.stack([random_density(rng, 8) for _ in range(5)])
    assert _taken(svds, lambda: psd_square_root(stack)) == []


def test_is_incoherent_takes_no_svd_for_an_orthonormal_basis(svds):
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
    basis = free_basis(q.T)
    rho = random_density(rng, 6)
    assert _taken(svds, lambda: is_incoherent(rho, basis)) == []


def test_reconstruction_gate_catches_a_fault_where_the_frobenius_norm_overflows(monkeypatch):
    """A doubled R of the second matrix, whose entries lie near 1e200 so
    that ||rho||_F overflows, is a defect of the size of rho itself; the
    gate names its exact 2-norm instead of clearing it at an infinite
    scale."""
    h, pair, _ = _random(4, "unbroken")
    dec = pt_canonical_form(h, pair)
    rng = np.random.default_rng(6)
    rho = np.stack([random_density(rng, 4), 1e200 * random_density(rng, 4)])
    with np.errstate(over="ignore"):
        assert np.linalg.norm(rho[1]) == np.inf

    def faulty(c, x, name):
        r = congruence_solve(c, x, name)
        r[1] *= 2.0
        return r

    monkeypatch.setattr(metric, "congruence_solve", faulty)
    r = faulty(dec.Psi, rho, "Psi")
    exact = operator_norm(dec.Psi @ r[1] @ dec.Psi.conj().T - rho[1])
    with pytest.raises(NumericalError, match=re.escape(f"reconstruction defect {exact:.6e}")):
        basis_coefficients(rho, dec)


def test_within_scale_takes_at_most_one_svd_of_each_defect(svds):
    """R = diag(1e3, 0, 0, 0) has ||R||_F / sqrt(4) = ||R||_2 / 2, so the
    lower bound is half the exact one. D0 clears the Frobenius screen at
    the lower bound; D1 = c I fails it but clears by its exact 2-norm;
    D2 and D3 fail the lower bound and meet the exact one with the 2-norm
    already taken: one SVD of D1..D3, one of R2 and R3."""
    tol = 1e-9
    low = tol * 500.0
    rank1 = np.outer([0.6, 0.8j, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0])
    defects = np.stack([0.4 * low * rank1, 0.9 * low * np.eye(4),
                        1.5 * low * rank1, 2.5 * low * rank1]).astype(complex)
    refs = np.broadcast_to(np.diag([1e3, 0.0, 0.0, 0.0]).astype(complex), (4, 4, 4))
    taken = _taken(svds, lambda: np.testing.assert_array_equal(
        _within_scale(defects, refs, tol), [True, True, True, False]))
    assert taken == [(3,), (2,)]
